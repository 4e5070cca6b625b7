//! The per-node state machine of the flexible three-phase broadcast.
//!
//! A [`FlexNode`] implements the protocol of §IV-B:
//!
//! 1. **DC-net phase.** All members of the node's DC-net group run periodic
//!    keyed dining-cryptographers rounds (one padded contribution per member
//!    per round, full mesh). The originator injects its transaction into a
//!    round; afterwards every group member knows the transaction but not who
//!    sent it. Collisions (two members injecting in the same round) are
//!    detected via the CRC framing and resolved by randomised back-off.
//! 2. **Adaptive diffusion for `d` rounds.** The group member whose hashed
//!    identity is closest to the hash of the transaction becomes the initial
//!    virtual source — a decision every member reaches independently from
//!    public data, so the transition costs no messages and is verifiable.
//!    The virtual source then runs adaptive diffusion: spread waves grow the
//!    infected subgraph while the token performs its randomised walk away
//!    from the group.
//! 3. **Flood-and-prune.** When the round counter carried with the token
//!    reaches `d`, the final virtual source issues a *final spread request*
//!    that propagates through the infected subgraph and switches every
//!    recipient to ordinary flood-and-prune, which guarantees delivery to
//!    all remaining nodes.

use crate::config::FlexConfig;
use crate::message::FlexMessage;
use fnp_crypto::identity::{elect_virtual_source_index, Identity};
use fnp_crypto::sha256::Sha256;
use fnp_dcnet::keyed::{combine_contributions_into, KeyedParticipant};
use fnp_dcnet::slot::SlotOutcome;
use fnp_dcnet::RoundScratch;
use fnp_netsim::NodeId;
use fnp_proto::{Input, Mailbox, NodeView, ProtocolCore, SteadyProtocol};
use rand::Rng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Timer tag for DC-net round pacing.
const TIMER_DC_ROUND: u64 = 1;
/// Timer tag for adaptive-diffusion round pacing.
const TIMER_AD_ROUND: u64 = 2;

/// Phase-lane tag: the node has switched to flood-and-prune relaying
/// (phase 3). Stored in the simulator's hot phase lane, not in the node
/// struct, because nearly every handler consults it.
const PHASE_FLOODING: u8 = 1;

/// Static description of the DC-net group a node belongs to.
///
/// The member list and identity table are identical for every member of a
/// group, so they are reference-counted and shared between the `k`
/// memberships instead of deep-copied `k` times at setup. Cloning shares
/// the member/identity tables and copies the keyed participant, giving
/// each in-flight transaction of a steady-state session its own DC-net
/// engine at the same group position.
#[derive(Clone, Debug)]
pub struct GroupMembership {
    /// The group members' overlay node ids, sorted ascending (shared
    /// between all members of the group).
    pub members: Rc<[NodeId]>,
    /// This node's index within `members`.
    pub own_index: usize,
    /// The members' public identities (same order as `members`), used for
    /// the virtual-source election (shared between all members).
    pub identities: Rc<[Identity]>,
    /// The keyed DC-net participant holding the pairwise pad generators.
    pub participant: KeyedParticipant,
}

/// State of the phase-1 DC-net engine on one node.
#[derive(Debug, Default)]
struct DcState {
    /// Payload waiting to be injected into a round.
    pending_payload: Option<Vec<u8>>,
    /// Whether the pending payload should skip the next round (collision
    /// back-off).
    backoff: bool,
    /// Round number of the next round this node will start.
    next_round: u64,
    /// Rounds this node has participated in so far.
    rounds_started: u64,
    /// Contributions received per round, keyed by round → member index.
    /// A round's entry is removed (and its buffers recycled into the
    /// node's scratch pool) as soon as the round resolves, so this map
    /// only holds in-flight rounds.
    received: BTreeMap<u64, BTreeMap<usize, Vec<u8>>>,
    /// Rounds whose outcome has already been resolved.
    resolved: BTreeMap<u64, SlotOutcome>,
    /// Whether this node injected its payload into the given round.
    injected_in: Option<u64>,
}

/// Phase-2 infection state (cold; the hot companions — the payload-seen
/// flag, the flooding phase tag and the last processed spread round — live
/// in the driver's hot lanes, accessed through [`HotLanes::seen`](fnp_proto::HotLanes::seen),
/// [`HotLanes::phase`](fnp_proto::HotLanes::phase) and [`HotLanes::counter_lane`](fnp_proto::HotLanes::counter_lane)).
#[derive(Debug, Default, Clone)]
struct AdState {
    parent: Option<NodeId>,
    children: Vec<NodeId>,
    token: Option<AdToken>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct AdToken {
    t: u32,
    h: u32,
    round: u32,
    received_from: Option<NodeId>,
}

/// A node running the flexible three-phase broadcast protocol.
#[derive(Debug)]
pub struct FlexNode {
    config: FlexConfig,
    group: Option<GroupMembership>,
    dc: DcState,
    /// Pool the DC-round slot buffers (own contributions, combine
    /// accumulators) are drawn from. The harness shares one pool between
    /// all nodes of a trial and carries it across trials in the arena.
    scratch: Rc<RefCell<RoundScratch>>,
    /// The transaction payload once this node knows it. Presence is
    /// mirrored in the hot seen lane; handlers test [`HotLanes::seen`](fnp_proto::HotLanes::seen)
    /// instead of probing this option.
    payload: Option<Vec<u8>>,
    ad: AdState,
    /// True if this node originated the broadcast.
    is_origin: bool,
}

impl FlexNode {
    /// Creates a node. `group` is `None` for nodes that are not part of any
    /// DC-net group in this experiment (they still relay phases 2 and 3).
    pub fn new(config: FlexConfig, group: Option<GroupMembership>) -> Self {
        Self::with_scratch(config, group, Rc::new(RefCell::new(RoundScratch::new())))
    }

    /// Like [`FlexNode::new`], but drawing DC-round slot buffers from
    /// `scratch` — a pool the caller shares between all nodes of a trial
    /// (and, via the experiment harness, across trials on one worker).
    pub fn with_scratch(
        config: FlexConfig,
        group: Option<GroupMembership>,
        scratch: Rc<RefCell<RoundScratch>>,
    ) -> Self {
        Self {
            config,
            group,
            dc: DcState::default(),
            scratch,
            payload: None,
            ad: AdState::default(),
            is_origin: false,
        }
    }

    /// Whether this node has learned the transaction.
    pub fn has_payload(&self) -> bool {
        self.payload.is_some()
    }

    /// Whether this node originated the broadcast.
    pub fn is_origin(&self) -> bool {
        self.is_origin
    }

    /// Whether this node currently holds the phase-2 virtual-source token.
    pub fn holds_token(&self) -> bool {
        self.ad.token.is_some()
    }

    /// The node's group members (empty if it belongs to no group).
    pub fn group_members(&self) -> &[NodeId] {
        self.group
            .as_ref()
            .map(|group| &group.members[..])
            .unwrap_or(&[])
    }

    /// Queues `payload` for anonymous broadcast from this node.
    ///
    /// Under the simulator, call through [`fnp_netsim::Simulator::trigger`].
    /// The payload is injected into the next DC-net round of the node's
    /// group; if the node belongs to no group it falls back to
    /// flood-and-prune directly (no anonymity, but delivery is preserved).
    pub fn start_broadcast(
        &mut self,
        payload: Vec<u8>,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        self.is_origin = true;
        view.set_seen();
        self.payload = Some(payload.clone());
        self.deliver(out);
        if self.group.is_some() {
            out.record("flex-origin-queued");
            self.dc.pending_payload = Some(payload);
        } else {
            // Degenerate fallback: no group, no anonymity — flood directly.
            out.record("flex-origin-no-group");
            self.start_flooding(view, out, None);
        }
    }

    fn deliver(&mut self, out: &mut Mailbox<FlexMessage>) {
        out.deliver();
    }

    /// Learns the payload (idempotent). The duplicate case is decided by
    /// the hot seen lane alone — no cold-state access.
    fn learn_payload(
        &mut self,
        payload: &[u8],
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) -> bool {
        if view.set_seen() {
            return false;
        }
        self.payload = Some(payload.to_vec());
        self.deliver(out);
        true
    }

    // ------------------------------------------------------------------
    // Phase 1: DC-net rounds
    // ------------------------------------------------------------------

    /// Starts the next DC-net round: computes this node's contribution and
    /// sends it to every other group member.
    fn run_dc_round(&mut self, view: &mut impl NodeView, out: &mut Mailbox<FlexMessage>) {
        let Some(group) = self.group.as_ref() else {
            return;
        };
        if self.dc.rounds_started >= self.config.max_dc_rounds {
            return;
        }
        let round = self.dc.next_round;
        self.dc.next_round += 1;
        self.dc.rounds_started += 1;

        // Decide whether to inject the pending payload this round.
        let inject = match (&self.dc.pending_payload, self.dc.backoff) {
            (Some(_), false) => true,
            (Some(_), true) => {
                // Skip one round, then become eligible again.
                self.dc.backoff = false;
                false
            }
            (None, _) => false,
        };
        let payload = if inject {
            self.dc.injected_in = Some(round);
            self.dc.pending_payload.clone()
        } else {
            None
        };

        // Build the contribution in a pooled buffer: the pads are XORed
        // straight into the encoded slot, with no per-pad allocation.
        let mut contribution = self.scratch.borrow_mut().checkout();
        group
            .participant
            .contribute_into(
                round,
                self.config.slot_len,
                payload.as_deref(),
                &mut contribution,
            )
            .expect("slot length validated by FlexConfig::validate");

        // Send to every other member, then record our own contribution
        // (moving the pooled buffer into the received map; it returns to
        // the pool when the round resolves).
        let own_index = group.own_index;
        for (index, member) in group.members.iter().enumerate() {
            if index == own_index {
                continue;
            }
            out.send(
                *member,
                FlexMessage::DcContribution {
                    round,
                    member_index: own_index,
                    data: contribution.clone(),
                },
            );
        }
        self.dc
            .received
            .entry(round)
            .or_default()
            .insert(own_index, contribution);
        out.record("flex-dc-rounds");

        // Schedule the next round while the budget lasts.
        if self.dc.rounds_started < self.config.max_dc_rounds {
            out.set_timer(self.config.dc_round_interval, TIMER_DC_ROUND);
        }
        self.try_resolve_round(round, view, out);
    }

    /// Stores a received contribution and resolves the round once complete.
    fn on_dc_contribution(
        &mut self,
        round: u64,
        member_index: usize,
        data: Vec<u8>,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        let Some(group) = self.group.as_ref() else {
            return;
        };
        if member_index >= group.members.len() || data.len() != self.config.slot_len {
            out.record("flex-dc-malformed");
            return;
        }
        self.dc
            .received
            .entry(round)
            .or_default()
            .insert(member_index, data);
        self.try_resolve_round(round, view, out);
    }

    /// Combines a round once all contributions are present.
    fn try_resolve_round(
        &mut self,
        round: u64,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        let Some(group) = self.group.as_ref() else {
            return;
        };
        if self.dc.resolved.contains_key(&round) {
            return;
        }
        match self.dc.received.get(&round) {
            Some(contributions) if contributions.len() >= group.members.len() => {}
            _ => return,
        }
        // The round is complete: combine the contributions in place (the
        // BTreeMap iterates members in ascending order, and XOR commutes,
        // so borrowing beats the former clone-and-collect byte for byte),
        // then recycle every buffer of the round into the shared pool.
        let contributions = self
            .dc
            .received
            .remove(&round)
            .expect("presence checked above");
        let mut scratch = self.scratch.borrow_mut();
        let mut combined = scratch.checkout();
        let outcome =
            combine_contributions_into(contributions.values().map(Vec::as_slice), &mut combined)
                .unwrap_or(SlotOutcome::Collision);
        scratch.recycle(combined);
        for contribution in contributions.into_values() {
            scratch.recycle(contribution);
        }
        drop(scratch);
        self.dc.resolved.insert(round, outcome.clone());

        match outcome {
            SlotOutcome::Silence => {
                out.record("flex-dc-silent-rounds");
            }
            SlotOutcome::Collision => {
                out.record("flex-dc-collisions");
                // If we injected into this round, back off for one round and
                // retry (the payload stays pending).
                if self.dc.injected_in == Some(round) && view.rng().gen_bool(0.5) {
                    self.dc.backoff = true;
                }
                self.dc.injected_in = None;
            }
            SlotOutcome::Message(message) => {
                out.record("flex-dc-delivered-rounds");
                // The round succeeded; if it was ours, the payload is on its way.
                if self.dc.injected_in == Some(round) {
                    if self.dc.pending_payload.as_deref() == Some(message.as_slice()) {
                        self.dc.pending_payload = None;
                    }
                    self.dc.injected_in = None;
                }
                self.learn_payload(&message, view, out);
                self.maybe_become_virtual_source(&message, view, out);
            }
        }
    }

    // ------------------------------------------------------------------
    // Transition 1 → 2: hash-based virtual-source election
    // ------------------------------------------------------------------

    /// Every group member evaluates the election; only the winner acts.
    fn maybe_become_virtual_source(
        &mut self,
        message: &[u8],
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        let Some(group) = self.group.as_ref() else {
            return;
        };
        let is_winner = match self.config.election {
            crate::config::ElectionStrategy::HashBased => {
                let digest = Sha256::digest(message);
                let Some(elected) = elect_virtual_source_index(&group.identities, &digest) else {
                    return;
                };
                out.record("flex-elections");
                elected == group.own_index
            }
            // Ablation baseline: skip the election and keep the originator as
            // the virtual source (only the originator knows it qualifies).
            crate::config::ElectionStrategy::OriginatorAsSource => {
                out.record("flex-elections");
                self.is_origin
            }
        };
        if !is_winner {
            return;
        }
        out.record("flex-elected-vs");

        // The elected member becomes the initial virtual source. The other
        // group members already know the transaction (via the DC-net), so
        // they become its first diffusion children: spread waves and the
        // eventual final-spread request flow through them.
        let own_index = group.own_index;
        let children: Vec<NodeId> = group
            .members
            .iter()
            .enumerate()
            .filter(|(index, _)| *index != own_index)
            .map(|(_, node)| *node)
            .collect();
        self.ad.parent = None;
        self.ad.children = children;
        self.ad.token = Some(AdToken {
            t: 2,
            h: 1,
            round: 0,
            received_from: None,
        });
        view.mark_round_seen(0);

        // Immediately run the first diffusion expansion around the group,
        // then pace further rounds with the timer.
        self.grow_frontier(0, &[], view, out);
        self.forward_spread(0, &[], out);
        out.set_timer(self.config.ad_round_interval, TIMER_AD_ROUND);
    }

    // ------------------------------------------------------------------
    // Phase 2: adaptive diffusion
    // ------------------------------------------------------------------

    fn payload_clone(&self) -> Vec<u8> {
        self.payload.clone().unwrap_or_default()
    }

    /// Sends infections to neighbours that are neither parent nor children.
    fn grow_frontier(
        &mut self,
        round: u32,
        excluded: &[NodeId],
        view: &impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        if view.phase() == PHASE_FLOODING {
            return;
        }
        let payload = self.payload_clone();
        let parent = self.ad.parent;
        for target in view.neighbors() {
            let target = *target;
            if Some(target) == parent
                || self.ad.children.contains(&target)
                || excluded.contains(&target)
            {
                continue;
            }
            out.send(
                target,
                FlexMessage::AdInfect {
                    round,
                    payload: payload.clone(),
                },
            );
            self.ad.children.push(target);
        }
    }

    /// Forwards a spread wave to the diffusion children.
    fn forward_spread(&self, round: u32, excluded: &[NodeId], out: &mut Mailbox<FlexMessage>) {
        for &child in &self.ad.children {
            if !excluded.contains(&child) {
                out.send(child, FlexMessage::AdSpread { round });
            }
        }
    }

    /// One virtual-source round: keep-and-spread, pass, or — once the round
    /// counter reaches `d` — trigger the switch to phase 3.
    fn run_ad_round(&mut self, view: &mut impl NodeView, out: &mut Mailbox<FlexMessage>) {
        let Some(mut token) = self.ad.token.take() else {
            return;
        };
        if view.phase() == PHASE_FLOODING {
            return;
        }
        token.t += 2;
        token.round += 1;
        out.record("flex-ad-rounds");

        if token.round > self.config.d {
            // Transition 2 → 3: the final virtual source sends the last
            // spread request, which doubles as the switch-to-flood signal.
            out.record("flex-switch-to-flood");
            self.ad.token = Some(token);
            let payload = self.payload_clone();
            for child in self.ad.children.clone() {
                out.send(
                    child,
                    FlexMessage::FinalSpread {
                        payload: payload.clone(),
                    },
                );
            }
            self.start_flooding(view, out, None);
            return;
        }

        let keep = view
            .rng()
            .gen_bool(self.config.schedule.keep_probability(token.t, token.h));
        if keep {
            out.record("flex-ad-keep");
            let round = token.round;
            view.mark_round_seen(round);
            self.ad.token = Some(token);
            self.forward_spread(round, &[], out);
            self.grow_frontier(round, &[], view, out);
            out.set_timer(self.config.ad_round_interval, TIMER_AD_ROUND);
        } else {
            out.record("flex-ad-pass");
            let received_from = token.received_from;
            let candidates: Vec<NodeId> = view
                .neighbors()
                .iter()
                .copied()
                .filter(|n| Some(*n) != received_from)
                .collect();
            if candidates.is_empty() {
                let round = token.round;
                view.mark_round_seen(round);
                self.ad.token = Some(token);
                self.forward_spread(round, &[], out);
                self.grow_frontier(round, &[], view, out);
                out.set_timer(self.config.ad_round_interval, TIMER_AD_ROUND);
                return;
            }
            let next = candidates[view.rng().gen_range(0..candidates.len())];
            if !self.ad.children.contains(&next) && self.ad.parent != Some(next) {
                out.send(
                    next,
                    FlexMessage::AdInfect {
                        round: token.round,
                        payload: self.payload_clone(),
                    },
                );
                self.ad.children.push(next);
            }
            out.send(
                next,
                FlexMessage::AdToken {
                    t: token.t,
                    h: token.h + 1,
                    round: token.round,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: flood and prune
    // ------------------------------------------------------------------

    /// Switches this node to flood-and-prune and relays the transaction to
    /// its overlay neighbours (except `exclude`).
    fn start_flooding(
        &mut self,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
        exclude: Option<NodeId>,
    ) {
        if view.phase() == PHASE_FLOODING {
            return;
        }
        view.set_phase(PHASE_FLOODING);
        let payload = self.payload_clone();
        let excluded: Vec<NodeId> = exclude.into_iter().collect();
        out.broadcast(FlexMessage::Flood { payload }, &excluded);
    }
}

impl ProtocolCore for FlexNode {
    type Message = FlexMessage;

    fn poll<V: NodeView>(
        &mut self,
        input: Input<FlexMessage>,
        view: &mut V,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match input {
            Input::Init => {
                // Group members pace their periodic DC-net rounds from the
                // start of the run; a small deterministic stagger is
                // unnecessary because round numbers are carried explicitly.
                if self.group.is_some() {
                    out.set_timer(self.config.dc_round_interval, TIMER_DC_ROUND);
                }
            }
            Input::Message { from, message } => self.on_flex_message(from, message, view, out),
            Input::TimerFired { tag } => match tag {
                TIMER_DC_ROUND => self.run_dc_round(view, out),
                TIMER_AD_ROUND => self.run_ad_round(view, out),
                _ => {}
            },
        }
    }
}

impl SteadyProtocol for FlexNode {
    /// A per-transaction instance shares the node's group tables and slot
    /// scratch pool and copies the keyed participant, so each in-flight
    /// transaction runs its own DC-net rounds at the same group position.
    fn per_tx_instance(&self) -> Self {
        FlexNode::with_scratch(self.config, self.group.clone(), Rc::clone(&self.scratch))
    }

    /// Injects the transaction id as the anonymous payload.
    fn start_tx(&mut self, tx: u64, view: &mut impl NodeView, out: &mut Mailbox<FlexMessage>) {
        self.start_broadcast(tx.to_le_bytes().to_vec(), view, out);
    }

    /// Under steady-state multiplexing, `Init` (which arms the periodic
    /// DC-net rounds) runs only on instances first contacted by a DC-net
    /// contribution: exactly the originator's group members, who must pace
    /// their own rounds for the round to resolve. Instances spawned by
    /// phase-2/3 traffic skip it — they only relay.
    fn wants_init(first: &FlexMessage) -> bool {
        matches!(first, FlexMessage::DcContribution { .. })
    }
}

impl FlexNode {
    fn on_flex_message(
        &mut self,
        from: NodeId,
        message: FlexMessage,
        view: &mut impl NodeView,
        out: &mut Mailbox<FlexMessage>,
    ) {
        match message {
            FlexMessage::DcContribution {
                round,
                member_index,
                data,
            } => {
                self.on_dc_contribution(round, member_index, data, view, out);
            }
            FlexMessage::AdInfect { round, payload } => {
                if self.learn_payload(&payload, view, out) {
                    self.ad.parent = Some(from);
                }
                // Note: an already-informed node ignores repeated infections.
                let _ = round;
            }
            FlexMessage::AdSpread { round } => {
                if !view.seen() {
                    // A spread instruction without the payload can only be
                    // acted upon once the payload arrives; drop it (the next
                    // wave will reach us again through our future parent).
                    out.record("flex-spread-before-payload");
                    return;
                }
                if view.phase() == PHASE_FLOODING {
                    return;
                }
                if view.round_seen(round) {
                    return;
                }
                view.mark_round_seen(round);
                self.forward_spread(round, &[from], out);
                self.grow_frontier(round, &[from], view, out);
            }
            FlexMessage::AdToken { t, h, round } => {
                // The token always follows an infection, so the payload is
                // normally known by now.
                if !view.seen() {
                    out.record("flex-token-before-payload");
                }
                self.ad.token = Some(AdToken {
                    t,
                    h,
                    round,
                    received_from: Some(from),
                });
                view.mark_round_seen(round);
                self.forward_spread(round, &[from], out);
                self.grow_frontier(round, &[from], view, out);
                out.set_timer(self.config.ad_round_interval, TIMER_AD_ROUND);
            }
            FlexMessage::FinalSpread { payload } => {
                self.learn_payload(&payload, view, out);
                if view.phase() == PHASE_FLOODING {
                    // Already switched: the signal has been handled (and the
                    // diffusion "children" relation may contain cycles, so
                    // forwarding again could circulate the request forever).
                    return;
                }
                // Forward the switch signal through the diffusion subtree,
                // then start flooding ourselves.
                let forwarded = payload.clone();
                for child in self.ad.children.clone() {
                    if child != from {
                        out.send(
                            child,
                            FlexMessage::FinalSpread {
                                payload: forwarded.clone(),
                            },
                        );
                    }
                }
                self.start_flooding(view, out, Some(from));
            }
            FlexMessage::Flood { payload } => {
                self.learn_payload(&payload, view, out);
                if view.phase() != PHASE_FLOODING {
                    self.start_flooding(view, out, Some(from));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_without_group_floods_directly() {
        use fnp_netsim::{topology, SimConfig, Simulator, TrialArena};
        let graph = topology::ring(10).unwrap();
        let nodes = (0..10)
            .map(|_| FlexNode::new(FlexConfig::default(), None))
            .collect();
        let mut sim = Simulator::new_in(&mut TrialArena::new(), graph, nodes, SimConfig::default());
        sim.trigger(NodeId::new(0), |node, view, out| {
            node.start_broadcast(b"tx".to_vec(), view, out);
        });
        let metrics = sim.run();
        assert_eq!(metrics.coverage(), 1.0);
        assert_eq!(metrics.counter("flex-origin-no-group"), 1);
        assert!(metrics.messages_of_kind("flex-flood") > 0);
        assert_eq!(metrics.messages_of_kind("flex-dc"), 0);
    }

    #[test]
    fn accessors_on_a_fresh_node() {
        let node = FlexNode::new(FlexConfig::default(), None);
        assert!(!node.has_payload());
        assert!(!node.is_origin());
        assert!(!node.holds_token());
        assert!(node.group_members().is_empty());
    }

    // End-to-end behaviour with groups is exercised by the harness tests in
    // `crate::harness` and the cross-crate integration tests.
}
