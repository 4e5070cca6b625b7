//! The adaptive diffusion protocol as a sans-IO state machine.
//!
//! Adaptive diffusion (Fanti et al., "Spy vs. Spy: Rumor Source
//! Obfuscation") breaks the symmetry that deanonymises ordinary flooding:
//! instead of the infection ball being centred on the true source, a
//! *virtual source token* wanders away from the origin and the message is
//! always spread so that the current token holder sits at the centre of the
//! infected subgraph. An observer reconstructing the "centre" of the spread
//! therefore finds the virtual source path, not the originator.
//!
//! The protocol alternates two steps (quoted from the ICDCS paper):
//!
//! 1. *Transfer the virtual source token with probability α to a new node*;
//!    the new virtual source spreads the message in all directions besides
//!    the direction it received the token from.
//! 2. *Spread the message further, increasing the diameter of the infected
//!    subgraph* (a spread wave travels from the virtual source down the
//!    infection tree; the frontier infects its uninfected neighbours).
//!
//! The spread waves re-traverse the already-infected subtree every round,
//! which is exactly why adaptive diffusion costs more messages than plain
//! flooding (the ≈12 500 vs ≈7 000 messages for 1 000 peers reported in
//! §V-A and reproduced by experiment E6).

use crate::alpha::AlphaSchedule;
use fnp_netsim::{NodeId, Payload, SimTime, MILLISECOND};
use fnp_proto::{Input, Mailbox, NodeView, ProtocolCore, SteadyProtocol};
use rand::Rng;

/// Timer tag used by the virtual source to pace rounds.
const ROUND_TIMER: u64 = 1;

/// Wire sizes (bytes) reported for the three message types: an infection
/// carries the transaction, the other two are small control messages.
const INFECT_BYTES: usize = 256;
const SPREAD_BYTES: usize = 32;
const TOKEN_BYTES: usize = 48;

/// Messages exchanged by adaptive diffusion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AdMessage {
    /// Delivers the transaction to a previously uninfected node.
    Infect {
        /// Protocol round (even timestep / 2) in which the infection happened.
        round: u32,
    },
    /// Instructs the infected subtree to grow its frontier by one hop.
    Spread {
        /// Protocol round of the wave.
        round: u32,
    },
    /// Transfers the virtual-source token.
    Token {
        /// Even timestep of the protocol.
        t: u32,
        /// Hop distance of the *new* virtual source from the origin.
        h: u32,
        /// Rounds already executed for this message.
        round: u32,
    },
}

impl Payload for AdMessage {
    fn kind(&self) -> &'static str {
        match self {
            AdMessage::Infect { .. } => "ad-infect",
            AdMessage::Spread { .. } => "ad-spread",
            AdMessage::Token { .. } => "ad-token",
        }
    }

    fn size_bytes(&self) -> usize {
        match self {
            AdMessage::Infect { .. } => INFECT_BYTES,
            AdMessage::Spread { .. } => SPREAD_BYTES,
            AdMessage::Token { .. } => TOKEN_BYTES,
        }
    }
}

/// Parameters of an adaptive diffusion run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AdParams {
    /// Probability schedule for keeping the virtual-source token.
    pub schedule: AlphaSchedule,
    /// Maximum number of rounds the virtual source initiates. In the
    /// flexible broadcast this is the parameter `d`; for full-dissemination
    /// baselines it is set generously and the run is cut off at coverage.
    pub max_rounds: u32,
    /// Simulated time between successive rounds, chosen large enough for a
    /// spread wave to reach the frontier before the next round starts.
    pub round_interval: SimTime,
}

impl Default for AdParams {
    fn default() -> Self {
        Self {
            schedule: AlphaSchedule::default(),
            max_rounds: 32,
            round_interval: 2_000 * MILLISECOND,
        }
    }
}

/// Virtual-source token state held by at most one node at a time.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Token {
    t: u32,
    h: u32,
    round: u32,
    received_from: Option<NodeId>,
}

/// Per-node infection state (cold: touched only by the owning node's
/// handlers once the hot-lane checks have passed).
///
/// The hot companions live in the driver's hot lanes (struct-of-arrays
/// under the simulator): the [`seen` lane](fnp_proto::HotLanes::seen) mirrors
/// `is_some()` of the node's `Option<Infection>` for the
/// duplicate-infection fast path, and the
/// [`counter` lane](fnp_proto::HotLanes::counter_lane) holds the highest spread-wave
/// round already processed (encoded as `round + 1`, `0` = none), which
/// suppresses duplicate waves without touching this struct (the infection
/// "children" relation can contain cycles on general graphs, so without the
/// check a wave could circulate forever).
#[derive(Clone, Debug, Default)]
struct Infection {
    /// The node that infected us (tree parent); `None` for the origin.
    parent: Option<NodeId>,
    /// Nodes we have infected (tree children).
    children: Vec<NodeId>,
    /// The virtual-source token, if currently held.
    token: Option<Token>,
}

/// A node running adaptive diffusion.
#[derive(Clone, Debug)]
pub struct AdaptiveDiffusionNode {
    params: AdParams,
    infection: Option<Infection>,
    /// Set when this node was the true origin of the broadcast.
    is_origin: bool,
}

impl AdaptiveDiffusionNode {
    /// Creates an idle (uninfected) node.
    pub fn new(params: AdParams) -> Self {
        Self {
            params,
            infection: None,
            is_origin: false,
        }
    }

    /// Whether this node has received the message.
    pub fn is_infected(&self) -> bool {
        self.infection.is_some()
    }

    /// Whether this node was the broadcast origin.
    pub fn is_origin(&self) -> bool {
        self.is_origin
    }

    /// Whether this node currently holds the virtual-source token.
    pub fn holds_token(&self) -> bool {
        self.infection
            .as_ref()
            .is_some_and(|state| state.token.is_some())
    }

    /// The node that infected this node, if any (the infection-tree parent).
    pub fn infection_parent(&self) -> Option<NodeId> {
        self.infection.as_ref().and_then(|state| state.parent)
    }

    /// Starts a broadcast from this node. Under the simulator, call through
    /// [`fnp_netsim::Simulator::trigger`] on the origin node.
    ///
    /// Following Fanti et al., the origin infects one random neighbour and
    /// immediately hands it the virtual-source token, so the origin itself
    /// never acts as the centre of the spread.
    pub fn start_broadcast(&mut self, view: &mut impl NodeView, out: &mut Mailbox<AdMessage>) {
        if view.set_seen() {
            return;
        }
        self.is_origin = true;
        let mut infection = Infection::default();
        out.deliver();
        out.record("ad-origin");

        let neighbors = view.neighbors().to_vec();
        if neighbors.is_empty() {
            self.infection = Some(infection);
            return;
        }
        let first = neighbors[view.rng().gen_range(0..neighbors.len())];
        out.send(first, AdMessage::Infect { round: 0 });
        out.send(
            first,
            AdMessage::Token {
                t: 2,
                h: 1,
                round: 0,
            },
        );
        infection.children.push(first);
        self.infection = Some(infection);
    }

    /// Becomes infected (idempotent); returns `true` on the first infection.
    ///
    /// The duplicate case — the hottest branch of the protocol, hit by
    /// every redundant `Infect`/`Spread` delivery — is decided entirely by
    /// the dense seen lane without loading this node's cold state.
    fn infect(
        &mut self,
        parent: Option<NodeId>,
        view: &mut impl NodeView,
        out: &mut Mailbox<AdMessage>,
    ) -> bool {
        if view.set_seen() {
            return false;
        }
        self.infection = Some(Infection {
            parent,
            children: Vec::new(),
            token: None,
        });
        out.deliver();
        true
    }

    /// Sends infections to all uninfected-looking neighbours (those that are
    /// neither our parent nor already our children), excluding `excluded`.
    fn grow_frontier(
        &mut self,
        round: u32,
        excluded: &[NodeId],
        view: &impl NodeView,
        out: &mut Mailbox<AdMessage>,
    ) {
        let Some(infection) = self.infection.as_mut() else {
            return;
        };
        let parent = infection.parent;
        for target in view.neighbors() {
            let target = *target;
            if Some(target) == parent
                || infection.children.contains(&target)
                || excluded.contains(&target)
            {
                continue;
            }
            out.send(target, AdMessage::Infect { round });
            infection.children.push(target);
        }
    }

    /// Forwards a spread wave to the infection-tree children.
    fn forward_spread(&self, round: u32, excluded: &[NodeId], out: &mut Mailbox<AdMessage>) {
        let Some(infection) = self.infection.as_ref() else {
            return;
        };
        for &child in &infection.children {
            if !excluded.contains(&child) {
                out.send(child, AdMessage::Spread { round });
            }
        }
    }

    /// Executes one virtual-source round: keep (and spread) or pass.
    fn run_round(&mut self, view: &mut impl NodeView, out: &mut Mailbox<AdMessage>) {
        let Some(infection) = self.infection.as_mut() else {
            return;
        };
        let Some(mut token) = infection.token.take() else {
            return;
        };
        token.t += 2;
        token.round += 1;
        out.record("ad-rounds");

        if token.round > self.params.max_rounds {
            // The final virtual source simply stops (it keeps the token but
            // schedules no further rounds); the flexible broadcast protocol
            // (fnp-core) instead switches to flood-and-prune here.
            infection.token = Some(token);
            out.record("ad-finished");
            return;
        }

        let keep_probability = self.params.schedule.keep_probability(token.t, token.h);
        let keep = view.rng().gen_bool(keep_probability);

        if keep {
            out.record("ad-keep");
            let round = token.round;
            infection.token = Some(token);
            view.mark_round_seen(round);
            self.forward_spread(round, &[], out);
            self.grow_frontier(round, &[], view, out);
            out.set_timer(self.params.round_interval, ROUND_TIMER);
        } else {
            out.record("ad-pass");
            // Pass the token to a random neighbour other than the one we got
            // it from. If no such neighbour exists we keep it instead.
            let received_from = token.received_from;
            let candidates: Vec<NodeId> = view
                .neighbors()
                .iter()
                .copied()
                .filter(|n| Some(*n) != received_from)
                .collect();
            if candidates.is_empty() {
                let round = token.round;
                infection.token = Some(token);
                view.mark_round_seen(round);
                self.forward_spread(round, &[], out);
                self.grow_frontier(round, &[], view, out);
                out.set_timer(self.params.round_interval, ROUND_TIMER);
                return;
            }
            let next = candidates[view.rng().gen_range(0..candidates.len())];
            if !infection.children.contains(&next) && infection.parent != Some(next) {
                out.send(next, AdMessage::Infect { round: token.round });
                infection.children.push(next);
            }
            out.send(
                next,
                AdMessage::Token {
                    t: token.t,
                    h: token.h + 1,
                    round: token.round,
                },
            );
            // This node no longer holds the token and schedules no timers.
        }
    }
}

impl ProtocolCore for AdaptiveDiffusionNode {
    type Message = AdMessage;

    fn poll<V: NodeView>(
        &mut self,
        input: Input<AdMessage>,
        view: &mut V,
        out: &mut Mailbox<AdMessage>,
    ) {
        match input {
            Input::Init => {}
            Input::Message { from, message } => match message {
                AdMessage::Infect { .. } => {
                    self.infect(Some(from), view, out);
                }
                AdMessage::Spread { round } => {
                    // A spread wave: make sure we are infected, pass it on to
                    // our subtree and grow the frontier around us. Each wave
                    // (round) is processed at most once per node — tracked in
                    // the hot counter lane — so that cycles in the infection
                    // relation cannot circulate a wave indefinitely.
                    self.infect(Some(from), view, out);
                    if view.round_seen(round) {
                        return;
                    }
                    view.mark_round_seen(round);
                    self.forward_spread(round, &[from], out);
                    self.grow_frontier(round, &[from], view, out);
                }
                AdMessage::Token { t, h, round } => {
                    self.infect(Some(from), view, out);
                    view.mark_round_seen(round);
                    let infection = self.infection.as_mut().expect("infected above");
                    infection.token = Some(Token {
                        t,
                        h,
                        round,
                        received_from: Some(from),
                    });
                    // The new virtual source spreads in every direction except
                    // the one the token came from, then paces further rounds.
                    self.forward_spread(round, &[from], out);
                    self.grow_frontier(round, &[from], view, out);
                    out.set_timer(self.params.round_interval, ROUND_TIMER);
                }
            },
            Input::TimerFired { tag } => {
                if tag == ROUND_TIMER {
                    self.run_round(view, out);
                }
            }
        }
    }
}

impl SteadyProtocol for AdaptiveDiffusionNode {
    fn per_tx_instance(&self) -> Self {
        AdaptiveDiffusionNode::new(self.params)
    }

    fn start_tx(&mut self, _tx: u64, view: &mut impl NodeView, out: &mut Mailbox<AdMessage>) {
        // Adaptive diffusion messages deliberately carry no transaction id
        // (source obfuscation); the steady-state wrapper's tag does the
        // demultiplexing.
        self.start_broadcast(view, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::{topology, LatencyModel, SimConfig, Simulator, TrialArena};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn run(
        n: usize,
        degree: usize,
        params: AdParams,
        seed: u64,
    ) -> (Simulator<AdaptiveDiffusionNode>, fnp_netsim::Metrics) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(n, degree, &mut rng).unwrap();
        let nodes = (0..n).map(|_| AdaptiveDiffusionNode::new(params)).collect();
        let mut sim = Simulator::new_in(
            &mut TrialArena::new(),
            graph,
            nodes,
            SimConfig {
                seed,
                record_trace: true,
                latency: LatencyModel::Uniform {
                    min: 10 * MILLISECOND,
                    max: 50 * MILLISECOND,
                },
                ..SimConfig::default()
            },
        );
        sim.trigger(NodeId::new(0), |node, view, out| {
            node.start_broadcast(view, out)
        });
        let metrics = sim.run().clone();
        (sim, metrics)
    }

    #[test]
    fn steady_diffusion_broadcasts_overlap_and_complete() {
        use fnp_proto::steady::{run_steady_in, Arrival};
        let n = 30;
        let mut rng = StdRng::seed_from_u64(5);
        let graph = topology::random_regular(n, 6, &mut rng).unwrap();
        let params = AdParams {
            max_rounds: 64,
            ..AdParams::default()
        };
        let prototypes: Vec<AdaptiveDiffusionNode> =
            (0..n).map(|_| AdaptiveDiffusionNode::new(params)).collect();
        let arrivals = [
            Arrival {
                at: 1,
                origin: NodeId::new(4),
            },
            Arrival {
                at: 100 * MILLISECOND,
                origin: NodeId::new(21),
            },
        ];
        let (_, report) = run_steady_in(
            &mut TrialArena::new(),
            graph,
            prototypes,
            &arrivals,
            &[NodeId::new(11)],
            2,
            SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
        );
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            // Adaptive diffusion with generous rounds infects everyone.
            assert_eq!(outcome.delivered_count, n, "tx {tx} did not cover");
            assert!(outcome.completed_at.is_some(), "tx {tx} never drained");
        }
        assert!(report.peak_concurrent >= 2, "spreads should overlap");
    }

    #[test]
    fn message_kinds_and_sizes() {
        assert_eq!(AdMessage::Infect { round: 1 }.kind(), "ad-infect");
        assert_eq!(AdMessage::Spread { round: 1 }.kind(), "ad-spread");
        assert_eq!(
            AdMessage::Token {
                t: 2,
                h: 1,
                round: 1
            }
            .kind(),
            "ad-token"
        );
        assert_eq!(AdMessage::Infect { round: 1 }.size_bytes(), 256);
        assert!(AdMessage::Spread { round: 1 }.size_bytes() < 256);
    }

    #[test]
    fn diffusion_spreads_beyond_the_origin() {
        let params = AdParams {
            max_rounds: 6,
            ..AdParams::default()
        };
        let (_, metrics) = run(100, 4, params, 1);
        // After 6 rounds a meaningful portion of a 100-node graph is infected.
        assert!(
            metrics.delivered_count() > 10,
            "only {}",
            metrics.delivered_count()
        );
        assert!(metrics.messages_of_kind("ad-infect") > 0);
        assert!(metrics.messages_of_kind("ad-token") >= 1);
        assert_eq!(metrics.counter("ad-origin"), 1);
    }

    #[test]
    fn full_dissemination_with_generous_round_budget() {
        let params = AdParams {
            max_rounds: 64,
            ..AdParams::default()
        };
        let (_, metrics) = run(100, 4, params, 2);
        assert_eq!(
            metrics.coverage(),
            1.0,
            "delivered {}",
            metrics.delivered_count()
        );
    }

    #[test]
    fn overhead_exceeds_flooding_like_lower_bound() {
        // Plain flooding on n nodes needs at least n − 1 deliveries; adaptive
        // diffusion's repeated spread waves must cost strictly more messages
        // than that on any non-trivial run that reaches everyone.
        let params = AdParams {
            max_rounds: 64,
            ..AdParams::default()
        };
        let (_, metrics) = run(120, 4, params, 3);
        assert_eq!(metrics.coverage(), 1.0);
        assert!(metrics.messages_sent > 119);
    }

    #[test]
    fn origin_is_not_the_final_token_holder_usually() {
        // The virtual source wanders away from the origin; with AlwaysPass it
        // moves every round, so after several rounds the token is elsewhere.
        let params = AdParams {
            schedule: AlphaSchedule::AlwaysPass,
            max_rounds: 8,
            ..AdParams::default()
        };
        let (sim, _) = run(80, 4, params, 4);
        assert!(!sim.node(NodeId::new(0)).holds_token());
    }

    #[test]
    fn never_pass_keeps_token_at_first_virtual_source() {
        let params = AdParams {
            schedule: AlphaSchedule::NeverPass,
            max_rounds: 5,
            ..AdParams::default()
        };
        let (sim, metrics) = run(60, 4, params, 5);
        // Exactly one token transfer: origin → first virtual source.
        assert_eq!(metrics.messages_of_kind("ad-token"), 1);
        let holders = sim.nodes().iter().filter(|n| n.holds_token()).count();
        assert_eq!(holders, 1);
    }

    #[test]
    fn always_pass_creates_a_token_chain() {
        let params = AdParams {
            schedule: AlphaSchedule::AlwaysPass,
            max_rounds: 6,
            ..AdParams::default()
        };
        let (_, metrics) = run(60, 4, params, 6);
        // One transfer from the origin plus one per executed round (minus the
        // final round, which only marks completion).
        assert!(metrics.messages_of_kind("ad-token") >= 5);
        assert_eq!(metrics.counter("ad-keep"), 0);
    }

    #[test]
    fn round_counter_stops_at_max_rounds() {
        let params = AdParams {
            max_rounds: 3,
            ..AdParams::default()
        };
        let (_, metrics) = run(60, 4, params, 7);
        assert!(metrics.counter("ad-rounds") <= 4);
        assert_eq!(metrics.counter("ad-finished"), 1);
    }

    #[test]
    fn runs_are_deterministic() {
        let params = AdParams::default();
        let (_, a) = run(50, 4, params, 42);
        let (_, b) = run(50, 4, params, 42);
        assert_eq!(a.messages_sent, b.messages_sent);
        assert_eq!(a.delivered_at, b.delivered_at);
    }

    #[test]
    fn node_accessors() {
        let node = AdaptiveDiffusionNode::new(AdParams::default());
        assert!(!node.is_infected());
        assert!(!node.is_origin());
        assert!(!node.holds_token());
        assert_eq!(node.infection_parent(), None);
    }

    #[test]
    fn isolated_origin_does_not_panic() {
        let graph = fnp_netsim::Graph::new(1);
        let nodes = vec![AdaptiveDiffusionNode::new(AdParams::default())];
        let mut sim = Simulator::new_in(&mut TrialArena::new(), graph, nodes, SimConfig::default());
        sim.trigger(NodeId::new(0), |node, view, out| {
            node.start_broadcast(view, out)
        });
        let metrics = sim.run();
        assert_eq!(metrics.delivered_count(), 1);
        assert_eq!(metrics.messages_sent, 0);
    }
}
