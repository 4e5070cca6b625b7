//! Steady-state sessions: many overlapping broadcasts on one simulator.
//!
//! Every single-broadcast experiment gives the whole overlay to one
//! transaction: one seen bit per node, one protocol instance per node, one
//! delivery per node. Under sustained traffic those assumptions all break —
//! transactions overlap in flight and their duplicate-suppression state,
//! protocol state machines and delivery records must not collide.
//!
//! This module multiplexes any single-broadcast [`ProtocolCore`] into a
//! heavy-traffic session without touching the core's logic:
//!
//! * [`Tagged`] wraps the core's message type with a transaction id, so
//!   concurrent broadcasts share the wire but never each other's handlers.
//! * [`SteadyProtocol`] is the small adapter trait a core implements to
//!   become multiplexable: spawn a fresh per-transaction instance, and
//!   start a broadcast for a given transaction id.
//! * [`SteadyNode`] is the per-overlay-node multiplexer: it owns one lazy
//!   [`ProtocolCore`] instance per transaction the node has touched, routes
//!   each tagged input to the right instance, and rewrites the emitted
//!   effects (tagging messages, namespacing timer tags by transaction).
//! * [`SteadySession`] is the shared per-trial bookkeeping: a
//!   [`LanePool`] of per-transaction hot lanes, exact in-flight event
//!   accounting per transaction (each message and pending timer counts;
//!   when a transaction's count drains to zero its lanes are recycled),
//!   the delivery log that feeds latency percentiles and the mempool
//!   replay, and the first-spy observation record for privacy-under-load.
//!
//! Arrivals are precomputed (see [`fnp_netsim::arrival`]) and scheduled as
//! ordinary timers at `Init`, so the whole session rides the existing time
//! wheel: a steady-state trial is a pure function of its seed, and rows are
//! byte-identical at any worker-thread count.
//!
//! The in-flight accounting assumes no event loss: steady sessions run
//! without churn and without an event/time cap, which the experiment
//! drivers uphold. (With message loss a transaction's counter would never
//! reach zero and its lanes would simply stay live until the trial ends —
//! results stay correct, only the recycling stalls.)

use fnp_netsim::{
    Effect, Graph, HotLanes, HotState, Input, LanePool, Mailbox, Metrics, NodeId, NodeView,
    Payload, ProtocolCore, SimConfig, SimTime, Simulator, TrialArena,
};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Extra wire bytes accounted for the transaction tag a steady-state
/// session adds to every message.
pub const TX_TAG_BYTES: usize = 8;

/// Bits of a timer tag reserved for the inner core's own tag (slot 0 is
/// the arrival timer, inner tags are stored shifted by one).
const TAG_SLOT_BITS: u32 = 16;
const TAG_SLOT_MASK: u64 = (1 << TAG_SLOT_BITS) - 1;

/// A protocol message carrying the id of the transaction it belongs to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Tagged<M> {
    /// The transaction this message disseminates.
    pub tx: u64,
    /// The wrapped single-broadcast protocol message.
    pub inner: M,
}

impl<M: Payload> Payload for Tagged<M> {
    fn kind(&self) -> &'static str {
        self.inner.kind()
    }

    fn size_bytes(&self) -> usize {
        self.inner.size_bytes() + TX_TAG_BYTES
    }
}

/// Adapter trait a single-broadcast [`ProtocolCore`] implements to become
/// multiplexable by a [`SteadyNode`].
pub trait SteadyProtocol: ProtocolCore + Sized {
    /// Spawns a fresh per-transaction instance of this core.
    ///
    /// Called on the *prototype* instance a node was constructed with
    /// (which is never polled itself); the spawn must preserve the node's
    /// per-node configuration — parameters, stem successor, group
    /// membership, shared scratch pools — while starting from pristine
    /// protocol state.
    fn per_tx_instance(&self) -> Self;

    /// Starts broadcasting transaction `tx` from this node, exactly like
    /// the core's single-broadcast entry point.
    fn start_tx(&mut self, tx: u64, view: &mut impl NodeView, out: &mut Mailbox<Self::Message>);

    /// Whether a receiver-side instance whose first contact with the
    /// transaction is `message` needs [`Input::Init`] polled before the
    /// message is delivered.
    ///
    /// Defaults to `false`: for most cores `Init` is a no-op on receivers.
    /// The flexible broadcast overrides this for DC-net contributions, so
    /// that exactly the originator's group — and no other — runs phase-1
    /// rounds for the transaction.
    fn wants_init(_first: &Self::Message) -> bool {
        false
    }
}

/// One scheduled transaction injection.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Arrival {
    /// Simulation time of the injection (strictly positive).
    pub at: SimTime,
    /// The injecting node.
    pub origin: NodeId,
}

/// Final per-transaction outcome extracted from a finished session.
#[derive(Clone, Debug)]
pub struct TxOutcome {
    /// The injecting node.
    pub origin: NodeId,
    /// Injection time.
    pub injected_at: SimTime,
    /// Number of nodes that delivered (accepted) the transaction.
    pub delivered_count: usize,
    /// Earliest delivery on a miner node (node index below the session's
    /// miner count), if any — what the mempool replay consumes.
    pub first_miner_delivery: Option<SimTime>,
    /// The sender of the first message any adversary node received for
    /// this transaction (the first-spy estimate), if one was observed.
    pub first_spy_estimate: Option<NodeId>,
    /// Time at which the transaction's last in-flight event drained.
    pub completed_at: Option<SimTime>,
}

/// Report of one finished steady-state session.
#[derive(Clone, Debug)]
pub struct SteadyReport {
    /// Per-transaction outcomes, indexed by transaction id.
    pub per_tx: Vec<TxOutcome>,
    /// Delivery latency of every `(transaction, node)` delivery, in
    /// microseconds since the transaction's injection, in delivery order.
    pub latencies_us: Vec<u64>,
    /// High-water mark of transactions simultaneously in flight.
    pub peak_concurrent: usize,
}

/// Per-transaction live bookkeeping.
#[derive(Clone, Debug)]
struct TxState {
    /// Events (messages in flight + pending timers) that will still arrive
    /// as inputs for this transaction. Starts at 1: the arrival timer.
    inflight: u64,
    injected_at: SimTime,
    origin: NodeId,
    delivered_count: usize,
    first_miner_delivery: Option<SimTime>,
    first_spy_estimate: Option<NodeId>,
    completed_at: Option<SimTime>,
}

/// Shared per-trial session state (one per simulation, behind
/// `Rc<RefCell<…>>` — the simulator is single-threaded).
#[derive(Debug)]
pub struct SteadySession {
    lanes: LanePool,
    txs: Vec<TxState>,
    /// Live per-transaction lane sets.
    active: BTreeMap<u64, HotState>,
    /// Transactions whose last event drained, in retirement order; nodes
    /// consume this with a cursor to drop their retired instances.
    retired: Vec<u64>,
    adversary: Vec<bool>,
    miner_count: usize,
    latencies_us: Vec<u64>,
}

impl SteadySession {
    /// Builds the session bookkeeping for an `n`-node overlay.
    #[must_use]
    pub fn new(n: usize, arrivals: &[Arrival], adversaries: &[NodeId], miner_count: usize) -> Self {
        let mut adversary = vec![false; n];
        for node in adversaries {
            adversary[node.index()] = true;
        }
        let txs = arrivals
            .iter()
            .map(|arrival| TxState {
                inflight: 1,
                injected_at: arrival.at,
                origin: arrival.origin,
                delivered_count: 0,
                first_miner_delivery: None,
                first_spy_estimate: None,
                completed_at: None,
            })
            .collect();
        Self {
            lanes: LanePool::new(n),
            txs,
            active: BTreeMap::new(),
            retired: Vec::new(),
            adversary,
            miner_count,
            latencies_us: Vec::new(),
        }
    }

    #[allow(clippy::cast_possible_truncation)] // tx ids are dense indices
    fn tx(&mut self, tx: u64) -> &mut TxState {
        &mut self.txs[tx as usize]
    }

    fn record_delivery(&mut self, tx: u64, node: NodeId, now: SimTime) {
        let miner_count = self.miner_count;
        let state = self.tx(tx);
        state.delivered_count += 1;
        if node.index() < miner_count && state.first_miner_delivery.is_none() {
            state.first_miner_delivery = Some(now);
        }
        let latency = now.saturating_sub(state.injected_at);
        self.latencies_us.push(latency);
    }

    fn observe(&mut self, tx: u64, receiver: NodeId, from: NodeId) {
        if !self.adversary[receiver.index()] {
            return;
        }
        let state = self.tx(tx);
        if state.first_spy_estimate.is_none() {
            state.first_spy_estimate = Some(from);
        }
    }

    /// Consumes the finished session into its report.
    #[must_use]
    pub fn into_report(self) -> SteadyReport {
        SteadyReport {
            peak_concurrent: self.lanes.peak_live(),
            per_tx: self
                .txs
                .into_iter()
                .map(|state| TxOutcome {
                    origin: state.origin,
                    injected_at: state.injected_at,
                    delivered_count: state.delivered_count,
                    first_miner_delivery: state.first_miner_delivery,
                    first_spy_estimate: state.first_spy_estimate,
                    completed_at: state.completed_at,
                })
                .collect(),
            latencies_us: self.latencies_us,
        }
    }
}

/// The event a tagged input decodes to.
enum TxEvent<M> {
    /// The node's own arrival timer fired: inject the transaction.
    Arrival,
    /// A tagged protocol message arrived.
    Message {
        /// Sending node.
        from: NodeId,
        /// The unwrapped inner message.
        message: M,
    },
    /// A namespaced protocol timer fired.
    Timer {
        /// The inner core's original tag.
        tag: u64,
    },
}

/// Per-node multiplexer running one lazy [`SteadyProtocol`] instance per
/// transaction over a shared [`SteadySession`].
#[derive(Debug)]
pub struct SteadyNode<C: SteadyProtocol> {
    prototype: C,
    /// Live per-transaction instances; the bool records whether `Init` has
    /// been polled on the instance.
    instances: BTreeMap<u64, (C, bool)>,
    session: Rc<RefCell<SteadySession>>,
    /// Injections this node performs, as `(at, tx)` timer schedules.
    arrivals: Vec<(SimTime, u64)>,
    /// Reused inner mailbox (drained into the outer one after every poll).
    inner: Mailbox<C::Message>,
    /// Cursor into the session's retirement log.
    pruned: usize,
}

impl<C: SteadyProtocol> SteadyNode<C> {
    /// Builds the multiplexer for one overlay node.
    ///
    /// `prototype` is the node's configured single-broadcast core; it is
    /// never polled, only [`SteadyProtocol::per_tx_instance`]d. `arrivals`
    /// are the injections scheduled on this node.
    pub fn new(
        prototype: C,
        session: Rc<RefCell<SteadySession>>,
        arrivals: Vec<(SimTime, u64)>,
    ) -> Self {
        Self {
            prototype,
            instances: BTreeMap::new(),
            session,
            arrivals,
            inner: Mailbox::new(),
            pruned: 0,
        }
    }

    /// The number of transaction instances currently alive on this node.
    #[must_use]
    pub fn live_instances(&self) -> usize {
        self.instances.len()
    }

    fn handle<V: NodeView>(
        &mut self,
        tx: u64,
        event: TxEvent<C::Message>,
        view: &mut V,
        out: &mut Mailbox<Tagged<C::Message>>,
    ) {
        // Prologue: consume the input in the session's in-flight
        // accounting, check the transaction's lanes out, drop instances of
        // transactions retired since this node was last polled.
        let mut lane = {
            let mut sess = self.session.borrow_mut();
            for &retired in &sess.retired[self.pruned..] {
                self.instances.remove(&retired);
            }
            self.pruned = sess.retired.len();
            {
                let state = sess.tx(tx);
                debug_assert!(state.inflight > 0, "input for a drained transaction");
                state.inflight -= 1;
            }
            if let TxEvent::Message { from, .. } = &event {
                sess.observe(tx, view.node_id(), *from);
            }
            match event {
                TxEvent::Arrival => sess.lanes.acquire(),
                _ => sess
                    .active
                    .remove(&tx)
                    .expect("live transaction has lanes checked in"),
            }
        };

        // Poll the transaction's instance against its own lanes.
        debug_assert!(self.inner.is_empty());
        let node = view.node_id();
        {
            let mut lane_view = LaneView {
                lane: &mut lane,
                node,
                view,
            };
            match event {
                TxEvent::Arrival => {
                    let mut instance = self.prototype.per_tx_instance();
                    instance.poll(Input::Init, &mut lane_view, &mut self.inner);
                    instance.start_tx(tx, &mut lane_view, &mut self.inner);
                    self.instances.insert(tx, (instance, true));
                }
                TxEvent::Message { from, message } => {
                    if !self.instances.contains_key(&tx) {
                        let instance = self.prototype.per_tx_instance();
                        self.instances.insert(tx, (instance, false));
                    }
                    let (instance, inited) = self
                        .instances
                        .get_mut(&tx)
                        .expect("inserted above if absent");
                    if !*inited && C::wants_init(&message) {
                        instance.poll(Input::Init, &mut lane_view, &mut self.inner);
                        *inited = true;
                    }
                    instance.poll(
                        Input::Message { from, message },
                        &mut lane_view,
                        &mut self.inner,
                    );
                }
                TxEvent::Timer { tag } => {
                    // Only a live instance can have set the timer.
                    if let Some((instance, _)) = self.instances.get_mut(&tx) {
                        instance.poll(Input::TimerFired { tag }, &mut lane_view, &mut self.inner);
                    }
                }
            }
        }

        // Epilogue: translate the inner effects onto the shared wire and
        // settle the transaction's in-flight balance.
        let now = view.now();
        let mut sess = self.session.borrow_mut();
        for effect in self.inner.drain() {
            match effect {
                Effect::Send { to, message } => {
                    sess.tx(tx).inflight += 1;
                    out.send(to, Tagged { tx, inner: message });
                }
                Effect::Broadcast { message, excluded } => {
                    let fanout = view
                        .neighbors()
                        .iter()
                        .filter(|neighbor| !excluded.contains(neighbor))
                        .count() as u64;
                    sess.tx(tx).inflight += fanout;
                    out.push(Effect::Broadcast {
                        message: Tagged { tx, inner: message },
                        excluded,
                    });
                }
                Effect::SetTimer { delay, tag } => {
                    sess.tx(tx).inflight += 1;
                    out.set_timer(delay, encode_timer(tx, tag));
                }
                Effect::Deliver => sess.record_delivery(tx, node, now),
                Effect::Counter { name, amount } => out.record_many(name, amount),
            }
        }
        if sess.tx(tx).inflight == 0 {
            sess.tx(tx).completed_at = Some(now);
            sess.lanes.release(lane);
            sess.retired.push(tx);
        } else {
            sess.active.insert(tx, lane);
        }
    }
}

/// Encodes an inner timer tag into the shared timer-tag namespace.
fn encode_timer(tx: u64, tag: u64) -> u64 {
    assert!(
        tag < TAG_SLOT_MASK,
        "inner timer tag {tag} exceeds the steady-session tag namespace"
    );
    (tx << TAG_SLOT_BITS) | (tag + 1)
}

impl<C: SteadyProtocol> ProtocolCore for SteadyNode<C> {
    type Message = Tagged<C::Message>;

    fn poll<V: NodeView>(
        &mut self,
        input: Input<Self::Message>,
        view: &mut V,
        out: &mut Mailbox<Self::Message>,
    ) {
        match input {
            Input::Init => {
                // Schedule this node's injections; each arrival was already
                // counted as one in-flight event at session construction.
                for (at, tx) in std::mem::take(&mut self.arrivals) {
                    out.set_timer(at, tx << TAG_SLOT_BITS);
                }
            }
            Input::Message { from, message } => {
                let Tagged { tx, inner } = message;
                self.handle(
                    tx,
                    TxEvent::Message {
                        from,
                        message: inner,
                    },
                    view,
                    out,
                );
            }
            Input::TimerFired { tag } => {
                let tx = tag >> TAG_SLOT_BITS;
                let slot = tag & TAG_SLOT_MASK;
                let event = if slot == 0 {
                    TxEvent::Arrival
                } else {
                    TxEvent::Timer { tag: slot - 1 }
                };
                self.handle(tx, event, view, out);
            }
        }
    }
}

/// A [`NodeView`] that redirects the hot lanes to one transaction's lane
/// set while forwarding everything else to the underlying view.
struct LaneView<'a, V> {
    lane: &'a mut HotState,
    node: NodeId,
    view: &'a mut V,
}

impl<V> HotLanes for LaneView<'_, V> {
    fn seen(&self) -> bool {
        self.lane.seen(self.node)
    }

    fn set_seen(&mut self) -> bool {
        self.lane.set_seen(self.node)
    }

    fn phase(&self) -> u8 {
        self.lane.phase(self.node)
    }

    fn set_phase(&mut self, phase: u8) {
        self.lane.set_phase(self.node, phase);
    }

    fn counter_lane(&self) -> u32 {
        self.lane.counter(self.node)
    }

    fn set_counter_lane(&mut self, value: u32) {
        self.lane.set_counter(self.node, value);
    }
}

impl<V: NodeView> NodeView for LaneView<'_, V> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.view.now()
    }

    fn neighbors(&self) -> &[NodeId] {
        self.view.neighbors()
    }

    fn node_count(&self) -> usize {
        self.view.node_count()
    }

    fn rng(&mut self) -> &mut StdRng {
        self.view.rng()
    }
}

/// Runs one steady-state session: injects `arrivals` into an overlay whose
/// node `i` runs `prototypes[i]`, lets the broadcasts overlap freely and
/// returns the simulator metrics plus the session report.
///
/// Nodes `0..miner_count` are the miners (their earliest delivery per
/// transaction is recorded for the mempool replay); `adversaries` are the
/// colluding observers for the first-spy estimate. The session relies on
/// loss-free execution for its lane recycling, so `config` must not cap
/// simulated time below the drain point and must not schedule churn —
/// callers pass the defaults.
///
/// # Panics
///
/// Panics if `prototypes.len()` differs from the overlay size.
pub fn run_steady_in<C: SteadyProtocol + 'static>(
    arena: &mut TrialArena,
    graph: Graph,
    prototypes: Vec<C>,
    arrivals: &[Arrival],
    adversaries: &[NodeId],
    miner_count: usize,
    config: SimConfig,
) -> (Metrics, SteadyReport) {
    let n = graph.node_count();
    assert_eq!(prototypes.len(), n, "one prototype per overlay node");
    let session = Rc::new(RefCell::new(SteadySession::new(
        n,
        arrivals,
        adversaries,
        miner_count,
    )));

    let mut per_node: Vec<Vec<(SimTime, u64)>> = vec![Vec::new(); n];
    for (tx, arrival) in arrivals.iter().enumerate() {
        per_node[arrival.origin.index()].push((arrival.at, tx as u64));
    }

    let mut nodes: Vec<SteadyNode<C>> = arena.take_nodes();
    nodes.extend(
        prototypes
            .into_iter()
            .zip(per_node)
            .map(|(prototype, arrivals)| SteadyNode::new(prototype, Rc::clone(&session), arrivals)),
    );

    let mut sim = Simulator::new_in(arena, graph, nodes, config);
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    // Clearing the node storage drops every `Rc` clone of the session.
    arena.store_nodes(nodes);
    let session = Rc::try_unwrap(session)
        .expect("all session handles released with the nodes")
        .into_inner();
    (metrics, session.into_report())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug, PartialEq, Eq)]
    struct Ping;
    impl Payload for Ping {
        fn kind(&self) -> &'static str {
            "ping"
        }

        fn size_bytes(&self) -> usize {
            100
        }
    }

    #[test]
    fn tagged_payload_delegates_kind_and_adds_tag_bytes() {
        let tagged = Tagged { tx: 7, inner: Ping };
        assert_eq!(tagged.kind(), "ping");
        assert_eq!(tagged.size_bytes(), 100 + TX_TAG_BYTES);
    }

    #[test]
    fn timer_tags_round_trip_and_reserve_slot_zero() {
        let encoded = encode_timer(3, 1);
        assert_eq!(encoded >> TAG_SLOT_BITS, 3);
        assert_eq!(encoded & TAG_SLOT_MASK, 2);
        // Slot 0 of every transaction is the arrival timer.
        assert_ne!(encoded & TAG_SLOT_MASK, 0);
    }

    #[test]
    #[should_panic(expected = "tag namespace")]
    fn oversized_inner_tags_are_rejected() {
        let _ = encode_timer(0, TAG_SLOT_MASK);
    }

    #[test]
    fn session_counts_deliveries_and_first_spy_per_transaction() {
        let arrivals = [
            Arrival {
                at: 10,
                origin: NodeId::new(4),
            },
            Arrival {
                at: 20,
                origin: NodeId::new(5),
            },
        ];
        let mut session = SteadySession::new(6, &arrivals, &[NodeId::new(3)], 2);
        session.record_delivery(0, NodeId::new(4), 10);
        session.record_delivery(0, NodeId::new(1), 35);
        session.record_delivery(1, NodeId::new(0), 50);
        // Adversary node 3 first hears tx 0 from node 4 (the origin);
        // non-adversary receipts are ignored.
        session.observe(0, NodeId::new(2), NodeId::new(1));
        session.observe(0, NodeId::new(3), NodeId::new(4));
        session.observe(0, NodeId::new(3), NodeId::new(1));
        let report = session.into_report();
        assert_eq!(report.per_tx[0].delivered_count, 2);
        assert_eq!(report.per_tx[0].first_miner_delivery, Some(35));
        assert_eq!(report.per_tx[0].first_spy_estimate, Some(NodeId::new(4)));
        assert_eq!(report.per_tx[1].first_miner_delivery, Some(50));
        assert_eq!(report.per_tx[1].first_spy_estimate, None);
        assert_eq!(report.latencies_us, vec![0, 25, 30]);
    }

    /// A miniature flood-and-prune with a delayed re-announce timer: enough
    /// structure to exercise message tagging, timer namespacing, lane
    /// isolation and in-flight accounting end to end.
    #[derive(Clone, Debug, Default)]
    struct MiniFlood;

    impl ProtocolCore for MiniFlood {
        type Message = Ping;

        fn poll<V: NodeView>(&mut self, input: Input<Ping>, view: &mut V, out: &mut Mailbox<Ping>) {
            match input {
                Input::Init => {}
                Input::Message { from, message } => {
                    if view.set_seen() {
                        return;
                    }
                    out.deliver();
                    out.broadcast(message, &[from]);
                    // Re-announce once after a delay, exercising per-tx
                    // timers; the duplicate receipts all prune.
                    out.set_timer(1_000, 3);
                }
                Input::TimerFired { tag } => {
                    if tag == 3 {
                        out.broadcast(Ping, &[]);
                    }
                }
            }
        }
    }

    impl SteadyProtocol for MiniFlood {
        fn per_tx_instance(&self) -> Self {
            MiniFlood
        }

        fn start_tx(&mut self, _tx: u64, view: &mut impl NodeView, out: &mut Mailbox<Ping>) {
            if view.set_seen() {
                return;
            }
            out.deliver();
            out.broadcast(Ping, &[]);
        }
    }

    fn ring(n: usize) -> Graph {
        fnp_netsim::topology::ring(n).unwrap()
    }

    #[test]
    fn overlapping_broadcasts_all_cover_the_overlay() {
        let n = 12;
        let arrivals: Vec<Arrival> = (0..6)
            .map(|i| Arrival {
                at: 1 + i * 400, // well inside each other's flight time
                origin: NodeId::new((5 * i as usize + 1) % n),
            })
            .collect();
        let (metrics, report) = run_steady_in(
            &mut TrialArena::new(),
            ring(n),
            vec![MiniFlood; n],
            &arrivals,
            &[NodeId::new(0)],
            2,
            SimConfig::default(),
        );
        assert_eq!(report.per_tx.len(), arrivals.len());
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            assert_eq!(outcome.delivered_count, n, "tx {tx} did not cover");
            assert!(
                outcome.first_miner_delivery.is_some(),
                "tx {tx} missed miners"
            );
            assert!(outcome.completed_at.is_some(), "tx {tx} never drained");
            assert!(outcome.first_spy_estimate.is_some(), "tx {tx}");
        }
        assert_eq!(report.latencies_us.len(), arrivals.len() * n);
        assert!(
            report.peak_concurrent >= 2,
            "arrivals 400 µs apart should overlap in flight"
        );
        // Tag bytes ride on every wire message.
        assert_eq!(metrics.bytes_sent, metrics.messages_sent * (100 + 8) as u64);
    }

    #[test]
    fn sequential_arrivals_recycle_lanes() {
        let n = 8;
        // Spaced far beyond a broadcast's flight time: never concurrent.
        let arrivals: Vec<Arrival> = (0..5)
            .map(|i| Arrival {
                at: 1 + i * 10_000_000,
                origin: NodeId::new(i as usize % n),
            })
            .collect();
        let (_, report) = run_steady_in(
            &mut TrialArena::new(),
            ring(n),
            vec![MiniFlood; n],
            &arrivals,
            &[],
            0,
            SimConfig::default(),
        );
        assert_eq!(
            report.peak_concurrent, 1,
            "sequential txs must share one lane set"
        );
        for outcome in &report.per_tx {
            assert_eq!(outcome.delivered_count, n);
            assert!(
                outcome.first_miner_delivery.is_none(),
                "no miners configured"
            );
        }
    }

    #[test]
    fn steady_sessions_are_deterministic_and_arena_reuse_is_invisible() {
        let n = 10;
        let arrivals: Vec<Arrival> = (0..4)
            .map(|i| Arrival {
                at: 1 + i * 700,
                origin: NodeId::new((3 * i as usize) % n),
            })
            .collect();
        let run = |arena: &mut TrialArena| {
            let (metrics, report) = run_steady_in(
                arena,
                ring(n),
                vec![MiniFlood; n],
                &arrivals,
                &[NodeId::new(7)],
                1,
                SimConfig {
                    seed: 42,
                    ..SimConfig::default()
                },
            );
            let digest = format!("{report:?}");
            arena.recycle_metrics(metrics);
            digest
        };
        let fresh = run(&mut TrialArena::new());
        let mut arena = TrialArena::new();
        let cold = run(&mut arena);
        let warm = run(&mut arena);
        assert_eq!(fresh, cold);
        assert_eq!(fresh, warm);
    }
}
