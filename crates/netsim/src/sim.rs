//! The discrete-event simulator.
//!
//! A [`Simulator`] owns a connected overlay [`Graph`], one [`ProtocolCore`]
//! per node, a [`LatencyModel`] and an event queue. Each delivered message,
//! fired timer or external trigger is one poll: the simulator hands the
//! node's core the [`Input`], a [`Context`] as its [`NodeView`] and the
//! simulator's single [`Mailbox`], then applies the emitted [`Effect`]s in
//! emission order straight from that mailbox. The simulator delivers every
//! scheduled event in timestamp order, so a whole experiment — thousands of
//! broadcasts over thousands of nodes — is deterministic under a fixed seed.
//!
//! # Examples
//!
//! A two-node "ping" protocol:
//!
//! ```
//! use fnp_netsim::{
//!     Graph, Input, Mailbox, NodeId, NodeView, Payload, ProtocolCore, SimConfig, Simulator,
//!     TrialArena,
//! };
//!
//! #[derive(Clone, Debug)]
//! struct Ping;
//! impl Payload for Ping {
//!     fn kind(&self) -> &'static str { "ping" }
//! }
//!
//! struct Node;
//! impl ProtocolCore for Node {
//!     type Message = Ping;
//!     fn poll<V: NodeView>(&mut self, input: Input<Ping>, _view: &mut V, out: &mut Mailbox<Ping>) {
//!         if let Input::Message { .. } = input {
//!             out.deliver();
//!         }
//!     }
//! }
//!
//! let mut graph = Graph::new(2);
//! graph.add_edge(NodeId::new(0), NodeId::new(1));
//! let nodes = vec![Node, Node];
//! let mut sim = Simulator::new_in(&mut TrialArena::new(), graph, nodes, SimConfig::default());
//! sim.trigger(NodeId::new(0), |_core, view, out| {
//!     let peer = view.neighbors()[0];
//!     out.send(peer, Ping);
//! });
//! let metrics = sim.run();
//! assert_eq!(metrics.messages_sent, 1);
//! assert_eq!(metrics.delivered_count(), 1);
//! ```

use crate::arena::TrialArena;
use crate::churn::ChurnSchedule;
use crate::core::ProtocolCore;
use crate::graph::Graph;
use crate::hot::HotState;
use crate::latency::LatencyModel;
use crate::mailbox::{Effect, Input, Mailbox};
use crate::message::Payload;
use crate::metrics::{Metrics, TraceEntry};
use crate::node::NodeId;
use crate::time::SimTime;
use crate::view::{HotLanes, NodeView};
use crate::wheel::{self, TimeWheel, WheelItem};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// Configuration of a simulation run.
#[derive(Clone, Debug)]
pub struct SimConfig {
    /// Link latency model used for every transmission.
    pub latency: LatencyModel,
    /// Seed of the simulation-wide random number generator.
    pub seed: u64,
    /// Whether to record the full transmission trace (needed by the
    /// adversary estimators; costs memory proportional to message count).
    pub record_trace: bool,
    /// Hard cap on processed events, guarding against runaway protocols.
    pub max_events: u64,
    /// Hard cap on simulated time; events scheduled later are dropped.
    pub max_time: SimTime,
    /// Outage schedule injected into the run (empty = no churn). While a
    /// node is down it neither receives messages nor fires timers; dropped
    /// messages are counted under the `"dropped-offline"` counter.
    pub churn: ChurnSchedule,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            latency: LatencyModel::default(),
            seed: 0,
            record_trace: false,
            max_events: 50_000_000,
            max_time: SimTime::MAX,
            churn: ChurnSchedule::none(),
        }
    }
}

/// The simulator's [`NodeView`]: one node's read-side environment for the
/// duration of one poll.
///
/// It reads the overlay, the clock and the run RNG, and reaches the node's
/// own slots of the simulator's [`HotState`] lanes. Effects do not go
/// through it: the core pushes them into the simulator's [`Mailbox`],
/// which the simulator applies once the poll returns.
#[derive(Debug)]
pub struct Context<'a> {
    node: NodeId,
    now: SimTime,
    neighbors: &'a [NodeId],
    node_count: usize,
    rng: &'a mut StdRng,
    hot: &'a mut HotState,
}

impl HotLanes for Context<'_> {
    fn seen(&self) -> bool {
        self.hot.seen(self.node)
    }

    fn set_seen(&mut self) -> bool {
        self.hot.set_seen(self.node)
    }

    fn phase(&self) -> u8 {
        self.hot.phase(self.node)
    }

    fn set_phase(&mut self, phase: u8) {
        self.hot.set_phase(self.node, phase);
    }

    fn counter_lane(&self) -> u32 {
        self.hot.counter(self.node)
    }

    fn set_counter_lane(&mut self, value: u32) {
        self.hot.set_counter(self.node, value);
    }
}

impl NodeView for Context<'_> {
    fn node_id(&self) -> NodeId {
        self.node
    }

    fn now(&self) -> SimTime {
        self.now
    }

    fn neighbors(&self) -> &[NodeId] {
        self.neighbors
    }

    fn node_count(&self) -> usize {
        self.node_count
    }

    fn rng(&mut self) -> &mut StdRng {
        self.rng
    }
}

/// An in-flight payload: owned for point-to-point sends, reference-counted
/// for fan-outs so the queue holds one copy regardless of the target count.
#[derive(Debug)]
enum PayloadSlot<M> {
    Owned(M),
    Shared(Rc<M>),
}

impl<M: Clone> PayloadSlot<M> {
    /// Takes ownership of the payload, cloning only when other in-flight
    /// copies still share it (the last recipient gets the original).
    fn into_message(self) -> M {
        match self {
            PayloadSlot::Owned(message) => message,
            PayloadSlot::Shared(shared) => {
                Rc::try_unwrap(shared).unwrap_or_else(|shared| (*shared).clone())
            }
        }
    }
}

#[derive(Debug)]
enum EventKind<M> {
    Deliver {
        from: NodeId,
        to: NodeId,
        message: PayloadSlot<M>,
        bytes: usize,
        kind: &'static str,
    },
    Timer {
        node: NodeId,
        tag: u64,
    },
}

#[derive(Debug)]
struct Event<M> {
    at: SimTime,
    seq: u64,
    kind: EventKind<M>,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}
impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

impl<M> WheelItem for Event<M> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

/// The discrete-event simulator; see the [module documentation](self) for an
/// overview and example.
#[derive(Debug)]
pub struct Simulator<C: ProtocolCore> {
    graph: Graph,
    /// Cold per-node state: the protocol cores themselves (keys, buffers,
    /// membership tables), touched only inside the owning node's polls.
    nodes: Vec<C>,
    /// Hot per-node state in struct-of-arrays form: the seen/phase/counter
    /// lanes consulted on every event (see [`HotState`]).
    hot: HotState,
    config: SimConfig,
    /// Pending events, ordered by `(at, seq)`. A bucketed time-wheel (see
    /// [`wheel`]) rather than one global heap: the bounded latency models
    /// let most pushes be O(1) bucket appends.
    queue: TimeWheel<Event<C::Message>>,
    /// The one outbox every poll pushes into; drained in emission order
    /// right after the poll, so its buffer is reused for the whole run.
    mailbox: Mailbox<C::Message>,
    now: SimTime,
    seq: u64,
    rng: StdRng,
    metrics: Metrics,
    initialized: bool,
}

impl<C: ProtocolCore> Simulator<C> {
    /// Creates a simulator over `graph` with one protocol core per node,
    /// checking the event queue, metrics and hot-lane storage out of
    /// `arena` instead of allocating them. A fresh [`TrialArena::new`]
    /// hands out newly allocated storage, so one-off runs pass
    /// `&mut TrialArena::new()`.
    ///
    /// Pair with [`Simulator::into_parts_in`] to return the storage after
    /// the run; see [`TrialArena`] for the trial lifecycle.
    ///
    /// # Panics
    ///
    /// Panics if `nodes.len()` differs from the number of graph nodes, or
    /// if `config.latency` is invalid.
    pub fn new_in(arena: &mut TrialArena, graph: Graph, nodes: Vec<C>, config: SimConfig) -> Self {
        let n = graph.node_count();
        assert_eq!(
            n,
            nodes.len(),
            "need exactly one protocol state machine per graph node ({} vs {})",
            n,
            nodes.len()
        );
        if let Err(error) = config.latency.validate() {
            panic!("{error}");
        }
        let mut queue = arena.take_queue::<Event<C::Message>>();
        queue.reset(wheel::width_for(config.latency.max_delay()));
        let rng = StdRng::seed_from_u64(config.seed);
        Self {
            graph,
            nodes,
            hot: arena.hot(n),
            config,
            queue,
            mailbox: Mailbox::new(),
            now: 0,
            seq: 0,
            rng,
            metrics: arena.metrics(n),
            initialized: false,
        }
    }

    /// The overlay graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Immutable access to a node's protocol core.
    pub fn node(&self, id: NodeId) -> &C {
        &self.nodes[id.index()]
    }

    /// Immutable access to all node cores, indexed by [`NodeId::index`].
    pub fn nodes(&self) -> &[C] {
        &self.nodes
    }

    /// Metrics collected so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The hot per-node lanes (seen flags, phase tags, counters), for
    /// post-run inspection.
    pub fn hot(&self) -> &HotState {
        &self.hot
    }

    /// Consumes the simulator, returning the node cores and metrics, and
    /// hands the graph, event-queue buffer and hot lanes back to `arena`
    /// for the next trial to reuse.
    pub fn into_parts_in(self, arena: &mut TrialArena) -> (Vec<C>, Metrics) {
        arena.store_graph(self.graph);
        arena.store_queue(self.queue);
        arena.store_hot(self.hot);
        (self.nodes, self.metrics)
    }

    /// Polls every node with [`Input::Init`] (idempotent; invoked
    /// automatically by [`Simulator::run`] and [`Simulator::trigger`]).
    fn ensure_initialized(&mut self) {
        if self.initialized {
            return;
        }
        self.initialized = true;
        for index in 0..self.nodes.len() {
            self.dispatch(NodeId::new(index), |core, view, out| {
                core.poll(Input::Init, view, out);
            });
        }
    }

    /// Runs an out-of-band entry point of `node`'s core (such as "start a
    /// broadcast") with a live view and the simulator's mailbox, then
    /// applies the emitted effects. This is how experiments start a
    /// broadcast: trigger the originator and let it send its first
    /// messages.
    pub fn trigger(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut C, &mut Context<'_>, &mut Mailbox<C::Message>),
    ) {
        self.ensure_initialized();
        self.dispatch(node, f);
    }

    fn dispatch(
        &mut self,
        node: NodeId,
        f: impl FnOnce(&mut C, &mut Context<'_>, &mut Mailbox<C::Message>),
    ) {
        debug_assert!(self.mailbox.is_empty());
        let mut view = Context {
            node,
            now: self.now,
            neighbors: self.graph.neighbors(node),
            node_count: self.graph.node_count(),
            rng: &mut self.rng,
            hot: &mut self.hot,
        };
        f(&mut self.nodes[node.index()], &mut view, &mut self.mailbox);
        // Taken out for the drain so `apply` may borrow the rest of `self`;
        // the buffer goes back with its capacity for the next poll.
        let mut mailbox = std::mem::take(&mut self.mailbox);
        for effect in mailbox.drain() {
            self.apply(node, effect);
        }
        self.mailbox = mailbox;
    }

    fn apply(&mut self, node: NodeId, effect: Effect<C::Message>) {
        match effect {
            Effect::Send { to, message } => {
                let delay = self.config.latency.sample(node, to, &mut self.rng);
                let at = self.now.saturating_add(delay);
                let kind = message.kind();
                let bytes = message.size_bytes();
                self.metrics.record_send(kind, bytes);
                if at <= self.config.max_time {
                    let seq = self.next_seq();
                    self.push_event(Event {
                        at,
                        seq,
                        kind: EventKind::Deliver {
                            from: node,
                            to,
                            message: PayloadSlot::Owned(message),
                            bytes,
                            kind,
                        },
                    });
                }
            }
            Effect::Broadcast { message, excluded } => {
                let kind = message.kind();
                let bytes = message.size_bytes();
                let kind_id = self.metrics.intern_kind(kind);
                let shared = Rc::new(message);
                // The loop iterates the neighbor slice in place (the whole
                // point is not to allocate a target list), which keeps
                // `self.graph` borrowed — so `&mut self` helpers like
                // next_seq()/push_event() are unavailable here and the seq
                // bump and queue pushes go through disjoint field borrows
                // directly. They must stay equivalent to the helpers used by
                // the Send arm above. The whole fan-out goes through one
                // bulk-push session, which hoists the wheel's bucket-routing
                // threshold out of the per-neighbor path.
                let mut batch = self.queue.bulk();
                for &to in self.graph.neighbors(node) {
                    if excluded.contains(&to) {
                        continue;
                    }
                    let delay = self.config.latency.sample(node, to, &mut self.rng);
                    let at = self.now.saturating_add(delay);
                    self.metrics.record_send_id(kind_id, bytes);
                    if at <= self.config.max_time {
                        let seq = self.seq;
                        self.seq += 1;
                        batch.push(Event {
                            at,
                            seq,
                            kind: EventKind::Deliver {
                                from: node,
                                to,
                                message: PayloadSlot::Shared(Rc::clone(&shared)),
                                bytes,
                                kind,
                            },
                        });
                    }
                }
            }
            Effect::SetTimer { delay, tag } => {
                let at = self.now.saturating_add(delay.max(1));
                if at <= self.config.max_time {
                    let seq = self.next_seq();
                    self.push_event(Event {
                        at,
                        seq,
                        kind: EventKind::Timer { node, tag },
                    });
                }
            }
            Effect::Deliver => {
                self.metrics.record_delivery(node, self.now);
            }
            Effect::Counter { name, amount } => {
                self.metrics.record_counter(name, amount);
            }
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.seq;
        self.seq += 1;
        seq
    }

    fn push_event(&mut self, event: Event<C::Message>) {
        self.queue.push(event);
    }

    /// Processes a single event. Returns `false` when the queue is empty or
    /// a configured limit has been reached.
    pub fn step(&mut self) -> bool {
        self.ensure_initialized();
        if self.metrics.events_processed >= self.config.max_events {
            return false;
        }
        let Some(event) = self.queue.pop() else {
            return false;
        };
        debug_assert!(event.at >= self.now, "event queue must be monotone");
        self.now = event.at;
        self.metrics.events_processed += 1;
        match event.kind {
            EventKind::Deliver {
                from,
                to,
                message,
                bytes,
                kind,
            } => {
                if self.config.churn.is_down(to, self.now) {
                    self.metrics.record_counter("dropped-offline", 1);
                    return true;
                }
                if self.config.record_trace {
                    self.metrics.trace.push(TraceEntry {
                        at: self.now,
                        from,
                        to,
                        kind,
                        bytes,
                    });
                }
                let input = Input::Message {
                    from,
                    message: message.into_message(),
                };
                self.dispatch(to, |core, view, out| core.poll(input, view, out));
            }
            EventKind::Timer { node, tag } => {
                if self.config.churn.is_down(node, self.now) {
                    self.metrics.record_counter("dropped-offline", 1);
                    return true;
                }
                self.dispatch(node, |core, view, out| {
                    core.poll(Input::TimerFired { tag }, view, out);
                });
            }
        }
        true
    }

    /// Runs the simulation to quiescence (empty event queue) or until a
    /// configured limit is hit, and returns the collected metrics.
    pub fn run(&mut self) -> &Metrics {
        self.ensure_initialized();
        while self.step() {}
        self.metrics.finished_at = self.now;
        &self.metrics
    }

    /// Runs the simulation until simulated time `deadline` (inclusive),
    /// leaving later events queued.
    pub fn run_until(&mut self, deadline: SimTime) -> &Metrics {
        self.ensure_initialized();
        loop {
            match self.queue.next_at() {
                Some(at) if at <= deadline => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        self.metrics.finished_at = self.now;
        &self.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::TestPayload;
    use crate::topology;

    /// A flooding core used to exercise the simulator machinery itself.
    #[derive(Default)]
    struct FloodNode {
        seen: bool,
    }

    impl FloodNode {
        fn start(&mut self, out: &mut Mailbox<TestPayload>) {
            self.seen = true;
            out.deliver();
            out.broadcast(TestPayload::new("flood", 250), &[]);
        }
    }

    impl ProtocolCore for FloodNode {
        type Message = TestPayload;

        fn poll<V: NodeView>(
            &mut self,
            input: Input<TestPayload>,
            _view: &mut V,
            out: &mut Mailbox<TestPayload>,
        ) {
            let Input::Message { from, message } = input else {
                return;
            };
            if self.seen {
                return;
            }
            self.seen = true;
            out.deliver();
            out.broadcast(message, &[from]);
        }
    }

    fn flood_sim(n: usize, seed: u64) -> Simulator<FloodNode> {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(n, 4, &mut rng).unwrap();
        let nodes = (0..n).map(|_| FloodNode::default()).collect();
        Simulator::new_in(
            &mut TrialArena::new(),
            graph,
            nodes,
            SimConfig {
                seed,
                record_trace: true,
                ..SimConfig::default()
            },
        )
    }

    fn start_flood(sim: &mut Simulator<FloodNode>, origin: NodeId) {
        sim.trigger(origin, |node, _view, out| node.start(out));
    }

    #[test]
    fn flood_reaches_every_node() {
        let mut sim = flood_sim(100, 1);
        start_flood(&mut sim, NodeId::new(0));
        let edge_count = sim.graph().edge_count() as u64;
        let node_count = sim.graph().node_count() as u64;
        let metrics = sim.run();
        assert_eq!(metrics.delivered_count(), 100);
        assert_eq!(metrics.coverage(), 1.0);
        // Each node forwards to (deg - 1) neighbours except the origin which
        // uses deg; total messages are bounded by 2 * |E|.
        assert!(metrics.messages_sent <= 2 * edge_count);
        assert!(metrics.messages_sent >= node_count - 1);
    }

    #[test]
    fn runs_are_deterministic_under_fixed_seed() {
        let run = |seed| {
            let mut sim = flood_sim(60, seed);
            start_flood(&mut sim, NodeId::new(3));
            let m = sim.run().clone();
            (m.messages_sent, m.delivered_at.clone(), m.finished_at)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(
            run(7).2,
            run(8).2,
            "different seeds should differ somewhere"
        );
    }

    #[test]
    fn trace_is_recorded_when_enabled() {
        let mut sim = flood_sim(30, 2);
        start_flood(&mut sim, NodeId::new(0));
        let metrics = sim.run();
        assert_eq!(metrics.trace.len() as u64, metrics.messages_sent);
        // Trace times are non-decreasing because it is filled in delivery order.
        assert!(metrics.trace.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(metrics
            .trace
            .iter()
            .all(|t| t.kind == "flood" && t.bytes == 250));
    }

    #[test]
    fn trace_not_recorded_when_disabled() {
        let mut rng = StdRng::seed_from_u64(3);
        let graph = topology::random_regular(20, 4, &mut rng).unwrap();
        let nodes = (0..20).map(|_| FloodNode::default()).collect();
        let mut sim = Simulator::new_in(&mut TrialArena::new(), graph, nodes, SimConfig::default());
        start_flood(&mut sim, NodeId::new(0));
        assert!(sim.run().trace.is_empty());
    }

    #[test]
    fn max_events_limit_stops_the_run() {
        let mut sim = {
            let mut rng = StdRng::seed_from_u64(4);
            let graph = topology::random_regular(200, 6, &mut rng).unwrap();
            let nodes = (0..200).map(|_| FloodNode::default()).collect();
            Simulator::new_in(
                &mut TrialArena::new(),
                graph,
                nodes,
                SimConfig {
                    max_events: 50,
                    ..SimConfig::default()
                },
            )
        };
        start_flood(&mut sim, NodeId::new(0));
        let metrics = sim.run();
        assert!(metrics.events_processed <= 50);
        assert!(metrics.delivered_count() < 200);
    }

    #[test]
    fn max_time_limit_drops_late_events() {
        let graph = topology::line(50).unwrap();
        let nodes = (0..50).map(|_| FloodNode::default()).collect();
        let mut sim = Simulator::new_in(
            &mut TrialArena::new(),
            graph,
            nodes,
            SimConfig {
                latency: LatencyModel::Constant { delay: 1000 },
                max_time: 10_000,
                ..SimConfig::default()
            },
        );
        start_flood(&mut sim, NodeId::new(0));
        let metrics = sim.run();
        // Along a line with 1 ms hops and a 10 ms horizon only ~10 hops complete.
        assert!(metrics.delivered_count() <= 12);
        assert!(metrics.finished_at <= 10_000);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let graph = topology::line(10).unwrap();
        let nodes = (0..10).map(|_| FloodNode::default()).collect();
        let mut sim = Simulator::new_in(
            &mut TrialArena::new(),
            graph,
            nodes,
            SimConfig {
                latency: LatencyModel::Constant { delay: 100 },
                ..SimConfig::default()
            },
        );
        start_flood(&mut sim, NodeId::new(0));
        let mid = sim.run_until(450).delivered_count();
        assert!(
            mid < 10,
            "only part of the line should be covered, got {mid}"
        );
        let full = sim.run().delivered_count();
        assert_eq!(full, 10);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerNode {
            fired: Vec<u64>,
        }
        impl ProtocolCore for TimerNode {
            type Message = TestPayload;
            fn poll<V: NodeView>(
                &mut self,
                input: Input<TestPayload>,
                _view: &mut V,
                out: &mut Mailbox<TestPayload>,
            ) {
                match input {
                    Input::Init => {
                        out.set_timer(300, 3);
                        out.set_timer(100, 1);
                        out.set_timer(200, 2);
                    }
                    Input::TimerFired { tag } => {
                        self.fired.push(tag);
                        if tag == 3 {
                            out.record("last-timer");
                        }
                    }
                    Input::Message { .. } => {}
                }
            }
        }
        let graph = Graph::new(1);
        let mut sim = Simulator::new_in(
            &mut TrialArena::new(),
            graph,
            vec![TimerNode { fired: vec![] }],
            SimConfig::default(),
        );
        let metrics = sim.run();
        assert_eq!(metrics.counter("last-timer"), 1);
        assert_eq!(sim.node(NodeId::new(0)).fired, vec![1, 2, 3]);
    }

    #[test]
    fn fully_excluded_broadcast_leaves_no_trace_of_the_kind() {
        // A broadcast with no eligible targets must not create phantom
        // metrics entries for its (never actually sent) kind.
        struct LonelyNode;
        impl ProtocolCore for LonelyNode {
            type Message = TestPayload;
            fn poll<V: NodeView>(
                &mut self,
                input: Input<TestPayload>,
                _view: &mut V,
                out: &mut Mailbox<TestPayload>,
            ) {
                if input == Input::Init {
                    out.broadcast(TestPayload::new("lonely", 9), &[]);
                }
            }
        }
        // A single isolated node: no neighbours, so the fan-out is empty.
        let mut sim = Simulator::new_in(
            &mut TrialArena::new(),
            Graph::new(1),
            vec![LonelyNode],
            SimConfig::default(),
        );
        let metrics = sim.run();
        assert_eq!(metrics.messages_sent, 0);
        assert_eq!(metrics.messages_of_kind("lonely"), 0);
        assert_eq!(metrics.bytes_of_kind("lonely"), 0);
        assert!(metrics.messages_by_kind().is_empty());
        assert!(metrics.bytes_by_kind().is_empty());
    }

    #[test]
    fn counters_and_custom_records() {
        struct CounterNode;
        impl ProtocolCore for CounterNode {
            type Message = TestPayload;
            fn poll<V: NodeView>(
                &mut self,
                input: Input<TestPayload>,
                _view: &mut V,
                out: &mut Mailbox<TestPayload>,
            ) {
                if input == Input::Init {
                    out.record("init");
                    out.record_many("weighted", 5);
                }
            }
        }
        let mut sim = Simulator::new_in(
            &mut TrialArena::new(),
            Graph::new(3),
            vec![CounterNode, CounterNode, CounterNode],
            SimConfig::default(),
        );
        let metrics = sim.run();
        assert_eq!(metrics.counter("init"), 3);
        assert_eq!(metrics.counter("weighted"), 15);
    }

    #[test]
    #[should_panic(expected = "one protocol state machine per graph node")]
    fn mismatched_node_count_panics() {
        let _ = Simulator::new_in(
            &mut TrialArena::new(),
            Graph::new(3),
            vec![FloodNode::default()],
            SimConfig::default(),
        );
    }

    #[test]
    fn into_parts_returns_final_state() {
        let mut sim = flood_sim(10, 6);
        start_flood(&mut sim, NodeId::new(0));
        sim.run();
        let (nodes, metrics) = sim.into_parts_in(&mut TrialArena::new());
        assert_eq!(nodes.len(), 10);
        assert!(nodes.iter().all(|n| n.seen));
        assert_eq!(metrics.delivered_count(), 10);
    }
}
