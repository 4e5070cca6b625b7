//! Recording simulator runs and replaying them through bare cores.
//!
//! Wrapping every node's core in a [`Traced`] core that shares one
//! [`TraceHandle`] accumulates one [`TraceEvent`] per poll, in the
//! simulator's delivery order: which node was polled, at what time, with
//! which input, the exact RNG state before the poll, and the effects the
//! core emitted. [`replay_trace`] then feeds the same inputs through a
//! *fresh* set of cores — no simulator, just a [`ReplayView`] over recorded
//! state — and checks the emitted effects match event for event. This is
//! the determinism gate that keeps the sans-IO cores from silently
//! diverging from the simulator path.

use fnp_netsim::{
    Effect, Graph, HotLanes, HotState, Input, Mailbox, NodeId, NodeView, ProtocolCore, SimTime,
};
use rand::rngs::StdRng;
use std::cell::RefCell;
use std::rc::Rc;

/// The input of one recorded poll.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TracedInput<M> {
    /// A regular protocol input (init, message, timer).
    Input(Input<M>),
    /// An out-of-band entry point invoked through [`Traced::external`] —
    /// typically the origin's "start broadcast" trigger. The replayer cannot reconstruct
    /// the closure, so [`replay_trace`] hands these to its `on_external`
    /// callback.
    External,
}

/// One recorded poll of one node's core.
#[derive(Clone, Debug)]
pub struct TraceEvent<M> {
    /// The node that was polled.
    pub node: NodeId,
    /// Simulated time of the poll.
    pub now: SimTime,
    /// The input the core was polled with.
    pub input: TracedInput<M>,
    /// The simulation RNG state immediately before the poll. Injected
    /// verbatim during replay so cores draw the same randomness without
    /// rerunning the driver-side draws (latency sampling) interleaved
    /// between polls.
    pub rng_before: StdRng,
    /// The effects the core emitted, in emission order.
    pub effects: Vec<Effect<M>>,
}

/// Shared, append-only recording of a simulator run.
///
/// Clone one handle into every node's [`Traced`] core; the cores append
/// events in delivery order.
#[derive(Debug, Default)]
pub struct TraceHandle<M> {
    events: Rc<RefCell<Vec<TraceEvent<M>>>>,
}

impl<M> Clone for TraceHandle<M> {
    fn clone(&self) -> Self {
        Self {
            events: Rc::clone(&self.events),
        }
    }
}

impl<M> TraceHandle<M> {
    /// Creates an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Self {
            events: Rc::new(RefCell::new(Vec::new())),
        }
    }

    /// Appends one recorded poll.
    pub fn record(&self, event: TraceEvent<M>) {
        self.events.borrow_mut().push(event);
    }

    /// Number of recorded polls.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// Whether nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Takes the recorded events out of the handle.
    #[must_use]
    pub fn take(&self) -> Vec<TraceEvent<M>> {
        std::mem::take(&mut *self.events.borrow_mut())
    }
}

/// A core that records every poll of the core it wraps into a shared
/// [`TraceHandle`]: the input, the RNG state before the poll and the
/// effects the poll emitted.
#[derive(Debug)]
pub struct Traced<C: ProtocolCore> {
    core: C,
    trace: TraceHandle<C::Message>,
}

impl<C: ProtocolCore> Traced<C> {
    /// Wraps `core`, recording its polls into `trace`.
    pub fn new(core: C, trace: TraceHandle<C::Message>) -> Self {
        Self { core, trace }
    }

    /// Runs an out-of-band entry point of the wrapped core (such as "start
    /// a broadcast"), recorded as [`TracedInput::External`]:
    ///
    /// ```ignore
    /// sim.trigger(origin, |traced, view, out| {
    ///     traced.external(view, out, |core, view, out| core.start_broadcast(7, view, out));
    /// });
    /// ```
    pub fn external<V: NodeView>(
        &mut self,
        view: &mut V,
        out: &mut Mailbox<C::Message>,
        f: impl FnOnce(&mut C, &mut V, &mut Mailbox<C::Message>),
    ) {
        self.record(TracedInput::External, view, out, f);
    }

    fn record<V: NodeView>(
        &mut self,
        input: TracedInput<C::Message>,
        view: &mut V,
        out: &mut Mailbox<C::Message>,
        f: impl FnOnce(&mut C, &mut V, &mut Mailbox<C::Message>),
    ) {
        let rng_before = view.rng().clone();
        let start = out.len();
        f(&mut self.core, view, out);
        self.trace.record(TraceEvent {
            node: view.node_id(),
            now: view.now(),
            input,
            rng_before,
            effects: out.effects()[start..].to_vec(),
        });
    }
}

impl<C: ProtocolCore> ProtocolCore for Traced<C> {
    type Message = C::Message;

    fn poll<V: NodeView>(
        &mut self,
        input: Input<C::Message>,
        view: &mut V,
        out: &mut Mailbox<C::Message>,
    ) {
        let recorded = TracedInput::Input(input.clone());
        self.record(recorded, view, out, |core, view, out| {
            core.poll(input, view, out)
        });
    }
}

/// A [`NodeView`] reconstructed from a recorded trace event: per-node hot
/// lanes evolve exactly as in the original run because the same polls
/// mutate them in the same order, while the RNG is injected per event.
#[derive(Debug)]
pub struct ReplayView<'a> {
    node: NodeId,
    now: SimTime,
    neighbors: &'a [NodeId],
    node_count: usize,
    rng: &'a mut StdRng,
    hot: &'a mut HotState,
}

impl HotLanes for ReplayView<'_> {
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

impl NodeView for ReplayView<'_> {
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

/// A divergence found by [`replay_trace`].
#[derive(Debug)]
pub struct ReplayMismatch {
    /// Index of the diverging event in the trace.
    pub index: usize,
    /// The node whose poll diverged.
    pub node: NodeId,
    /// Debug rendering of the recorded effects.
    pub expected: String,
    /// Debug rendering of the effects the replayed core emitted.
    pub got: String,
}

impl std::fmt::Display for ReplayMismatch {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "replay diverged at event {} (node {:?}):\n  expected: {}\n  got:      {}",
            self.index, self.node, self.expected, self.got
        )
    }
}

impl std::error::Error for ReplayMismatch {}

/// Replays a recorded simulator trace through bare cores, without the
/// simulator.
///
/// `cores` must be fresh cores in the same initial state as the recorded
/// run's, indexed by [`NodeId::index`]; `graph` the same overlay. Each
/// recorded event is fed to the owning core with the recorded RNG state
/// injected; [`TracedInput::External`] events (origin triggers) are handed
/// to `on_external`, which must invoke the same entry point the original
/// driver ran. Returns the first divergence between recorded and emitted
/// effects, if any.
///
/// # Errors
///
/// Returns a [`ReplayMismatch`] describing the first event whose emitted
/// effects differ from the recording.
pub fn replay_trace<C, F>(
    cores: &mut [C],
    graph: &Graph,
    trace: &[TraceEvent<C::Message>],
    mut on_external: F,
) -> Result<(), ReplayMismatch>
where
    C: ProtocolCore,
    F: FnMut(&mut C, &mut ReplayView<'_>, &mut Mailbox<C::Message>),
{
    let mut hot = HotState::new(cores.len());
    let mut out = Mailbox::new();
    for (index, event) in trace.iter().enumerate() {
        let mut rng = event.rng_before.clone();
        let mut view = ReplayView {
            node: event.node,
            now: event.now,
            neighbors: graph.neighbors(event.node),
            node_count: graph.node_count(),
            rng: &mut rng,
            hot: &mut hot,
        };
        let core = &mut cores[event.node.index()];
        match &event.input {
            TracedInput::Input(input) => core.poll(input.clone(), &mut view, &mut out),
            TracedInput::External => on_external(core, &mut view, &mut out),
        }
        let got: Vec<Effect<C::Message>> = out.drain().collect();
        let expected = format!("{:?}", event.effects);
        let emitted = format!("{got:?}");
        if expected != emitted {
            return Err(ReplayMismatch {
                index,
                node: event.node,
                expected,
                got: emitted,
            });
        }
    }
    Ok(())
}
