//! The sans-IO protocol core trait.

use crate::mailbox::{Input, Mailbox};
use crate::message::Payload;
use crate::view::NodeView;

/// A pure, driver-agnostic protocol state machine.
///
/// A core holds only the protocol's own per-node state. It is fed one
/// [`Input`] at a time — `Init`, an incoming `Message`, or a `TimerFired` —
/// reads its environment through a [`NodeView`], and responds by pushing
/// effects into the [`Mailbox`]. It never performs IO: the driver that owns
/// it (the discrete-event [`Simulator`](crate::Simulator), the `fnp-node`
/// line-delimited JSON event loop, or a trace replayer) drains the mailbox
/// and performs the effects, in order.
///
/// See the [`sim`](crate::sim) module for a minimal ping core run under the
/// simulator.
///
/// # Example: a flood core that relays each message once
///
/// ```
/// use fnp_netsim::{
///     Graph, HotLanes, Input, Mailbox, NodeId, NodeView, Payload, ProtocolCore, SimConfig,
///     Simulator, TrialArena,
/// };
///
/// #[derive(Clone, Debug)]
/// struct Tx;
/// impl Payload for Tx {
///     fn kind(&self) -> &'static str { "tx" }
/// }
///
/// struct Flood;
/// impl ProtocolCore for Flood {
///     type Message = Tx;
///     fn poll<V: NodeView>(&mut self, input: Input<Tx>, view: &mut V, out: &mut Mailbox<Tx>) {
///         if let Input::Message { from, message } = input {
///             if !view.set_seen() {
///                 out.deliver();
///                 out.broadcast(message, &[from]);
///             }
///         }
///     }
/// }
///
/// // A path 0 - 1 - 2: node 0 originates, nodes 1 and 2 receive and relay.
/// let mut graph = Graph::new(3);
/// graph.add_edge(NodeId::new(0), NodeId::new(1));
/// graph.add_edge(NodeId::new(1), NodeId::new(2));
/// let flood = vec![Flood, Flood, Flood];
/// let mut sim = Simulator::new_in(&mut TrialArena::new(), graph, flood, SimConfig::default());
/// sim.trigger(NodeId::new(0), |_core, view, out| {
///     view.set_seen();
///     out.deliver();
///     out.broadcast(Tx, &[]);
/// });
/// let metrics = sim.run();
/// // 0 -> 1 and 1 -> 2; node 2 has no neighbour left to relay to.
/// assert_eq!(metrics.messages_sent, 2);
/// assert_eq!(metrics.delivered_count(), 3);
/// ```
pub trait ProtocolCore {
    /// The message type this protocol exchanges.
    type Message: Payload;

    /// Processes one input, pushing any resulting effects into `out`.
    ///
    /// Effect order matters: drivers apply effects in emission order, and
    /// downstream randomness (latency sampling, fan-out iteration) consumes
    /// the driver RNG in that order, so reordering emissions changes runs.
    fn poll<V: NodeView>(
        &mut self,
        input: Input<Self::Message>,
        view: &mut V,
        out: &mut Mailbox<Self::Message>,
    );
}
