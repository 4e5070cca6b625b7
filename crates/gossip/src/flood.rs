//! Flood-and-prune broadcast.
//!
//! This is the baseline dissemination mechanism of Bitcoin-like networks
//! and phase 3 of the flexible broadcast protocol: on first receipt of a
//! transaction a node forwards it to every neighbour except the one it came
//! from; repeated receipts are pruned (ignored). It reaches every node of a
//! connected overlay with roughly `2·|E| − (n − 1)` transmissions and the
//! lowest possible latency, but its propagation symmetry is exactly what
//! the deanonymisation attacks of Biryukov et al. exploit (the paper's
//! Fig. 2 and experiment E2).

use fnp_netsim::{Graph, Metrics, NodeId, Payload, SimConfig, Simulator, TrialArena};
use fnp_proto::{Input, Mailbox, NodeView, ProtocolCore, SteadyProtocol};

/// Wire size reported for a flooded transaction.
const TX_BYTES: usize = 256;

/// The flooded message: a transaction identifier.
///
/// Simulations broadcast one transaction at a time, so the identifier is
/// only used to keep the message self-describing.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FloodMessage {
    /// Identifier of the transaction being broadcast.
    pub tx_id: u64,
}

impl Payload for FloodMessage {
    fn kind(&self) -> &'static str {
        "flood"
    }

    fn size_bytes(&self) -> usize {
        TX_BYTES
    }
}

/// A node executing flood-and-prune, as a sans-IO [`ProtocolCore`].
///
/// The per-event "have I relayed this already?" flag lives in the driver's
/// hot [`seen` lane](fnp_proto::HotLanes::seen) (struct-of-arrays storage
/// under the simulator), not in this struct — the struct only keeps the
/// cold origin marker.
#[derive(Clone, Debug, Default)]
pub struct FloodNode {
    origin: bool,
}

impl FloodNode {
    /// Creates an idle node.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether this node originated the broadcast.
    pub fn is_origin(&self) -> bool {
        self.origin
    }

    /// Starts a broadcast of transaction `tx_id` from this node. Under the
    /// simulator, call via [`Simulator::trigger`] on the origin.
    pub fn start_broadcast(
        &mut self,
        tx_id: u64,
        view: &mut impl NodeView,
        out: &mut Mailbox<FloodMessage>,
    ) {
        if view.set_seen() {
            return;
        }
        self.origin = true;
        out.deliver();
        out.broadcast(FloodMessage { tx_id }, &[]);
    }
}

impl ProtocolCore for FloodNode {
    type Message = FloodMessage;

    fn poll<V: NodeView>(
        &mut self,
        input: Input<FloodMessage>,
        view: &mut V,
        out: &mut Mailbox<FloodMessage>,
    ) {
        let Input::Message { from, message } = input else {
            return;
        };
        if view.set_seen() {
            // Prune: we have already relayed this transaction.
            return;
        }
        out.deliver();
        out.broadcast(message, &[from]);
    }
}

impl SteadyProtocol for FloodNode {
    fn per_tx_instance(&self) -> Self {
        FloodNode::new()
    }

    fn start_tx(&mut self, tx: u64, view: &mut impl NodeView, out: &mut Mailbox<FloodMessage>) {
        self.start_broadcast(tx, view, out);
    }
}

/// Runs one flood-and-prune broadcast of `tx_id` from `origin` over `graph`
/// and returns the collected metrics. The simulator storage is checked out
/// of `arena` and returned there afterwards (recycle the returned
/// [`Metrics`] via [`TrialArena::recycle_metrics`] once aggregated).
pub fn run_flood_in(
    arena: &mut TrialArena,
    graph: Graph,
    origin: NodeId,
    tx_id: u64,
    config: SimConfig,
) -> Metrics {
    let mut nodes: Vec<FloodNode> = arena.take_nodes();
    nodes.extend((0..graph.node_count()).map(|_| FloodNode::new()));
    let mut sim = Simulator::new_in(arena, graph, nodes, config);
    sim.trigger(origin, |node, view, out| {
        node.start_broadcast(tx_id, view, out)
    });
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    arena.store_nodes(nodes);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::topology;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn flood_reaches_every_node() {
        let mut rng = StdRng::seed_from_u64(1);
        let graph = topology::random_regular(200, 8, &mut rng).unwrap();
        let edges = graph.edge_count() as u64;
        let metrics = run_flood_in(
            &mut TrialArena::new(),
            graph,
            NodeId::new(0),
            7,
            SimConfig::default(),
        );
        assert_eq!(metrics.coverage(), 1.0);
        // Every node forwards once to all-but-one neighbour: the total is
        // bounded by 2|E| and must be at least n − 1.
        assert!(metrics.messages_sent <= 2 * edges);
        assert!(metrics.messages_sent >= 199);
    }

    #[test]
    fn message_count_close_to_two_e_minus_n() {
        // On an 8-regular graph of 1 000 nodes the paper's baseline costs
        // ≈7 000 messages; the analytic value is 2|E| − (n − 1) = 7 001.
        let mut rng = StdRng::seed_from_u64(2);
        let graph = topology::random_regular(1000, 8, &mut rng).unwrap();
        let expected = 2 * graph.edge_count() as u64 - 999;
        let metrics = run_flood_in(
            &mut TrialArena::new(),
            graph,
            NodeId::new(3),
            1,
            SimConfig::default(),
        );
        assert_eq!(metrics.coverage(), 1.0);
        let diff = metrics.messages_sent.abs_diff(expected);
        // Concurrent cross-edges can add a handful of duplicate sends.
        assert!(
            diff <= expected / 10,
            "sent {} expected ≈{}",
            metrics.messages_sent,
            expected
        );
    }

    #[test]
    fn only_flood_kind_messages_are_sent() {
        let graph = topology::ring(10).unwrap();
        let metrics = run_flood_in(
            &mut TrialArena::new(),
            graph,
            NodeId::new(0),
            1,
            SimConfig::default(),
        );
        assert_eq!(metrics.messages_by_kind().len(), 1);
        assert!(metrics.messages_of_kind("flood") > 0);
        assert_eq!(metrics.bytes_sent, metrics.messages_sent * 256);
    }

    #[test]
    fn origin_is_marked() {
        let graph = topology::line(3).unwrap();
        let nodes = (0..3).map(|_| FloodNode::new()).collect();
        let mut sim = Simulator::new_in(&mut TrialArena::new(), graph, nodes, SimConfig::default());
        sim.trigger(NodeId::new(1), |node, view, out| {
            node.start_broadcast(9, view, out)
        });
        sim.run();
        assert!(sim.node(NodeId::new(1)).is_origin());
        assert!(!sim.node(NodeId::new(0)).is_origin());
        // The seen flag lives in the simulator's hot lanes.
        assert!(sim.hot().seen(NodeId::new(0)));
        assert_eq!(sim.hot().seen_count(), 3);
    }

    #[test]
    fn arena_reuse_is_invisible_in_the_metrics() {
        let overlay = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            topology::random_regular(50, 4, &mut rng).unwrap()
        };
        let config = |seed| SimConfig {
            seed,
            record_trace: true,
            ..SimConfig::default()
        };
        // Trials A then B through one reused arena…
        let mut arena = TrialArena::new();
        let a_reused = run_flood_in(&mut arena, overlay(1), NodeId::new(0), 1, config(1));
        arena.recycle_metrics(a_reused);
        let b_reused = run_flood_in(&mut arena, overlay(2), NodeId::new(3), 2, config(2));
        // …must match trial B through a fresh arena, byte for byte.
        let b_fresh = run_flood_in(
            &mut TrialArena::new(),
            overlay(2),
            NodeId::new(3),
            2,
            config(2),
        );
        assert_eq!(format!("{b_reused:?}"), format!("{b_fresh:?}"));
    }

    #[test]
    fn double_start_is_idempotent() {
        let graph = topology::line(2).unwrap();
        let nodes = (0..2).map(|_| FloodNode::new()).collect();
        let mut sim = Simulator::new_in(&mut TrialArena::new(), graph, nodes, SimConfig::default());
        sim.trigger(NodeId::new(0), |node, view, out| {
            node.start_broadcast(1, view, out);
            node.start_broadcast(1, view, out);
        });
        let metrics = sim.run();
        // Node 0 sends once to node 1; node 1 has no other neighbour to
        // forward to, so exactly one message crosses the wire.
        assert_eq!(metrics.messages_of_kind("flood"), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        #[test]
        fn prop_flood_covers_any_connected_topology(
            n in 3usize..60,
            origin in 0usize..60,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = topology::erdos_renyi(n, 0.3, &mut rng)
                .or_else(|_| topology::ring(n))
                .unwrap();
            let metrics = run_flood_in(
                &mut TrialArena::new(),
                graph,
                NodeId::new(origin % n),
                42,
                SimConfig { seed, ..SimConfig::default() },
            );
            prop_assert_eq!(metrics.coverage(), 1.0);
        }
    }
}
