//! The Dandelion baseline (Bojja Venkatakrishnan, Fanti, Viswanath).
//!
//! Dandelion is the topological-privacy baseline the paper contrasts its
//! design against (§III-A, Fig. 3). It disseminates a transaction in two
//! phases:
//!
//! * **Stem phase** — the transaction is relayed along a *line graph* (an
//!   approximation of a Hamiltonian path over all peers): each node forwards
//!   to exactly one successor. After a geometrically distributed number of
//!   hops (or a hop-count limit) the transaction "fluffs".
//! * **Fluff phase** — the node at the end of the stem starts an ordinary
//!   flood-and-prune broadcast.
//!
//! The anonymity comes from the stem: an adversary observing the fluff sees
//! the last stem node, not the originator, and along the stem every honest
//! predecessor is an equally plausible source. To limit topology-learning
//! attacks the line graph is re-randomised every epoch
//! ([`StemLine::rerandomize`]).

use fnp_netsim::{Graph, Metrics, NodeId, Payload, SimConfig, Simulator, TrialArena};
use fnp_proto::{Input, Mailbox, NodeView, ProtocolCore, SteadyProtocol};
use rand::seq::SliceRandom;
use rand::Rng;

/// Wire size reported for both stem and fluff transaction relays.
const TX_BYTES: usize = 256;

/// Messages exchanged by Dandelion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DandelionMessage {
    /// Stem-phase relay: forwarded to a single successor.
    Stem {
        /// Transaction identifier.
        tx_id: u64,
        /// Remaining stem hops before the mandatory fluff.
        remaining_hops: u32,
    },
    /// Fluff-phase relay: ordinary flood-and-prune.
    Fluff {
        /// Transaction identifier.
        tx_id: u64,
    },
}

impl Payload for DandelionMessage {
    fn kind(&self) -> &'static str {
        match self {
            DandelionMessage::Stem { .. } => "dandelion-stem",
            DandelionMessage::Fluff { .. } => "dandelion-fluff",
        }
    }

    fn size_bytes(&self) -> usize {
        TX_BYTES
    }
}

/// The global stem line: a random permutation of all nodes where each node
/// forwards stem transactions to its successor.
///
/// In the real protocol every node picks its stem successor from its own
/// outbound connections; the permutation model used here is the standard
/// analysis abstraction (an approximate Hamiltonian path over the overlay,
/// exactly as the paper describes it) and is re-randomised per epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StemLine {
    successor: Vec<NodeId>,
}

impl StemLine {
    /// Builds a random stem line over `n` nodes.
    pub fn random<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Self {
        let mut order: Vec<NodeId> = (0..n).map(NodeId::new).collect();
        order.shuffle(rng);
        let mut successor = vec![NodeId::new(0); n];
        for window in 0..n {
            let current = order[window];
            let next = order[(window + 1) % n];
            successor[current.index()] = next;
        }
        Self { successor }
    }

    /// Number of nodes covered by the line.
    pub fn len(&self) -> usize {
        self.successor.len()
    }

    /// True if the line covers no nodes.
    pub fn is_empty(&self) -> bool {
        self.successor.is_empty()
    }

    /// The stem successor of `node`.
    pub fn successor(&self, node: NodeId) -> NodeId {
        self.successor[node.index()]
    }

    /// Re-randomises the line (start of a new epoch).
    pub fn rerandomize<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        *self = Self::random(self.successor.len(), rng);
    }

    /// Walks the stem from `origin` for `hops` steps and returns the node
    /// that would start the fluff phase.
    pub fn fluff_node(&self, origin: NodeId, hops: u32) -> NodeId {
        let mut current = origin;
        for _ in 0..hops {
            current = self.successor(current);
        }
        current
    }
}

/// Configuration of the Dandelion run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DandelionParams {
    /// Expected stem length: each stem hop continues with probability
    /// `stem_continue_probability`, otherwise the transaction fluffs.
    pub stem_continue_probability: f64,
    /// Hard upper bound on stem hops (prevents unbounded stems).
    pub max_stem_hops: u32,
}

impl Default for DandelionParams {
    fn default() -> Self {
        Self {
            stem_continue_probability: 0.9,
            max_stem_hops: 20,
        }
    }
}

/// A node executing Dandelion, as a sans-IO [`ProtocolCore`].
///
/// The hot per-event seen flag lives in the driver's
/// [`seen` lane](fnp_proto::HotLanes::seen); this struct keeps only the
/// cold fields (successor, origin/fluff markers) that are read at most
/// once per run.
#[derive(Clone, Debug)]
pub struct DandelionNode {
    params: DandelionParams,
    stem_successor: NodeId,
    origin: bool,
    /// True if this node was the one that switched the broadcast from stem
    /// to fluff (the paper's Fig. 3 node "S").
    fluffed_here: bool,
}

impl DandelionNode {
    /// Creates a node whose stem successor is `stem_successor`.
    pub fn new(params: DandelionParams, stem_successor: NodeId) -> Self {
        Self {
            params,
            stem_successor,
            origin: false,
            fluffed_here: false,
        }
    }

    /// Whether this node originated the broadcast.
    pub fn is_origin(&self) -> bool {
        self.origin
    }

    /// Whether this node started the fluff phase.
    pub fn fluffed_here(&self) -> bool {
        self.fluffed_here
    }

    /// Starts a Dandelion broadcast of `tx_id` from this node.
    pub fn start_broadcast(
        &mut self,
        tx_id: u64,
        view: &mut impl NodeView,
        out: &mut Mailbox<DandelionMessage>,
    ) {
        if view.set_seen() {
            return;
        }
        self.origin = true;
        out.deliver();
        out.record("dandelion-origin");
        self.relay_stem(tx_id, self.params.max_stem_hops, view, out);
    }

    /// Decides whether to continue the stem or fluff, and acts accordingly.
    fn relay_stem(
        &mut self,
        tx_id: u64,
        remaining_hops: u32,
        view: &mut impl NodeView,
        out: &mut Mailbox<DandelionMessage>,
    ) {
        let continue_stem =
            remaining_hops > 0 && view.rng().gen_bool(self.params.stem_continue_probability);
        if continue_stem {
            out.send(
                self.stem_successor,
                DandelionMessage::Stem {
                    tx_id,
                    remaining_hops: remaining_hops - 1,
                },
            );
        } else {
            self.fluffed_here = true;
            out.record("dandelion-fluff-start");
            out.broadcast(DandelionMessage::Fluff { tx_id }, &[]);
        }
    }
}

impl ProtocolCore for DandelionNode {
    type Message = DandelionMessage;

    fn poll<V: NodeView>(
        &mut self,
        input: Input<DandelionMessage>,
        view: &mut V,
        out: &mut Mailbox<DandelionMessage>,
    ) {
        let Input::Message { from, message } = input else {
            return;
        };
        match message {
            DandelionMessage::Stem {
                tx_id,
                remaining_hops,
            } => {
                if view.seen() {
                    // A stem relay that loops back onto a node that has
                    // already seen the transaction fluffs immediately, as in
                    // the reference implementation.
                    out.broadcast(DandelionMessage::Fluff { tx_id }, &[from]);
                    return;
                }
                view.set_seen();
                out.deliver();
                self.relay_stem(tx_id, remaining_hops, view, out);
            }
            DandelionMessage::Fluff { tx_id } => {
                if view.set_seen() {
                    return;
                }
                out.deliver();
                out.broadcast(DandelionMessage::Fluff { tx_id }, &[from]);
            }
        }
    }
}

impl SteadyProtocol for DandelionNode {
    /// A fresh per-transaction instance keeps the node's stem successor:
    /// the stem line is an epoch-level routing decision shared by every
    /// transaction relayed within the epoch.
    fn per_tx_instance(&self) -> Self {
        DandelionNode::new(self.params, self.stem_successor)
    }

    fn start_tx(&mut self, tx: u64, view: &mut impl NodeView, out: &mut Mailbox<DandelionMessage>) {
        self.start_broadcast(tx, view, out);
    }
}

/// Result of one Dandelion broadcast.
#[derive(Clone, Debug)]
pub struct DandelionReport {
    /// Simulator metrics.
    pub metrics: Metrics,
    /// The node that switched from stem to fluff.
    pub fluff_node: Option<NodeId>,
    /// Number of stem-phase relays.
    pub stem_messages: u64,
}

/// Runs one Dandelion broadcast of `tx_id` from `origin` over `graph`,
/// using `line` as the epoch's stem line. The simulator storage is checked
/// out of `arena` and returned there afterwards (recycle the report's
/// [`Metrics`] via [`TrialArena::recycle_metrics`] once aggregated).
///
/// # Panics
///
/// Panics if `line` does not cover exactly the overlay's nodes.
pub fn run_dandelion_in(
    arena: &mut TrialArena,
    graph: Graph,
    line: &StemLine,
    origin: NodeId,
    tx_id: u64,
    params: DandelionParams,
    config: SimConfig,
) -> DandelionReport {
    assert_eq!(
        graph.node_count(),
        line.len(),
        "stem line must cover exactly the overlay nodes"
    );
    let mut nodes: Vec<DandelionNode> = arena.take_nodes();
    nodes.extend(
        (0..graph.node_count())
            .map(|index| DandelionNode::new(params, line.successor(NodeId::new(index)))),
    );
    let mut sim = Simulator::new_in(arena, graph, nodes, config);
    sim.trigger(origin, |node, view, out| {
        node.start_broadcast(tx_id, view, out)
    });
    sim.run();
    let (nodes, metrics) = sim.into_parts_in(arena);
    let fluff_node = nodes
        .iter()
        .position(|node| node.fluffed_here())
        .map(NodeId::new);
    arena.store_nodes(nodes);
    let stem_messages = metrics.messages_of_kind("dandelion-stem");
    DandelionReport {
        metrics,
        fluff_node,
        stem_messages,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::topology;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, seed: u64) -> (Graph, StemLine) {
        let mut rng = StdRng::seed_from_u64(seed);
        let graph = topology::random_regular(n, 8, &mut rng).unwrap();
        let line = StemLine::random(n, &mut rng);
        (graph, line)
    }

    #[test]
    fn steady_dandelion_broadcasts_overlap_and_cover() {
        use fnp_proto::steady::{run_steady_in, Arrival};
        let n = 40;
        let (graph, line) = setup(n, 9);
        let prototypes: Vec<DandelionNode> = (0..n)
            .map(|i| DandelionNode::new(DandelionParams::default(), line.successor(NodeId::new(i))))
            .collect();
        let arrivals = [
            Arrival {
                at: 1,
                origin: NodeId::new(2),
            },
            Arrival {
                at: 40,
                origin: NodeId::new(17),
            },
            Arrival {
                at: 90,
                origin: NodeId::new(2),
            },
        ];
        let (_, report) = run_steady_in(
            &mut TrialArena::new(),
            graph,
            prototypes,
            &arrivals,
            &[NodeId::new(30)],
            2,
            SimConfig {
                seed: 9,
                ..SimConfig::default()
            },
        );
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            assert_eq!(outcome.delivered_count, n, "tx {tx} did not cover");
            assert!(outcome.completed_at.is_some(), "tx {tx} never drained");
        }
        assert!(
            report.peak_concurrent >= 2,
            "stems should overlap in flight"
        );
    }

    #[test]
    fn stem_line_is_a_permutation_cycle() {
        let mut rng = StdRng::seed_from_u64(1);
        let line = StemLine::random(50, &mut rng);
        assert_eq!(line.len(), 50);
        assert!(!line.is_empty());
        // Following successors visits every node exactly once before looping.
        let mut visited = std::collections::HashSet::new();
        let mut current = NodeId::new(0);
        for _ in 0..50 {
            assert!(visited.insert(current));
            current = line.successor(current);
        }
        assert_eq!(current, NodeId::new(0));
        assert_eq!(visited.len(), 50);
    }

    #[test]
    fn rerandomize_changes_the_line() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut line = StemLine::random(100, &mut rng);
        let before = line.clone();
        line.rerandomize(&mut rng);
        assert_ne!(before, line);
        assert_eq!(line.len(), 100);
    }

    #[test]
    fn fluff_node_walks_the_line() {
        let mut rng = StdRng::seed_from_u64(3);
        let line = StemLine::random(10, &mut rng);
        let origin = NodeId::new(4);
        assert_eq!(line.fluff_node(origin, 0), origin);
        assert_eq!(line.fluff_node(origin, 1), line.successor(origin));
        assert_eq!(
            line.fluff_node(origin, 2),
            line.successor(line.successor(origin))
        );
    }

    #[test]
    fn dandelion_reaches_every_node() {
        let (graph, line) = setup(300, 4);
        let report = run_dandelion_in(
            &mut TrialArena::new(),
            graph,
            &line,
            NodeId::new(17),
            1,
            DandelionParams::default(),
            SimConfig {
                seed: 4,
                ..SimConfig::default()
            },
        );
        assert_eq!(report.metrics.coverage(), 1.0);
        assert!(report.fluff_node.is_some());
    }

    #[test]
    fn stem_phase_produces_a_line_of_relays() {
        let (graph, line) = setup(200, 5);
        let report = run_dandelion_in(
            &mut TrialArena::new(),
            graph,
            &line,
            NodeId::new(0),
            1,
            DandelionParams {
                stem_continue_probability: 1.0,
                max_stem_hops: 10,
            },
            SimConfig {
                seed: 5,
                ..SimConfig::default()
            },
        );
        // With continue probability 1.0 the stem runs its full hop budget
        // (unless it loops back onto itself, which 10 hops over 200 nodes
        // will not).
        assert_eq!(report.stem_messages, 10);
        assert_eq!(report.metrics.coverage(), 1.0);
    }

    #[test]
    fn zero_stem_probability_degenerates_to_flooding() {
        let (graph, line) = setup(100, 6);
        let report = run_dandelion_in(
            &mut TrialArena::new(),
            graph,
            &line,
            NodeId::new(9),
            1,
            DandelionParams {
                stem_continue_probability: 0.0,
                max_stem_hops: 10,
            },
            SimConfig {
                seed: 6,
                ..SimConfig::default()
            },
        );
        assert_eq!(report.stem_messages, 0);
        assert_eq!(report.fluff_node, Some(NodeId::new(9)));
        assert_eq!(report.metrics.coverage(), 1.0);
    }

    #[test]
    fn fluff_node_is_usually_not_the_origin() {
        let (graph, line) = setup(200, 7);
        let mut not_origin = 0;
        for seed in 0..10u64 {
            let report = run_dandelion_in(
                &mut TrialArena::new(),
                graph.clone(),
                &line,
                NodeId::new(3),
                seed,
                DandelionParams::default(),
                SimConfig {
                    seed,
                    ..SimConfig::default()
                },
            );
            if report.fluff_node != Some(NodeId::new(3)) {
                not_origin += 1;
            }
        }
        // With continue probability 0.9 the stem almost always leaves the
        // origin before fluffing.
        assert!(not_origin >= 7, "only {not_origin}/10 runs left the origin");
    }

    #[test]
    fn mismatched_line_size_panics() {
        let (graph, _) = setup(50, 8);
        let mut rng = StdRng::seed_from_u64(8);
        let wrong_line = StemLine::random(10, &mut rng);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_dandelion_in(
                &mut TrialArena::new(),
                graph,
                &wrong_line,
                NodeId::new(0),
                1,
                DandelionParams::default(),
                SimConfig::default(),
            )
        }));
        assert!(result.is_err());
    }

    #[test]
    fn message_kinds_are_labelled() {
        assert_eq!(
            DandelionMessage::Stem {
                tx_id: 1,
                remaining_hops: 2
            }
            .kind(),
            "dandelion-stem"
        );
        assert_eq!(
            DandelionMessage::Fluff { tx_id: 1 }.kind(),
            "dandelion-fluff"
        );
        assert_eq!(DandelionMessage::Fluff { tx_id: 1 }.size_bytes(), 256);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        #[test]
        fn prop_dandelion_always_delivers(
            n in 20usize..120,
            origin in 0usize..120,
            seed in any::<u64>(),
            continue_probability in 0.0f64..1.0,
        ) {
            let n = if n % 2 == 1 { n + 1 } else { n };
            let (graph, line) = {
                let mut rng = StdRng::seed_from_u64(seed);
                let graph = topology::random_regular(n, 6, &mut rng).unwrap();
                let line = StemLine::random(n, &mut rng);
                (graph, line)
            };
            let report = run_dandelion_in(
                &mut TrialArena::new(),
                graph,
                &line,
                NodeId::new(origin % n),
                1,
                DandelionParams { stem_continue_probability: continue_probability, max_stem_hops: 15 },
                SimConfig { seed, ..SimConfig::default() },
            );
            prop_assert_eq!(report.metrics.coverage(), 1.0);
        }
    }
}
