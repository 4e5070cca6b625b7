//! Bit-for-bit reproducibility of the simulator: two runs configured with
//! the same `StdRng` seed must produce byte-identical event traces and
//! metrics, across different topology families, while different seeds must
//! diverge. Every scale/speed experiment built on `fnp-netsim` depends on
//! this property to be comparable run-to-run.

use fnp_netsim::{
    topology, Graph, Input, LatencyModel, Mailbox, Metrics, NodeId, NodeView, Payload,
    ProtocolCore, SimConfig, Simulator, TrialArena,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A gossip message carrying a hop counter.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Rumor {
    hops: u32,
}

impl Payload for Rumor {
    fn kind(&self) -> &'static str {
        "rumor"
    }

    fn size_bytes(&self) -> usize {
        128
    }
}

/// A probabilistic gossip node: forwards a rumor to each neighbour with
/// probability 0.8 and re-gossips once on a timer. Deliberately leans on the
/// simulation RNG (forward coin-flips) *and* the latency model so the test
/// covers every source of randomness in a run.
#[derive(Clone, Debug, Default)]
struct GossipNode {
    seen: bool,
}

impl GossipNode {
    fn start(&mut self, out: &mut Mailbox<Rumor>) {
        self.seen = true;
        out.deliver();
        out.broadcast(Rumor { hops: 0 }, &[]);
        out.set_timer(1_000, 1);
    }

    fn forward(
        &mut self,
        message: Rumor,
        skip: &[NodeId],
        view: &mut impl NodeView,
        out: &mut Mailbox<Rumor>,
    ) {
        let neighbors: Vec<NodeId> = view.neighbors().to_vec();
        for neighbor in neighbors {
            if !skip.contains(&neighbor) && view.rng().gen_bool(0.8) {
                out.send(neighbor, message.clone());
            }
        }
    }
}

impl ProtocolCore for GossipNode {
    type Message = Rumor;

    fn poll<V: NodeView>(&mut self, input: Input<Rumor>, view: &mut V, out: &mut Mailbox<Rumor>) {
        match input {
            Input::Init => {}
            Input::Message { from, message } => {
                if self.seen {
                    return;
                }
                self.seen = true;
                out.deliver();
                out.record("gossip-accepted");
                if message.hops < 64 {
                    let next = Rumor {
                        hops: message.hops + 1,
                    };
                    self.forward(next, &[from], view, out);
                }
                out.set_timer(500, 2);
            }
            // One delayed re-gossip round, so timer ordering is exercised too.
            Input::TimerFired { tag } => {
                if tag == 1 || tag == 2 {
                    out.record("timer-fired");
                    let message = Rumor { hops: 0 };
                    self.forward(message, &[], view, out);
                }
            }
        }
    }
}

/// The three (plus one) topology families the determinism claim is tested
/// over, generated from their own seeded RNG.
fn topologies(seed: u64) -> Vec<(&'static str, Graph)> {
    let n = 60;
    let mut rng = StdRng::seed_from_u64(seed);
    vec![
        (
            "random-regular",
            topology::random_regular(n, 6, &mut rng).unwrap(),
        ),
        (
            "erdos-renyi",
            topology::erdos_renyi(n, 0.12, &mut rng).unwrap(),
        ),
        (
            "watts-strogatz",
            topology::watts_strogatz(n, 6, 0.2, &mut rng).unwrap(),
        ),
        (
            "barabasi-albert",
            topology::barabasi_albert(n, 3, &mut rng).unwrap(),
        ),
    ]
}

fn run_once(graph: Graph, sim_seed: u64) -> Metrics {
    let config = SimConfig {
        latency: LatencyModel::Uniform {
            min: 10_000,
            max: 90_000,
        },
        seed: sim_seed,
        record_trace: true,
        ..SimConfig::default()
    };
    let nodes = (0..graph.node_count())
        .map(|_| GossipNode::default())
        .collect();
    let mut arena = TrialArena::new();
    let mut sim = Simulator::new_in(&mut arena, graph, nodes, config);
    sim.trigger(NodeId::new(0), |node, _view, out| node.start(out));
    sim.run();
    let (_, metrics) = sim.into_parts_in(&mut arena);
    metrics
}

/// Renders every field of the metrics (trace included) to bytes; two runs
/// are only considered identical if these renderings match byte-for-byte.
fn fingerprint(metrics: &Metrics) -> Vec<u8> {
    format!("{metrics:#?}").into_bytes()
}

#[test]
fn same_seed_is_byte_identical_across_topologies() {
    for (name, graph) in topologies(0x70) {
        for sim_seed in [0u64, 1, 0xDEAD_BEEF] {
            let first = run_once(graph.clone(), sim_seed);
            let second = run_once(graph.clone(), sim_seed);
            assert!(
                !first.trace.is_empty(),
                "{name}: trace must be recorded for the comparison to mean anything"
            );
            assert_eq!(
                first.trace, second.trace,
                "{name}: event traces diverged for seed {sim_seed}"
            );
            assert_eq!(
                fingerprint(&first),
                fingerprint(&second),
                "{name}: metrics diverged for seed {sim_seed}"
            );
        }
    }
}

#[test]
fn topology_generation_is_deterministic_per_seed() {
    let first = topologies(42);
    let second = topologies(42);
    for ((name, a), (_, b)) in first.iter().zip(second.iter()) {
        assert_eq!(
            format!("{a:?}"),
            format!("{b:?}"),
            "{name}: same seed must generate the identical graph"
        );
    }
}

#[test]
fn different_seeds_actually_diverge() {
    // A determinism test that would also pass for a constant function is
    // vacuous; check the RNG seed genuinely steers the run.
    let (_, graph) = topologies(7).remove(0);
    let a = run_once(graph.clone(), 1);
    let b = run_once(graph, 2);
    assert_ne!(
        a.trace, b.trace,
        "distinct seeds should produce distinct traces"
    );
}
