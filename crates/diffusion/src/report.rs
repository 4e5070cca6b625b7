//! Convenience runner and reporting for adaptive diffusion experiments.
//!
//! Experiment E6 reproduces the §V-A comparison: "we averaged 12,500
//! messages with adaptive diffusion to reach all 1,000 peers. This compares
//! to an average of 7,000 messages for a regular flood and prune
//! broadcast." The helper here runs one adaptive diffusion broadcast and
//! reports both the total message count and the count *up to the moment
//! full coverage was reached* (the figure the paper quotes), since a
//! virtual source with a generous round budget keeps spreading after the
//! last node has already been reached.

use crate::protocol::{AdParams, AdaptiveDiffusionNode};
use fnp_netsim::{Graph, Metrics, NodeId, SimConfig, Simulator, TrialArena};

/// Result of one adaptive diffusion run.
#[derive(Clone, Debug)]
pub struct DiffusionReport {
    /// Full simulator metrics (message counts by kind, delivery times, …).
    pub metrics: Metrics,
    /// Fraction of nodes reached.
    pub coverage: f64,
    /// Messages sent up to (and including) the moment the last node was
    /// reached; `None` if full coverage was never achieved.
    pub messages_until_full_coverage: Option<u64>,
    /// Number of virtual-source rounds executed.
    pub rounds_executed: u64,
}

impl DiffusionReport {
    fn from_metrics(metrics: Metrics) -> Self {
        let coverage = metrics.coverage();
        let messages_until_full_coverage = if coverage >= 1.0 {
            let full_coverage_at = metrics
                .delivered_at
                .iter()
                .flatten()
                .copied()
                .max()
                .unwrap_or(0);
            if metrics.trace.is_empty() {
                // Tracing disabled: fall back to the total (an upper bound).
                Some(metrics.messages_sent)
            } else {
                Some(
                    metrics
                        .trace
                        .iter()
                        .filter(|entry| entry.at <= full_coverage_at)
                        .count() as u64,
                )
            }
        } else {
            None
        };
        Self {
            coverage,
            messages_until_full_coverage,
            rounds_executed: metrics.counter("ad-rounds"),
            metrics,
        }
    }
}

/// Runs one adaptive diffusion broadcast from `origin` over `graph`,
/// checking the simulator storage out of `arena` (recycle the report's
/// [`Metrics`] via [`TrialArena::recycle_metrics`] once aggregated).
///
/// The simulation is stepped until either the event queue drains or every
/// node has received the message; in the latter case
/// [`DiffusionReport::messages_until_full_coverage`] is the number of
/// messages *sent* up to that moment, which matches the paper's
/// "messages ... to reach all peers" accounting. The configuration's
/// `record_trace` flag is forced on so the report can also be replayed by
/// adversary estimators.
pub fn run_adaptive_diffusion_in(
    arena: &mut TrialArena,
    graph: Graph,
    origin: NodeId,
    params: AdParams,
    mut config: SimConfig,
) -> DiffusionReport {
    config.record_trace = true;
    let node_count = graph.node_count();
    let mut nodes: Vec<AdaptiveDiffusionNode> = arena.take_nodes();
    nodes.extend((0..node_count).map(|_| AdaptiveDiffusionNode::new(params)));
    let mut sim = Simulator::new_in(arena, graph, nodes, config);
    sim.trigger(origin, |node, view, out| node.start_broadcast(view, out));
    let mut messages_at_full_coverage = None;
    while sim.step() {
        if messages_at_full_coverage.is_none() && sim.metrics().coverage() >= 1.0 {
            messages_at_full_coverage = Some(sim.metrics().messages_sent);
            // Full coverage reached: the remaining queued events would only
            // add post-coverage overhead, which the §V-A comparison does not
            // count, so stop here.
            break;
        }
    }
    let (nodes, metrics) = sim.into_parts_in(arena);
    arena.store_nodes(nodes);
    let mut report = DiffusionReport::from_metrics(metrics);
    report.messages_until_full_coverage = messages_at_full_coverage;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn report_for_full_dissemination() {
        let mut rng = StdRng::seed_from_u64(3);
        let graph = topology::random_regular(80, 4, &mut rng).unwrap();
        let params = AdParams {
            max_rounds: 64,
            ..AdParams::default()
        };
        let report = run_adaptive_diffusion_in(
            &mut TrialArena::new(),
            graph,
            NodeId::new(5),
            params,
            SimConfig {
                seed: 3,
                ..SimConfig::default()
            },
        );
        assert_eq!(report.coverage, 1.0);
        let until_full = report.messages_until_full_coverage.unwrap();
        assert!(until_full > 0);
        assert!(until_full <= report.metrics.messages_sent);
        assert!(report.rounds_executed > 0);
    }

    #[test]
    fn report_for_depth_limited_run() {
        let mut rng = StdRng::seed_from_u64(4);
        let graph = topology::random_regular(200, 4, &mut rng).unwrap();
        let params = AdParams {
            max_rounds: 3,
            ..AdParams::default()
        };
        let report = run_adaptive_diffusion_in(
            &mut TrialArena::new(),
            graph,
            NodeId::new(0),
            params,
            SimConfig {
                seed: 4,
                ..SimConfig::default()
            },
        );
        // Three rounds cannot reach 200 nodes.
        assert!(report.coverage < 1.0);
        assert_eq!(report.messages_until_full_coverage, None);
    }

    #[test]
    fn reports_are_deterministic() {
        let mut rng = StdRng::seed_from_u64(5);
        let graph = topology::random_regular(60, 4, &mut rng).unwrap();
        let params = AdParams::default();
        let a = run_adaptive_diffusion_in(
            &mut TrialArena::new(),
            graph.clone(),
            NodeId::new(1),
            params,
            SimConfig {
                seed: 9,
                ..SimConfig::default()
            },
        );
        let b = run_adaptive_diffusion_in(
            &mut TrialArena::new(),
            graph,
            NodeId::new(1),
            params,
            SimConfig {
                seed: 9,
                ..SimConfig::default()
            },
        );
        assert_eq!(a.metrics.messages_sent, b.metrics.messages_sent);
        assert_eq!(
            a.messages_until_full_coverage,
            b.messages_until_full_coverage
        );
    }
}
