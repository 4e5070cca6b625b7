//! `flood_1m`: one flood from node 0 over a million-node overlay.
//!
//! Every pass builds the degree-8 overlay and estimates its diameter on
//! the intra-trial threads (the set-up), then runs one untraced flood
//! broadcast over it.

use crate::checks::Checks;
use crate::trace::{Counters, Recorder};
use crate::workload::{measure, pass_seed, Measured, Pass};
use fnp_bench::{standard_overlay_threaded_in, TrialArena};
use fnp_netsim::{NodeId, SimConfig};
use std::time::{Duration, Instant};

/// Size of the flood workload.
#[derive(Clone, Copy, Debug)]
pub struct FloodSize {
    /// Overlay size.
    pub n: usize,
}

/// One million nodes.
pub const FULL: FloodSize = FloodSize { n: 1_000_000 };

/// A reduced overlay that floods in milliseconds (still above the exact
/// diameter cut-off, so the double-sweep estimator runs).
pub const SMOKE: FloodSize = FloodSize { n: 5_000 };

/// Measures the flood for about `budget`; `threads` splits the overlay
/// finalize and the diameter BFS.
pub fn run(
    rec: &mut Recorder,
    size: FloodSize,
    seed: u64,
    budget: Duration,
    threads: usize,
) -> Measured {
    let n = size.n;
    let mut checks = Checks::default();
    let (passes, peak_rss_kb) = measure(budget, |index| {
        rec.set_pass(index);
        let base_seed = pass_seed(seed, index);
        rec.set_trial(index as u64);
        let started = Instant::now();
        // A fresh arena per pass: every pass pays a first trial's costs.
        let mut arena = TrialArena::new();

        let span = rec.begin("overlay", "flood", 0);
        let graph = standard_overlay_threaded_in(&mut arena, n, base_seed, threads);
        let overlay = rec.end(span, Counters::default());

        let span = rec.begin("diameter", "flood", 0);
        let (diameter, _) = graph
            .diameter_estimate_with_threads(threads)
            .expect("standard overlays are connected");
        let estimate = rec.end(span, Counters::default());

        // The single-threaded reference is a check, not part of the pass.
        let mut checking = Duration::ZERO;
        if index == 0 {
            let check_started = Instant::now();
            let reference = graph.diameter_estimate().map(|(d, _)| d);
            checks.check(reference == Some(diameter), || {
                format!("diameter on {threads} threads is {diameter}, on 1 thread {reference:?}")
            });
            checking = check_started.elapsed();
        }
        let edges = graph.edge_count() as u64;

        let span = rec.begin("sim", "flood", 0);
        let config = SimConfig {
            seed: base_seed,
            ..SimConfig::default()
        };
        let metrics = fnp_gossip::run_flood_in(&mut arena, graph, NodeId::new(0), 1, config);
        let broadcast = rec.end(span, Counters::of(&metrics));

        let coverage = metrics.coverage();
        checks.check(coverage == 1.0, || format!("flood covered {coverage}"));
        let messages = metrics.messages_sent;
        checks.check((n as u64 - 1..=2 * edges).contains(&messages), || {
            format!(
                "flood sent {messages} messages, outside [n-1, 2|E|] = [{}, {}]",
                n - 1,
                2 * edges
            )
        });
        arena.recycle_metrics(metrics);
        Pass {
            wall: started.elapsed() - checking,
            setup: overlay + estimate,
            broadcast,
            broadcasts: 1,
        }
    });
    Measured {
        passes,
        checks,
        peak_rss_kb,
        // Not scaled: the flood's working set is in memory, not in the
        // private caches the host probe measures, and scaling by the probe
        // widened the spread of its times between runs (see README.md).
        slowdown: 1.0,
    }
}
