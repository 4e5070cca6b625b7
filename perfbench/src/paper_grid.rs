//! `paper_grid`: the Fig. 1 landscape grid, trial by trial.
//!
//! Every pass runs the full protocol × adversary-fraction grid of
//! `fnp_bench::landscape_with` back to back on one thread (a closed loop)
//! and rebuilds its rows. The loop is the library's, unrolled so that each
//! trial's overlay build, broadcast call and adversary analysis can be
//! timed on its own.

use crate::checks::Checks;
use crate::probe::HostProbe;
use crate::trace::{Counters, Recorder};
use crate::workload::{measure, pass_seed, Measured, Pass};
use fnp_adversary::{first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment};
use fnp_bench::json::Json;
use fnp_bench::{protocol_suite, standard_overlay_in, LandscapeRow, TrialArena, TrialRunner};
use fnp_core::{run_protocol_in, ProtocolKind};
use fnp_netsim::{summarize, NodeId, SimConfig, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Adversary fractions φ of the grid.
pub const FRACTIONS: [f64; 3] = [0.1, 0.2, 0.3];

/// Size of the grid.
#[derive(Clone, Copy, Debug)]
pub struct GridSize {
    /// Overlay size.
    pub n: usize,
    /// Trials per cell.
    pub runs: usize,
}

/// The paper's evaluation size, with ten trials per cell.
pub const FULL: GridSize = GridSize { n: 1000, runs: 10 };

/// A reduced grid that runs in well under a second.
pub const SMOKE: GridSize = GridSize { n: 60, runs: 2 };

/// What the rows keep of one trial.
struct Trial {
    messages: f64,
    latency: Option<SimTime>,
    outcome: AttackOutcome,
}

/// The grid's cells in `landscape_with` order.
fn cells() -> Vec<(&'static str, ProtocolKind, f64)> {
    protocol_suite()
        .into_iter()
        .flat_map(|(label, kind)| FRACTIONS.iter().map(move |&f| (label, kind, f)))
        .collect()
}

/// Per-trial seed, as `landscape_with` derives it.
fn trial_seed(base_seed: u64, run: usize, fraction: f64) -> u64 {
    // Pinned per-cell seed formula; the lossy f64 cast is part of it.
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let offset = (fraction * 1000.0) as u64;
    base_seed + run as u64 * 17 + offset
}

/// Whether a protocol's broadcast must reach every node.
fn must_cover(protocol: &str) -> bool {
    matches!(protocol, "flood" | "dandelion" | "flexible")
}

/// Aggregates trials into rows exactly as `landscape_with` does.
fn rows(
    cells: &[(&'static str, ProtocolKind, f64)],
    per_cell: Vec<Vec<Trial>>,
) -> Vec<LandscapeRow> {
    cells
        .iter()
        .zip(per_cell)
        .map(|(&(label, _, fraction), trials)| {
            let mut experiment = PrivacyExperiment::new();
            let mut messages = Vec::new();
            let mut latencies = Vec::new();
            for trial in trials {
                messages.push(trial.messages);
                if let Some(at) = trial.latency {
                    latencies.push(fnp_netsim::as_millis(at));
                }
                experiment.record(trial.outcome);
            }
            LandscapeRow {
                protocol: label,
                adversary_fraction: fraction,
                detection_probability: experiment.detection_probability(),
                mean_messages: summarize(&messages).mean,
                mean_latency_ms: summarize(&latencies).mean,
            }
        })
        .collect()
}

/// Rows serialised the way the experiment binaries write them.
pub fn rows_text(rows: &[LandscapeRow]) -> String {
    Json::rows(rows).to_pretty_string()
}

/// The library's rows for the same grid — what pass 0 must reproduce.
pub fn reference_rows(size: GridSize, base_seed: u64, threads: usize) -> String {
    let runner = TrialRunner::new(threads);
    rows_text(&fnp_bench::landscape_with(
        &runner, size.n, size.runs, &FRACTIONS, base_seed,
    ))
}

/// One pass over the grid, probing the host before every trial; returns the
/// pass record and its rows.
fn pass(
    rec: &mut Recorder,
    checks: &mut Checks,
    probe: &mut HostProbe,
    size: GridSize,
    base_seed: u64,
) -> (Pass, String) {
    let started = Instant::now();
    let probed = probe.spent();
    // A fresh arena per pass, as each `landscape_with` call starts one.
    let arena = &mut TrialArena::new();
    let cells = cells();
    let mut setup = Duration::ZERO;
    let mut broadcast = Duration::ZERO;
    let mut per_cell = Vec::with_capacity(cells.len());
    for (cell, &(label, kind, fraction)) in cells.iter().enumerate() {
        let mut trials = Vec::with_capacity(size.runs);
        for run in 0..size.runs {
            rec.set_trial((cell * size.runs + run) as u64);
            probe.sample();
            let trial_span = rec.begin("trial", label, 0);
            let seed = trial_seed(base_seed, run, fraction);
            let mut rng = StdRng::seed_from_u64(seed);

            let span = rec.begin("overlay", label, 0);
            let graph = standard_overlay_in(arena, size.n, seed);
            setup += rec.end(span, Counters::default());

            let origin = NodeId::new(rng.gen_range(0..size.n));
            let span = rec.begin("sim", label, 0);
            let config = SimConfig {
                seed,
                ..SimConfig::default()
            };
            let metrics =
                run_protocol_in(arena, kind, graph, origin, config).expect("protocol run");
            broadcast += rec.end(span, Counters::of(&metrics));

            let span = rec.begin("adversary", label, 0);
            let adversaries = AdversarySet::random_fraction(size.n, fraction, &[origin], &mut rng);
            let view = AdversaryView::from_metrics(&metrics, &adversaries);
            let estimate = first_spy(&view);
            let trace_entries = metrics.trace.len() as u64;
            rec.end(
                span,
                Counters {
                    trace_entries,
                    ..Counters::default()
                },
            );

            if must_cover(label) {
                let coverage = metrics.coverage();
                checks.check(coverage == 1.0, || {
                    format!("{label} trial (φ={fraction}, run {run}) covered {coverage}")
                });
            }
            trials.push(Trial {
                messages: metrics.messages_sent as f64,
                latency: metrics.time_to_coverage(1.0),
                outcome: AttackOutcome { origin, estimate },
            });
            arena.recycle_metrics(metrics);
            rec.end(trial_span, Counters::default());
        }
        per_cell.push(trials);
    }
    let rows = rows_text(&rows(&cells, per_cell));
    let trials = (cells.len() * size.runs) as u64;
    let record = Pass {
        wall: started.elapsed() - (probe.spent() - probed),
        setup,
        broadcast,
        broadcasts: trials,
    };
    (record, rows)
}

/// Measures the grid for about `budget`, then checks the first pass's rows
/// against `fnp_bench::landscape_with`.
pub fn run(
    rec: &mut Recorder,
    size: GridSize,
    seed: u64,
    budget: Duration,
    threads: usize,
) -> Measured {
    let mut checks = Checks::default();
    let mut first_rows = String::new();
    let mut probe = HostProbe::default();
    let (passes, peak_rss_kb) = measure(budget, |index| {
        rec.set_pass(index);
        let (record, rows) = pass(rec, &mut checks, &mut probe, size, pass_seed(seed, index));
        if index == 0 {
            first_rows = rows;
        }
        record
    });

    let expected = reference_rows(size, pass_seed(seed, 0), threads);
    checks.same_rows(
        "paper_grid pass 0 vs fnp_bench::landscape_with",
        &expected,
        &first_rows,
    );
    Measured {
        passes,
        checks,
        peak_rss_kb,
        slowdown: probe.slowdown(),
    }
}
