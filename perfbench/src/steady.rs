//! `steady_load`: the fig6 steady-state session, call by call.
//!
//! Every pass runs the protocol × arrival-rate grid of
//! `fnp_bench::steady_state_with`: per cell an overlay build, prototype
//! construction (for the flexible protocol, DC-net group formation and key
//! derivation), one multiplexed session of overlapping broadcasts under
//! Poisson arrivals, and the mempool replay of its miner deliveries. The
//! loop is the library's, unrolled so that each call can be timed.

use crate::checks::Checks;
use crate::probe::HostProbe;
use crate::trace::{Counters, Recorder};
use crate::workload::{measure, pass_seed, Measured, Pass};
use fnp_bench::json::Json;
use fnp_bench::{standard_overlay_in, SteadyStateRow, TrialArena, TrialRunner};
use fnp_blockchain::{
    replay_steady_mempool, MinerDelivery, MinerSet, SteadyMempoolConfig, Transaction,
};
use fnp_core::{FlexConfig, ProtocolKind};
use fnp_diffusion::AdParams;
use fnp_gossip::DandelionParams;
use fnp_netsim::{percentile, summarize, Graph, Metrics, NodeId, SimConfig, SimTime, SECOND};
use fnp_proto::steady::{run_steady_in, SteadyProtocol, SteadyReport};
use fnp_proto::Arrival;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::{Duration, Instant};

/// Poisson arrival rates of the session, in tx/s.
pub const RATES: [u32; 2] = [2, 8];

/// Host probes before each session.
const PROBES_PER_SESSION: usize = 8;

/// Fixed transaction size of the mempool replay, as in `fnp_bench`.
const TX_BYTES: usize = 250;

/// Size of the steady-state session.
#[derive(Clone, Copy, Debug)]
pub struct SteadySize {
    /// Overlay size.
    pub n: usize,
    /// Miner count (nodes `0..miners`).
    pub miners: usize,
    /// Simulated arrival window.
    pub horizon: SimTime,
}

/// The paper-sized session: 1000 nodes, 50 miners, a 20 s window.
pub const FULL: SteadySize = SteadySize {
    n: 1000,
    miners: 50,
    horizon: 20 * SECOND,
};

/// A reduced session that runs in well under a second.
pub const SMOKE: SteadySize = SteadySize {
    n: 80,
    miners: 8,
    horizon: 2 * SECOND,
};

/// The suite of `steady_state_with`: adaptive diffusion at 32 rounds.
fn suite() -> Vec<(&'static str, ProtocolKind)> {
    vec![
        ("flood", ProtocolKind::Flood),
        (
            "dandelion",
            ProtocolKind::Dandelion(DandelionParams::default()),
        ),
        (
            "adaptive-diffusion",
            ProtocolKind::AdaptiveDiffusion(AdParams {
                max_rounds: 32,
                ..AdParams::default()
            }),
        ),
        ("flexible", ProtocolKind::Flexible(FlexConfig::default())),
    ]
}

/// The grid's cells in `steady_state_with` order.
fn cells() -> Vec<(&'static str, ProtocolKind, u32)> {
    suite()
        .into_iter()
        .flat_map(|(label, kind)| RATES.iter().map(move |&rate| (label, kind, rate)))
        .collect()
}

/// What the rows keep of one session, as `fnp_bench` aggregates it.
struct Session {
    injected: usize,
    deliveries: usize,
    fully_delivered: usize,
    latencies_us: Vec<u64>,
    messages: u64,
    peak_concurrent: usize,
    detected: usize,
    included: usize,
    inclusion_delays_us: Vec<u64>,
    mempool_peak_len: usize,
    mempool_mean_len: f64,
}

/// Per-pass call times.
#[derive(Default)]
struct Times {
    setup: Duration,
    broadcast: Duration,
}

/// What the calls of one session share.
struct Call<'a> {
    label: &'static str,
    rate: u32,
    arrivals: &'a [Arrival],
    adversaries: &'a [NodeId],
    miners: usize,
    seed: u64,
}

/// Times prototype construction as set-up.
fn prototypes<T>(
    rec: &mut Recorder,
    times: &mut Times,
    name: &'static str,
    call: &Call<'_>,
    build: impl FnOnce() -> T,
) -> T {
    let span = rec.begin(name, call.label, call.rate);
    let built = build();
    times.setup += rec.end(span, Counters::default());
    built
}

/// Runs the multiplexed session inside a `steady` span.
fn session<C: SteadyProtocol + 'static>(
    rec: &mut Recorder,
    times: &mut Times,
    call: &Call<'_>,
    arena: &mut TrialArena,
    graph: Graph,
    nodes: Vec<C>,
) -> (Metrics, SteadyReport) {
    let span = rec.begin("steady", call.label, call.rate);
    let (metrics, report) = run_steady_in(
        arena,
        graph,
        nodes,
        call.arrivals,
        call.adversaries,
        call.miners,
        SimConfig {
            seed: call.seed,
            ..SimConfig::default()
        },
    );
    let counters = Counters {
        tx: report.per_tx.len() as u64,
        latency_samples: report.latencies_us.len() as u64,
        peak: report.peak_concurrent as u64,
        ..Counters::of(&metrics)
    };
    times.broadcast += rec.end(span, counters);
    (metrics, report)
}

/// One steady-state session, as `fnp_bench`'s `steady_trial` runs it.
#[allow(clippy::too_many_arguments)]
fn cell(
    rec: &mut Recorder,
    times: &mut Times,
    checks: &mut Checks,
    arena: &mut TrialArena,
    size: SteadySize,
    label: &'static str,
    kind: ProtocolKind,
    rate: u32,
    seed: u64,
) -> Session {
    let n = size.n;
    let mut rng = StdRng::seed_from_u64(seed);
    let span = rec.begin("overlay", label, rate);
    let graph = standard_overlay_in(arena, n, seed);
    times.setup += rec.end(span, Counters::default());

    let adversary_count = (n / 10).max(1);
    let mut outsiders: Vec<NodeId> = (size.miners..n).map(NodeId::new).collect();
    for i in 0..adversary_count {
        let j = rng.gen_range(i..outsiders.len());
        outsiders.swap(i, j);
    }
    let adversaries: Vec<NodeId> = outsiders[..adversary_count].to_vec();
    let senders = &outsiders[adversary_count..];
    let arrival_times = fnp_netsim::poisson_arrivals(f64::from(rate), size.horizon, &mut rng)
        .expect("the session's rates are valid");
    let arrivals: Vec<Arrival> = arrival_times
        .into_iter()
        .map(|at| Arrival {
            at,
            origin: senders[rng.gen_range(0..senders.len())],
        })
        .collect();

    let call = Call {
        label,
        rate,
        arrivals: &arrivals,
        adversaries: &adversaries,
        miners: size.miners,
        seed,
    };
    let (metrics, report) = match kind {
        ProtocolKind::Flood => {
            let nodes = prototypes(rec, times, "prototypes", &call, || {
                (0..n).map(|_| fnp_gossip::FloodNode::new()).collect()
            });
            session(rec, times, &call, arena, graph, nodes)
        }
        ProtocolKind::Dandelion(params) => {
            let nodes = prototypes(rec, times, "prototypes", &call, || {
                let line = fnp_gossip::StemLine::random(n, &mut rng);
                (0..n)
                    .map(|i| fnp_gossip::DandelionNode::new(params, line.successor(NodeId::new(i))))
                    .collect()
            });
            session(rec, times, &call, arena, graph, nodes)
        }
        ProtocolKind::AdaptiveDiffusion(params) => {
            let nodes = prototypes(rec, times, "prototypes", &call, || {
                (0..n)
                    .map(|_| fnp_diffusion::AdaptiveDiffusionNode::new(params))
                    .collect()
            });
            session(rec, times, &call, arena, graph, nodes)
        }
        ProtocolKind::Flexible(flex) => {
            let nodes = prototypes(rec, times, "groups", &call, || {
                fnp_core::flex_steady_prototypes_in(arena, n, flex, seed)
                    .expect("flexible prototype setup")
            });
            session(rec, times, &call, arena, graph, nodes)
        }
    };

    if matches!(label, "flood" | "dandelion" | "flexible") {
        for (tx, outcome) in report.per_tx.iter().enumerate() {
            let reached = outcome.delivered_count;
            checks.check(reached == n, || {
                format!("{label} at {rate} tx/s: transaction {tx} reached {reached} of {n} nodes")
            });
        }
    }

    let span = rec.begin("mempool", label, rate);
    let deliveries: Vec<MinerDelivery> = report
        .per_tx
        .iter()
        .enumerate()
        .filter_map(|(tx, outcome)| {
            outcome.first_miner_delivery.map(|at| MinerDelivery {
                at,
                tx: Transaction::new(
                    outcome.origin,
                    TX_BYTES,
                    100 + tx as u64,
                    outcome.injected_at,
                ),
            })
        })
        .collect();
    let miner_set = MinerSet::uniform(size.miners).expect("at least one miner");
    let pool = replay_steady_mempool(
        &miner_set,
        &deliveries,
        SteadyMempoolConfig {
            capacity_bytes: 64 * TX_BYTES,
            block_max_bytes: 8 * TX_BYTES,
            mean_block_interval: 2 * SECOND,
            max_drain_blocks: 1_000,
        },
        &mut rng,
    );
    rec.end(
        span,
        Counters {
            peak: pool.peak_len as u64,
            ..Counters::default()
        },
    );

    let detected = report
        .per_tx
        .iter()
        .filter(|outcome| outcome.first_spy_estimate == Some(outcome.origin))
        .count();
    let fully_delivered = report
        .per_tx
        .iter()
        .filter(|outcome| outcome.delivered_count == n)
        .count();
    let result = Session {
        injected: report.per_tx.len(),
        deliveries: report.latencies_us.len(),
        fully_delivered,
        latencies_us: report.latencies_us,
        messages: metrics.messages_sent,
        peak_concurrent: report.peak_concurrent,
        detected,
        included: pool.included,
        inclusion_delays_us: pool.inclusion_delays_us,
        mempool_peak_len: pool.peak_len,
        mempool_mean_len: pool.mean_len,
    };
    arena.recycle_metrics(metrics);
    result
}

/// Aggregates one session per cell into rows exactly as
/// `steady_state_with` does.
fn row(
    label: &'static str,
    rate: u32,
    n: usize,
    horizon: SimTime,
    trials: &[Session],
) -> SteadyStateRow {
    let horizon_seconds = horizon as f64 / SECOND as f64;
    let trial_count = trials.len();
    let injected: usize = trials.iter().map(|t| t.injected).sum();
    let deliveries: usize = trials.iter().map(|t| t.deliveries).sum();
    let fully_delivered: usize = trials.iter().map(|t| t.fully_delivered).sum();
    let messages: u64 = trials.iter().map(|t| t.messages).sum();
    let detected: usize = trials.iter().map(|t| t.detected).sum();
    let included: usize = trials.iter().map(|t| t.included).sum();
    let peak_concurrent = trials.iter().map(|t| t.peak_concurrent).max().unwrap_or(0);
    let mempool_peak_len = trials.iter().map(|t| t.mempool_peak_len).max().unwrap_or(0);
    let mut mempool_mean_sum = 0.0f64;
    let mut latencies_ms: Vec<f64> = Vec::new();
    let mut inclusion_ms: Vec<f64> = Vec::new();
    for trial in trials {
        mempool_mean_sum += trial.mempool_mean_len;
        latencies_ms.extend(trial.latencies_us.iter().map(|&us| us as f64 / 1e3));
        inclusion_ms.extend(trial.inclusion_delays_us.iter().map(|&us| us as f64 / 1e3));
    }
    let injected_f = injected as f64;
    let share = |count: f64| {
        if injected == 0 {
            0.0
        } else {
            count / injected_f
        }
    };
    SteadyStateRow {
        protocol: label,
        rate_per_second: f64::from(rate),
        injected,
        delivered_fraction: if injected == 0 {
            0.0
        } else {
            deliveries as f64 / (injected_f * n as f64)
        },
        throughput_tx_per_s: fully_delivered as f64 / (horizon_seconds * trial_count.max(1) as f64),
        p50_delivery_ms: percentile(&latencies_ms, 50.0),
        p95_delivery_ms: percentile(&latencies_ms, 95.0),
        p99_delivery_ms: percentile(&latencies_ms, 99.0),
        mean_messages_per_tx: share(messages as f64),
        peak_concurrent,
        mempool_peak_len,
        mempool_mean_len: mempool_mean_sum / trial_count.max(1) as f64,
        included_fraction: share(included as f64),
        mean_inclusion_delay_ms: summarize(&inclusion_ms).mean,
        first_spy_detection: share(detected as f64),
    }
}

/// The library's rows for the same session — what pass 0 must reproduce.
pub fn reference_rows(size: SteadySize, base_seed: u64, threads: usize) -> String {
    let rates: Vec<f64> = RATES.iter().map(|&r| f64::from(r)).collect();
    let rows = fnp_bench::steady_state_with(
        &TrialRunner::new(threads),
        size.n,
        size.miners,
        1,
        &rates,
        size.horizon,
        base_seed,
    );
    Json::rows(&rows).to_pretty_string()
}

/// The `steady_state_with` run whose per-cell seed (`base + 17·run +
/// 100·rate`) cell `cell` of pass `pass` uses.
///
/// Pass 0 is run 0 for every cell, as `steady_state_with` with one run
/// pairs the protocols: each rate's sessions share one overlay and one
/// arrival draw. Later passes give protocol `k` run `k`, so their sessions
/// draw inputs independently: a costly arrival draw then slows one session
/// of a pass instead of all four protocols at once, and a run's time
/// depends less on a few draws.
pub fn cell_run(pass: usize, cell: usize) -> u64 {
    if pass == 0 {
        0
    } else {
        (cell / RATES.len()) as u64
    }
}

/// Measures the session grid for about `budget`, then checks the first
/// pass's rows against `fnp_bench::steady_state_with`.
pub fn run(
    rec: &mut Recorder,
    size: SteadySize,
    seed: u64,
    budget: Duration,
    threads: usize,
) -> Measured {
    let mut checks = Checks::default();
    let mut first_rows = String::new();
    let cells = cells();
    let mut probe = HostProbe::default();
    let (passes, peak_rss_kb) = measure(budget, |index| {
        rec.set_pass(index);
        let base_seed = pass_seed(seed, index);
        let started = Instant::now();
        let probed = probe.spent();
        // A fresh arena per pass, as each `steady_state_with` call starts one.
        let mut arena = TrialArena::new();
        let mut times = Times::default();
        let mut rows = Vec::with_capacity(cells.len());
        let mut tx = 0u64;
        for (id, &(label, kind, rate)) in cells.iter().enumerate() {
            rec.set_trial(id as u64);
            // Sessions are long: probe the host several times between them.
            for _ in 0..PROBES_PER_SESSION {
                probe.sample();
            }
            let span = rec.begin("session", label, rate);
            let seed = base_seed + cell_run(index, id) * 17 + u64::from(rate) * 100;
            let result = cell(
                rec,
                &mut times,
                &mut checks,
                &mut arena,
                size,
                label,
                kind,
                rate,
                seed,
            );
            rec.end(span, Counters::default());
            tx += result.injected as u64;
            rows.push(row(label, rate, size.n, size.horizon, &[result]));
        }
        if index == 0 {
            first_rows = Json::rows(&rows).to_pretty_string();
        }
        Pass {
            wall: started.elapsed() - (probe.spent() - probed),
            setup: times.setup,
            broadcast: times.broadcast,
            broadcasts: tx,
        }
    });

    let expected = reference_rows(size, pass_seed(seed, 0), threads);
    checks.same_rows(
        "steady_load pass 0 vs fnp_bench::steady_state_with",
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
