//! The metrics a run prints: end-to-end figures from the passes, and
//! per-layer figures from the spans of a traced run.

use crate::stats::{distribution, median};
use crate::trace::{self_times, Span};
use crate::workload::Measured;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.into(),
        unit,
        value,
    }
}

/// Protocol labels, as the workloads tag their spans.
const PROTOCOLS: [&str; 4] = ["flood", "dandelion", "adaptive-diffusion", "flexible"];

/// The end-to-end metrics with their units: every workload reports all.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("broadcast_s", "s"),
    ("sim_tx_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
];

/// End-to-end metrics of a measured run at the reference host speed: the
/// median set-up time per pass, the broadcast rate and the time per
/// broadcast over the whole run, and the peak resident memory.
///
/// `trials_per_s` and `sim_tx_per_s` both count broadcasts — grid trials,
/// floods or transactions — so they agree on every workload; each is the
/// headline of its own workload. Rates and `broadcast_s` are whole-run
/// sums: passes run different inputs, and sums weigh every input by its
/// cost where a median of per-pass ratios would pick one pass. Times are
/// divided, and rates multiplied, by the host's slowdown over the run (see
/// [`crate::probe`]).
pub fn end_to_end(measured: &Measured) -> Vec<Metric> {
    end_to_end_at(measured, measured.slowdown)
}

/// The same figures as the wall clock read them, not scaled to the
/// reference host speed.
pub fn end_to_end_unscaled(measured: &Measured) -> Vec<Metric> {
    end_to_end_at(measured, 1.0)
}

fn end_to_end_at(measured: &Measured, slowdown: f64) -> Vec<Metric> {
    let passes = &measured.passes;
    let total = |f: &dyn Fn(&crate::workload::Pass) -> f64| passes.iter().map(f).sum::<f64>();
    let wall = total(&|p| p.wall.as_secs_f64());
    let broadcasts = total(&|p| p.broadcasts as f64);
    let values = [
        median(
            &passes
                .iter()
                .map(|p| p.setup.as_secs_f64())
                .collect::<Vec<_>>(),
        ) / slowdown,
        broadcasts / wall * slowdown,
        total(&|p| p.broadcast.as_secs_f64()) / broadcasts / slowdown,
        broadcasts / wall * slowdown,
        measured.peak_rss_kb.unwrap_or(0) as f64 / 1024.0,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), value)| metric(name, unit, value))
        .collect()
}

/// Span aggregates over the passes of one traced run.
struct Layers<'a> {
    spans: &'a [Span],
    self_ns: Vec<u64>,
    passes: usize,
}

impl Layers<'_> {
    fn matching<'s>(
        &'s self,
        keep: &'s dyn Fn(&Span) -> bool,
    ) -> impl Iterator<Item = (usize, &'s Span)> + 's {
        self.spans
            .iter()
            .enumerate()
            .filter(move |(_, span)| keep(span))
    }

    /// Median over passes of the per-pass self time of matching spans, ms.
    fn ms(&self, keep: &dyn Fn(&Span) -> bool) -> f64 {
        let mut per_pass = vec![0u64; self.passes];
        for (index, span) in self.matching(keep) {
            per_pass[span.pass] += self.self_ns[index];
        }
        median(
            &per_pass
                .iter()
                .map(|&ns| ns as f64 / 1e6)
                .collect::<Vec<_>>(),
        )
    }

    /// Sum over the first pass of a field of matching spans — an exact
    /// count, identical on every run with the same seed.
    fn count(&self, keep: &dyn Fn(&Span) -> bool, field: fn(&Span) -> u64) -> u64 {
        self.matching(keep)
            .filter(|(_, s)| s.pass == 0)
            .map(|(_, s)| field(s))
            .sum()
    }

    /// Largest value of a field of matching spans in the first pass.
    fn peak(&self, keep: &dyn Fn(&Span) -> bool, field: fn(&Span) -> u64) -> u64 {
        self.matching(keep)
            .filter(|(_, s)| s.pass == 0)
            .map(|(_, s)| field(s))
            .max()
            .unwrap_or(0)
    }

    /// Time per unit of work in ns (`0` when there was no work).
    fn ns_per(&self, keep: &dyn Fn(&Span) -> bool, field: fn(&Span) -> u64) -> f64 {
        let work = self.count(keep, field);
        if work == 0 {
            0.0
        } else {
            self.ms(keep) * 1e6 / work as f64
        }
    }
}

fn events(span: &Span) -> u64 {
    span.counters.events
}

/// Per-layer metrics from the spans of a traced run with `passes` passes.
/// A layer the workload does not call reports zeros.
pub fn per_layer(spans: &[Span], passes: usize) -> Vec<Metric> {
    let layers = Layers {
        spans,
        self_ns: self_times(spans),
        passes: passes.max(1),
    };
    let mut out = Vec::new();
    for layer in ["overlay", "diameter", "groups", "adversary", "mempool"] {
        let keep = |s: &Span| s.name == layer;
        out.push(metric(format!("{layer}.ms"), "ms", layers.ms(&keep)));
        out.push(metric(
            format!("{layer}.allocs"),
            "count",
            layers.count(&keep, |s| s.allocs) as f64,
        ));
        out.push(metric(
            format!("{layer}.alloc_bytes"),
            "B",
            layers.count(&keep, |s| s.alloc_bytes) as f64,
        ));
    }

    // Dispatch is reached through the broadcast calls: single broadcasts
    // (`sim`) and steady-state sessions (`steady`).
    let broadcast = |s: &Span| s.name == "sim" || s.name == "steady";
    out.push(metric("sim.ms", "ms", layers.ms(&broadcast)));
    out.push(metric(
        "sim.events",
        "count",
        layers.count(&broadcast, events) as f64,
    ));
    out.push(metric(
        "sim.messages",
        "count",
        layers.count(&broadcast, |s| s.counters.messages) as f64,
    ));
    out.push(metric(
        "sim.bytes_sent",
        "B",
        layers.count(&broadcast, |s| s.counters.bytes_sent) as f64,
    ));
    out.push(metric(
        "sim.ns_per_event",
        "ns",
        layers.ns_per(&broadcast, events),
    ));
    out.push(metric(
        "sim.allocs",
        "count",
        layers.count(&broadcast, |s| s.allocs) as f64,
    ));
    out.push(metric(
        "sim.alloc_bytes",
        "B",
        layers.count(&broadcast, |s| s.alloc_bytes) as f64,
    ));
    for protocol in PROTOCOLS {
        let keep = |s: &Span| broadcast(s) && s.protocol == protocol;
        out.push(metric(
            format!("sim.{protocol}.ns_per_event"),
            "ns",
            layers.ns_per(&keep, events),
        ));
    }

    let entries = layers.count(&|s| s.name == "sim", |s| s.counters.trace_entries);
    out.push(metric("trace.entries", "count", entries as f64));
    let adversary = |s: &Span| s.name == "adversary";
    out.push(metric(
        "adversary.ns_per_trace_entry",
        "ns",
        layers.ns_per(&adversary, |s| s.counters.trace_entries),
    ));

    for protocol in PROTOCOLS {
        let samples: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "trial" && s.protocol == protocol)
            .map(|s| s.duration_ns() as f64 / 1e6)
            .collect();
        let summary = distribution(&samples);
        let (tail_pct, tail) = summary.tail.unwrap_or((0.0, 0.0));
        out.push(metric(
            format!("trial_ms.{protocol}.p50"),
            "ms",
            summary.p50,
        ));
        out.push(metric(format!("trial_ms.{protocol}.tail"), "ms", tail));
        out.push(metric(
            format!("trial_ms.{protocol}.tail_pct"),
            "%",
            tail_pct,
        ));
        out.push(metric(
            format!("trial_ms.{protocol}.samples"),
            "count",
            summary.samples as f64,
        ));
    }

    for rate in crate::steady::RATES {
        let keep = move |s: &Span| s.name == "steady" && s.rate == rate;
        out.push(metric(
            format!("steady.r{rate}.ns_per_event"),
            "ns",
            layers.ns_per(&keep, events),
        ));
        out.push(metric(
            format!("steady.r{rate}.peak_concurrent"),
            "count",
            layers.peak(&keep, |s| s.counters.peak) as f64,
        ));
    }
    let steady = |s: &Span| s.name == "steady";
    out.push(metric(
        "steady.tx",
        "count",
        layers.count(&steady, |s| s.counters.tx) as f64,
    ));
    out.push(metric(
        "steady.latency_samples",
        "count",
        layers.count(&steady, |s| s.counters.latency_samples) as f64,
    ));
    out.push(metric(
        "mempool.peak_len",
        "count",
        layers.peak(&|s| s.name == "mempool", |s| s.counters.peak) as f64,
    ));
    out
}

/// Everything a traced run reports: the per-layer metrics, the tracing
/// overhead (each end-to-end figure of the traced run minus the untraced
/// run's), and the share of failed checks.
pub fn traced_report(
    spans: &[Span],
    passes: usize,
    traced: &[Metric],
    untraced: &[Metric],
    failed_frac: f64,
) -> Vec<Metric> {
    let mut out = per_layer(spans, passes);
    out.extend(traced.iter().zip(untraced).map(|(t, u)| {
        metric(
            format!("trace_overhead.{}", t.name),
            t.unit,
            t.value - u.value,
        )
    }));
    out.push(metric("failed_frac", "ratio", failed_frac));
    out
}

/// Names and units of every metric a traced run reports, in order.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let zeros: Vec<Metric> = END_TO_END
        .iter()
        .map(|&(name, unit)| metric(name, unit, 0.0))
        .collect();
    traced_report(&[], 1, &zeros, &zeros, 0.0)
        .into_iter()
        .map(|m| (m.name, m.unit))
        .collect()
}
