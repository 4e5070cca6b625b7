//! # fnp-perfbench — the repository's benchmark
//!
//! Three workloads, one per process: `paper_grid` (the Fig. 1 grid at
//! n = 1000), `flood_1m` (one flood over a million-node overlay) and
//! `steady_load` (the fig6 steady-state session at n = 1000). The
//! `perfbench` binary measures them untraced and prints the end-to-end
//! metrics; `perfbench-traced` measures them again with spans and
//! allocation counts around every call into a layer and prints the
//! per-layer metrics, with the tracing overhead against an untraced run of
//! the same inputs. See `README.md` next to this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checks;
pub mod flood;
pub mod host;
pub mod paper_grid;
pub mod probe;
pub mod report;
pub mod stats;
pub mod steady;
pub mod trace;
pub mod workload;

use crate::checks::Checks;
use crate::report::Metric;
use crate::trace::{self_times, AllocSnapshot, Recorder};
use crate::workload::Measured;
use fnp_bench::json::Json;
use std::process::ExitCode;
use std::time::Duration;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The Fig. 1 protocol × adversary-fraction grid.
    PaperGrid,
    /// One flood over a million-node overlay.
    Flood1m,
    /// The fig6 steady-state session.
    SteadyLoad,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [Workload::PaperGrid, Workload::Flood1m, Workload::SteadyLoad];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper_grid",
            Workload::Flood1m => "flood_1m",
            Workload::SteadyLoad => "steady_load",
        }
    }
}

/// Input size: the benchmark's own, or a reduced one for smoke tests.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The sizes the benchmark reports.
    Full,
    /// Reduced sizes that finish in seconds.
    Smoke,
}

/// Parsed command line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Args {
    /// Workload to run.
    pub workload: Workload,
    /// Workload seed; the inputs are a function of it.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: u64,
    /// Whether this is the traced run.
    pub trace: bool,
    /// Input size.
    pub scale: Scale,
}

const USAGE: &str = "usage: perfbench --workload <paper_grid|flood_1m|steady_load> --seed <n> \
                     --seconds <s> --trace <0|1> [--scale <full|smoke>]";

impl Args {
    /// Parses `--workload`, `--seed`, `--seconds` and `--trace` (all
    /// required) and `--scale` (default `full`).
    ///
    /// # Errors
    ///
    /// Returns a message for a missing, repeated, unknown or malformed flag.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut scale = None;
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let repeated = match flag.as_str() {
                "--workload" => workload
                    .replace(
                        Workload::ALL
                            .into_iter()
                            .find(|w| w.name() == value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                    .is_some(),
                "--seed" => seed.replace(parse_u64(&flag, &value)?).is_some(),
                "--seconds" => seconds.replace(parse_u64(&flag, &value)?).is_some(),
                "--trace" => trace
                    .replace(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                    })
                    .is_some(),
                "--scale" => scale
                    .replace(match value.as_str() {
                        "full" => Scale::Full,
                        "smoke" => Scale::Smoke,
                        _ => return Err(format!("--scale takes full or smoke, not {value:?}")),
                    })
                    .is_some(),
                _ => return Err(format!("unknown flag {flag:?}")),
            };
            if repeated {
                return Err(format!("{flag} given twice"));
            }
        }
        let missing = |flag: &str| format!("{flag} is required");
        Ok(Args {
            workload: workload.ok_or_else(|| missing("--workload"))?,
            seed: seed.ok_or_else(|| missing("--seed"))?,
            seconds: seconds.ok_or_else(|| missing("--seconds"))?,
            trace: trace.ok_or_else(|| missing("--trace"))?,
            scale: scale.unwrap_or(Scale::Full),
        })
    }

    /// The flags that reproduce these arguments.
    pub fn to_flags(&self) -> Vec<String> {
        vec![
            "--workload".into(),
            self.workload.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
            "--scale".into(),
            match self.scale {
                Scale::Full => "full",
                Scale::Smoke => "smoke",
            }
            .into(),
        ]
    }
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("{flag} takes a whole number, not {value:?}"))
}

/// Threads the workloads may use: at most two, and no more than the host
/// has.
pub fn threads() -> usize {
    host::nproc().min(2)
}

/// Measures `workload` at `scale` for about `budget`, recording into `rec`.
pub fn measure(
    rec: &mut Recorder,
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Duration,
) -> Measured {
    let threads = threads();
    let smoke = scale == Scale::Smoke;
    match workload {
        Workload::PaperGrid => {
            let size = if smoke {
                paper_grid::SMOKE
            } else {
                paper_grid::FULL
            };
            paper_grid::run(rec, size, seed, budget, threads)
        }
        Workload::Flood1m => {
            let size = if smoke { flood::SMOKE } else { flood::FULL };
            flood::run(rec, size, seed, budget, threads)
        }
        Workload::SteadyLoad => {
            let size = if smoke { steady::SMOKE } else { steady::FULL };
            steady::run(rec, size, seed, budget, threads)
        }
    }
}

/// The result line: correctness tally and metrics.
pub fn result_json(checks: &Checks, metrics: &[Metric]) -> Json {
    Json::obj([
        ("correct", Json::from(checks.failed() == 0)),
        ("attempted", Json::from(checks.attempted())),
        ("failed", Json::from(checks.failed())),
        (
            "metrics",
            Json::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        let value = Json::obj([
                            ("value", Json::from(m.value)),
                            ("unit", Json::from(m.unit)),
                        ]);
                        (m.name.clone(), value)
                    })
                    .collect(),
            ),
        ),
    ])
}

/// What a run adds to the header line: the host's slowdown and the
/// end-to-end figures before scaling by it.
fn host_speed_json(measured: &Measured) -> Json {
    Json::obj([
        ("host_slowdown", Json::from(measured.slowdown)),
        (
            "unscaled",
            Json::Obj(
                report::end_to_end_unscaled(measured)
                    .into_iter()
                    .map(|m| (m.name, Json::from(m.value)))
                    .collect(),
            ),
        ),
    ])
}

/// A run's outcome: its checks, its metrics and the host-speed record.
type Outcome = (Checks, Vec<Metric>, Json);

/// The untraced run: end-to-end metrics.
fn untraced(args: &Args) -> Result<Outcome, String> {
    let mut rec = Recorder::untraced();
    let measured = measure(
        &mut rec,
        args.workload,
        args.scale,
        args.seed,
        Duration::from_secs(args.seconds),
    );
    if measured.peak_rss_kb.is_none() {
        return Err("peak resident memory is unavailable (no /proc/self/status)".into());
    }
    let metrics = report::end_to_end(&measured);
    let speed = host_speed_json(&measured);
    Ok((measured.checks, metrics, speed))
}

/// Runs the untraced binary next to this one on the same inputs and
/// returns its checks and end-to-end metrics.
fn untraced_reference(args: &Args) -> Result<(Checks, Vec<Metric>), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let sibling = exe.with_file_name(format!("perfbench{}", std::env::consts::EXE_SUFFIX));
    let untraced_args = Args {
        trace: false,
        ..args.clone()
    };
    let output = std::process::Command::new(&sibling)
        .args(untraced_args.to_flags())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", sibling.display()))?;
    if !output.status.success() {
        return Err(format!("untraced run failed: {}", output.status));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or("untraced run printed nothing")?;
    let result = Json::parse(last).map_err(|e| format!("untraced result is not JSON: {e}"))?;
    let count = |key: &str| {
        result
            .get(key)
            .and_then(Json::as_u64)
            .ok_or(format!("untraced result lacks {key}"))
    };
    let mut checks = Checks::default();
    checks.absorb_counts("untraced run", count("attempted")?, count("failed")?);
    let metrics = report::END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match result
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
            {
                Some(Json::Num(v)) => *v,
                Some(Json::UInt(v)) => *v as f64,
                _ => return Err(format!("untraced result lacks {name}")),
            };
            Ok(Metric {
                name: name.to_string(),
                unit,
                value,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((checks, metrics))
}

/// Writes the spans of a traced run as JSON lines under `.perfbench-out/`.
fn write_spans(args: &Args, rec: &Recorder) -> Result<(), String> {
    let dir = std::path::Path::new(".perfbench-out");
    std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let spans = rec.spans();
    let mut text = String::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let line = Json::obj([
            ("name", Json::from(span.name)),
            ("protocol", Json::from(span.protocol)),
            ("rate", Json::from(span.rate)),
            ("pass", Json::from(span.pass)),
            ("trial", Json::from(span.trial)),
            ("parent", span.parent.map_or(Json::Null, Json::from)),
            ("start_ns", Json::from(span.start_ns)),
            ("end_ns", Json::from(span.end_ns)),
            ("self_ns", Json::from(self_ns)),
            ("allocs", Json::from(span.allocs)),
            ("alloc_bytes", Json::from(span.alloc_bytes)),
            ("events", Json::from(span.counters.events)),
            ("messages", Json::from(span.counters.messages)),
            ("bytes_sent", Json::from(span.counters.bytes_sent)),
            ("trace_entries", Json::from(span.counters.trace_entries)),
        ]);
        text.push_str(&line.to_compact_string());
        text.push('\n');
    }
    std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// The traced run: per-layer metrics, the tracing overhead against an
/// untraced run of the same inputs, and the failed-check share.
fn traced(args: &Args, alloc: AllocSnapshot) -> Result<Outcome, String> {
    let (mut checks, baseline) = untraced_reference(args)?;
    let mut rec = Recorder::traced(Some(alloc));
    let measured = measure(
        &mut rec,
        args.workload,
        args.scale,
        args.seed,
        Duration::from_secs(args.seconds),
    );
    let traced_e2e = report::end_to_end(&measured);
    let speed = host_speed_json(&measured);
    checks.absorb(measured.checks);
    let metrics = report::traced_report(
        rec.spans(),
        measured.passes.len(),
        &traced_e2e,
        &baseline,
        checks.failed_frac(),
    );
    write_spans(args, &rec)?;
    Ok((checks, metrics, speed))
}

/// Entry point of both binaries: `alloc` is the counting allocator's
/// snapshot in the traced binary and `None` in the untraced one.
pub fn main_with(alloc: Option<AllocSnapshot>) -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("error: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = match (args.trace, alloc) {
        (false, None) => untraced(&args),
        (true, Some(alloc)) => traced(&args, alloc),
        (false, Some(_)) => {
            Err("perfbench-traced measures --trace 1; run perfbench for --trace 0".into())
        }
        (true, None) => {
            Err("perfbench measures --trace 0; run perfbench-traced for --trace 1".into())
        }
    };
    match outcome {
        Ok((checks, metrics, speed)) => {
            for failure in checks.failures() {
                eprintln!("check failed: {failure}");
            }
            let header = Json::obj([
                ("workload", Json::from(args.workload.name())),
                ("seed", Json::from(args.seed)),
                ("seconds", Json::from(args.seconds)),
                ("trace", Json::from(args.trace)),
                ("threads", Json::from(threads())),
                ("host", host::host_json()),
                ("host_speed", speed),
            ]);
            println!("{}", header.to_compact_string());
            println!("{}", result_json(&checks, &metrics).to_compact_string());
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}
