//! Tests of the benchmark itself: the percentile rule, span arithmetic,
//! the correctness gate, the end-to-end arithmetic and its host-speed
//! scaling, the metric names against `BENCHMARK.json`, and a reduced-size
//! run of every workload.

use fnp_bench::json::Json;
use fnp_perfbench::checks::Checks;
use fnp_perfbench::report::{
    end_to_end, end_to_end_unscaled, per_layer, per_layer_names, END_TO_END,
};
use fnp_perfbench::stats::{distribution, Distribution};
use fnp_perfbench::trace::{self_times, Counters, Recorder, Span};
use fnp_perfbench::workload::{Measured, Pass};
use fnp_perfbench::{measure, paper_grid, steady, Args, Scale, Workload};
use std::collections::BTreeMap;
use std::process::Command;
use std::time::Duration;

fn ramp(len: usize) -> Vec<f64> {
    // Shuffled order: the rule must sort.
    (1..=len).rev().map(|v| v as f64).collect()
}

#[test]
fn percentile_rule_reports_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(
        distribution(&ramp(100)),
        Distribution {
            samples: 100,
            p50: 50.5,
            tail: Some((90.0, 90.0)),
        }
    );
    assert_eq!(distribution(&ramp(1000)).tail, Some((99.0, 990.0)));
    assert_eq!(distribution(&ramp(10_000)).tail, Some((99.9, 9990.0)));
    // 99 samples: p90 would have only 9 beyond it, so p75 it is.
    assert_eq!(distribution(&ramp(99)).tail, Some((75.0, 75.0)));
    assert_eq!(distribution(&ramp(20)).tail, Some((50.0, 10.0)));
    // Fewer than 20 samples: not even the median has 10 beyond it.
    let small = distribution(&ramp(19));
    assert_eq!((small.samples, small.p50, small.tail), (19, 10.0, None));
    assert_eq!(distribution(&[]).samples, 0);
}

fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
    Span {
        name: "test",
        protocol: "",
        rate: 0,
        pass: 0,
        trial: 0,
        parent,
        start_ns,
        end_ns,
        allocs: 0,
        alloc_bytes: 0,
        counters: Counters::default(),
    }
}

#[test]
fn self_time_subtracts_the_union_of_children() {
    let spans = vec![
        span(None, 0, 100),
        // Overlapping children are counted once: [10, 50) covers 40.
        span(Some(0), 10, 30),
        span(Some(0), 20, 50),
        // A grandchild is its parent's business, not the root's.
        span(Some(2), 25, 45),
        span(Some(0), 60, 70),
        // A child reaching past its parent only covers the overlap.
        span(Some(0), 95, 120),
    ];
    assert_eq!(
        self_times(&spans),
        vec![100 - 40 - 10 - 5, 20, 30 - 20, 20, 10, 25]
    );
}

fn fake_allocs() -> (u64, u64) {
    use std::sync::atomic::{AtomicU64, Ordering};
    static CALLS: AtomicU64 = AtomicU64::new(0);
    // Every snapshot looks like one more allocation of 8 bytes.
    let calls = CALLS.fetch_add(1, Ordering::Relaxed) + 1;
    (calls, 8 * calls)
}

#[test]
fn recorder_nests_spans_and_records_deltas() {
    let mut rec = Recorder::traced(Some(fake_allocs));
    rec.set_pass(3);
    rec.set_trial(9);
    let outer = rec.begin("trial", "flood", 0);
    let inner = rec.begin("sim", "flood", 0);
    let counters = Counters {
        events: 5,
        ..Counters::default()
    };
    rec.end(inner, counters);
    rec.end(outer, Counters::default());
    let spans = rec.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
    assert!(spans.iter().all(|s| s.pass == 3 && s.trial == 9));
    assert_eq!(spans[1].counters.events, 5);
    // The inner span saw one snapshot's step; the outer saw three.
    assert_eq!((spans[1].allocs, spans[1].alloc_bytes), (1, 8));
    assert_eq!((spans[0].allocs, spans[0].alloc_bytes), (3, 24));
    assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);

    let mut untraced = Recorder::untraced();
    let open = untraced.begin("sim", "flood", 0);
    untraced.end(open, Counters::default());
    assert!(untraced.spans().is_empty());
}

#[test]
fn a_wrong_row_raises_failed_frac() {
    let expected = paper_grid::reference_rows(paper_grid::SMOKE, 11, 1);
    let mut checks = Checks::default();
    checks.same_rows("identical", &expected, &expected.clone());
    assert_eq!(
        (checks.attempted(), checks.failed(), checks.failed_frac()),
        (1, 0, 0.0)
    );

    let wrong = expected.replacen("\"protocol\": \"flood\"", "\"protocol\": \"fl00d\"", 1);
    assert_ne!(wrong, expected);
    checks.same_rows("one wrong row", &expected, &wrong);
    assert_eq!(
        (checks.attempted(), checks.failed(), checks.failed_frac()),
        (2, 1, 0.5)
    );
    let result = fnp_perfbench::result_json(&checks, &[]);
    assert_eq!(result.get("correct"), Some(&Json::Bool(false)));
    assert_eq!(result.get("failed").and_then(Json::as_u64), Some(1));
}

fn pass(wall_s: f64, setup_s: f64, broadcast_s: f64, broadcasts: u64) -> Pass {
    Pass {
        wall: Duration::from_secs_f64(wall_s),
        setup: Duration::from_secs_f64(setup_s),
        broadcast: Duration::from_secs_f64(broadcast_s),
        broadcasts,
    }
}

fn values(metrics: &[fnp_perfbench::report::Metric]) -> Vec<f64> {
    metrics.iter().map(|m| m.value).collect()
}

#[test]
fn end_to_end_sums_the_run_and_scales_by_the_host_slowdown() {
    let mut measured = Measured {
        passes: vec![
            pass(2.0, 0.1, 1.5, 20),
            pass(4.0, 0.3, 3.5, 40),
            pass(2.0, 0.2, 1.0, 20),
        ],
        checks: Checks::default(),
        peak_rss_kb: Some(2048),
        slowdown: 1.0,
    };
    // Median set-up; whole-run broadcast rate (80 over 8 s) and broadcast
    // time per broadcast (6 s over 80); peak memory.
    let unscaled = [0.2, 10.0, 0.075, 10.0, 2.0];
    assert_eq!(values(&end_to_end(&measured)), unscaled);
    // On a host running at half the reference speed, times halve and rates
    // double; memory is not scaled. The unscaled figures stay as read.
    measured.slowdown = 2.0;
    assert_eq!(
        values(&end_to_end(&measured)),
        [0.1, 20.0, 0.0375, 20.0, 2.0]
    );
    assert_eq!(values(&end_to_end_unscaled(&measured)), unscaled);
}

#[test]
fn steady_passes_after_the_first_draw_each_protocol_apart() {
    let cells = 4 * steady::RATES.len();
    // Pass 0 is `steady_state_with`'s run 0 in every cell: paired protocols.
    assert!((0..cells).all(|cell| steady::cell_run(0, cell) == 0));
    // Later passes give protocol k run k, at both rates.
    for pass in [1, 5] {
        let runs: Vec<u64> = (0..cells)
            .map(|cell| steady::cell_run(pass, cell))
            .collect();
        assert_eq!(runs, [0, 0, 1, 1, 2, 2, 3, 3]);
    }
}

#[test]
fn arguments_are_strict() {
    let parse = |flags: &[&str]| Args::parse(flags.iter().map(|f| f.to_string()));
    let full = [
        "--workload",
        "flood_1m",
        "--seed",
        "4",
        "--seconds",
        "10",
        "--trace",
        "1",
    ];
    let args = parse(&full).expect("complete flags parse");
    assert_eq!(
        (args.workload, args.seed, args.seconds, args.trace),
        (Workload::Flood1m, 4, 10, true)
    );
    assert_eq!(args.scale, Scale::Full);
    assert_eq!(Args::parse(args.to_flags()), Ok(args));
    assert!(parse(&full[..6]).is_err(), "--trace is required");
    assert!(parse(&[
        "--workload",
        "nope",
        "--seed",
        "1",
        "--seconds",
        "1",
        "--trace",
        "0"
    ])
    .is_err());
    assert!(parse(&["--seed", "1", "--seed", "2"]).is_err());
    assert!(parse(&["--trace", "2"]).is_err());
    assert!(parse(&["--bogus", "1"]).is_err());
}

/// `BENCHMARK.json` at the repository root, next to this package.
fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    Json::parse(&text).expect("BENCHMARK.json is JSON")
}

fn listed(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn reported_metrics_match_benchmark_json() {
    let e2e: Vec<(String, String)> = END_TO_END
        .iter()
        .map(|&(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(listed("end_to_end"), e2e);
    let layers: Vec<(String, String)> = per_layer_names()
        .into_iter()
        .map(|(n, u)| (n, u.to_string()))
        .collect();
    assert_eq!(listed("per_layer"), layers);
    let workloads: Vec<String> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workload list")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("workload name")
                .to_string()
        })
        .collect();
    // `flood_1m` runs by hand only: its run-to-run spread on the shared
    // host exceeded its bound (README.md, "Measured spread").
    let names: Vec<String> = Workload::ALL
        .iter()
        .filter(|&&w| w != Workload::Flood1m)
        .map(|w| w.name().to_string())
        .collect();
    assert_eq!(workloads, names);
}

#[test]
fn every_workload_runs_and_checks_at_smoke_size() {
    for workload in Workload::ALL {
        let mut rec = Recorder::traced(None);
        let measured = measure(
            &mut rec,
            workload,
            Scale::Smoke,
            7,
            Duration::from_millis(300),
        );
        assert!(!measured.passes.is_empty());
        assert!(
            measured.checks.attempted() > 0,
            "{workload:?} made no checks"
        );
        assert_eq!(measured.checks.failures(), &[] as &[String], "{workload:?}");
        assert!(
            end_to_end(&measured).iter().all(|m| m.value > 0.0),
            "{workload:?}"
        );
        let layers = per_layer(rec.spans(), measured.passes.len());
        let value = |name: &str| layers.iter().find(|m| m.name == name).expect(name).value;
        assert!(
            value("sim.events") > 0.0 && value("sim.ms") > 0.0,
            "{workload:?}"
        );
        assert!(value("overlay.ms") > 0.0, "{workload:?}");
        // Layers a workload does not call report nothing.
        match workload {
            Workload::PaperGrid => {
                assert_eq!((value("diameter.ms"), value("steady.tx")), (0.0, 0.0))
            }
            Workload::Flood1m => {
                assert_eq!((value("adversary.ms"), value("trace.entries")), (0.0, 0.0))
            }
            Workload::SteadyLoad => assert_eq!(
                (value("adversary.ms"), value("trial_ms.flood.samples")),
                (0.0, 0.0)
            ),
        }
    }
}

/// Runs a benchmark binary at smoke size and returns its result line.
fn run_binary(exe: &str, workload: &str, trace: &str) -> Json {
    let output = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--scale",
            "smoke",
        ])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("benchmark binary runs");
    assert!(
        output.status.success(),
        "{exe} {workload}: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    Json::parse(stdout.lines().last().expect("a result line")).expect("result is JSON")
}

fn metric_values(result: &Json) -> BTreeMap<String, f64> {
    match result.get("metrics") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(name, m)| {
                let value = match m.get("value") {
                    Some(Json::Num(v)) => *v,
                    Some(Json::UInt(v)) => *v as f64,
                    other => panic!("{name} has value {other:?}"),
                };
                (name.clone(), value)
            })
            .collect(),
        other => panic!("metrics is {other:?}"),
    }
}

#[test]
fn binaries_print_every_listed_metric_and_repeat_their_counts() {
    let e2e: Vec<String> = listed("end_to_end").into_iter().map(|(n, _)| n).collect();
    let layers: Vec<String> = listed("per_layer").into_iter().map(|(n, _)| n).collect();
    for workload in Workload::ALL.map(Workload::name) {
        let untraced = run_binary(env!("CARGO_BIN_EXE_perfbench"), workload, "0");
        assert_eq!(untraced.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(
            metric_values(&untraced)
                .into_keys()
                .collect::<Vec<_>>()
                .len(),
            e2e.len()
        );
        assert!(e2e
            .iter()
            .all(|name| metric_values(&untraced).contains_key(name)));

        let first = metric_values(&run_binary(
            env!("CARGO_BIN_EXE_perfbench-traced"),
            workload,
            "1",
        ));
        let second = metric_values(&run_binary(
            env!("CARGO_BIN_EXE_perfbench-traced"),
            workload,
            "1",
        ));
        assert_eq!(first.keys().collect::<Vec<_>>().len(), layers.len());
        assert!(
            layers.iter().all(|name| first.contains_key(name)),
            "{workload}"
        );
        assert_eq!(first["failed_frac"], 0.0);
        // Work counts repeat exactly between runs of the same seed.
        for name in [
            "sim.events",
            "sim.messages",
            "sim.bytes_sent",
            "sim.alloc_bytes",
            "trace.entries",
            "steady.tx",
        ] {
            assert_eq!(first[name], second[name], "{workload} {name}");
        }
    }
}
