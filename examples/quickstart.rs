//! Quickstart: broadcast one transaction anonymously over a simulated
//! Bitcoin-like overlay and print what each phase of the flexible protocol
//! cost.
//!
//! Run with:
//!
//! ```text
//! cargo run --example quickstart
//! ```

use fnp_core::{run_flexible_broadcast_in, FlexConfig};
use fnp_netsim::{as_millis, topology, NodeId, SimConfig, TrialArena};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 1 000-peer overlay where every node keeps 8 connections — the
    // standard model of the Bitcoin peer-to-peer network and the network
    // size used in the paper's evaluation.
    let mut rng = StdRng::seed_from_u64(42);
    let graph = topology::random_regular(1_000, 8, &mut rng)?;

    // Protocol knobs: a DC-net group of k = 5 and d = 4 rounds of adaptive
    // diffusion before switching to flood-and-prune.
    let config = FlexConfig::default();
    println!("protocol: {config}");

    let origin = NodeId::new(123);
    let report = run_flexible_broadcast_in(
        &mut TrialArena::new(),
        graph,
        origin,
        b"alice pays bob 3 tokens".to_vec(),
        config,
        SimConfig {
            seed: 1,
            ..SimConfig::default()
        },
    )?;

    println!("originator               : {origin}");
    println!(
        "originator's DC-net group : {:?}",
        report
            .origin_group
            .iter()
            .map(|n| n.index())
            .collect::<Vec<_>>()
    );
    println!(
        "coverage                  : {:.1}%",
        report.coverage() * 100.0
    );
    println!("total messages            : {}", report.total_messages());
    println!(
        "  phase 1 (dc-net)        : {:>7} messages, {:>9} bytes",
        report.phase1_messages, report.phase1_bytes
    );
    println!(
        "  phase 2 (adaptive diff) : {:>7} messages, {:>9} bytes",
        report.phase2_messages, report.phase2_bytes
    );
    println!(
        "  phase 3 (flood & prune) : {:>7} messages, {:>9} bytes",
        report.phase3_messages, report.phase3_bytes
    );
    for (fraction, label) in [(0.5, "50%"), (0.9, "90%"), (1.0, "100%")] {
        if let Some(at) = report.metrics.time_to_coverage(fraction) {
            println!(
                "time to {label:>4} coverage     : {:>8.1} ms",
                as_millis(at)
            );
        }
    }
    Ok(())
}
