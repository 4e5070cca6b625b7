//! Failure injection: how the flexible broadcast behaves when a fraction of
//! the overlay crashes mid-dissemination.
//!
//! Phase 3 (flood and prune) is what gives the protocol its delivery
//! guarantee; this example takes 10–30 % of the nodes offline once the
//! flood phase is underway and reports the coverage among the nodes that
//! stayed up, plus the messages dropped against offline peers. (Crashes
//! *during* phase 2 can instead take the virtual-source token down and stall
//! the broadcast — see `tests/churn_failure_injection.rs` and DESIGN.md §8.)
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example churn_resilience
//! ```

use fnp_core::{run_protocol_in, FlexConfig, ProtocolKind};
use fnp_netsim::{topology, ChurnSchedule, NodeId, SimConfig, TrialArena, SECOND};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 400;
    let origin = NodeId::new(17);

    println!(
        "{:<18} {:>18} {:>20} {:>18}",
        "offline fraction", "overall coverage", "coverage (up nodes)", "dropped msgs"
    );

    for fraction in [0.0, 0.1, 0.2, 0.3] {
        let mut rng = StdRng::seed_from_u64(11);
        let graph = topology::random_regular(n, 8, &mut rng)?;

        // Nodes fail six simulated seconds into the broadcast — around the
        // moment the protocol switches to flood-and-prune — and stay down for
        // the rest of the run; the originator is protected so the experiment
        // measures dissemination, not a trivially dead source.
        let churn =
            ChurnSchedule::random_fraction(n, fraction, 6 * SECOND, u64::MAX, &[origin], &mut rng);
        let offline = churn.affected_nodes();

        let metrics = run_protocol_in(
            &mut TrialArena::new(),
            ProtocolKind::Flexible(FlexConfig::default()),
            graph,
            origin,
            SimConfig {
                seed: 5,
                churn: churn.clone(),
                ..SimConfig::default()
            },
        )?;

        let up_nodes: Vec<usize> = (0..n)
            .filter(|i| !offline.contains(&NodeId::new(*i)))
            .collect();
        let delivered_up = up_nodes
            .iter()
            .filter(|&&i| metrics.delivered_at[i].is_some())
            .count();
        println!(
            "{:<18.2} {:>17.1}% {:>19.1}% {:>18}",
            fraction,
            metrics.coverage() * 100.0,
            100.0 * delivered_up as f64 / up_nodes.len() as f64,
            metrics.counter("dropped-offline")
        );
    }

    println!(
        "\nNodes that crash mid-broadcast obviously miss the transaction, but the \
         flood-and-prune phase keeps coverage among surviving nodes high — the delivery \
         property §II demands from any dissemination mechanism."
    );
    Ok(())
}
