//! Botnet deanonymisation attack: how well does a colluding fraction of the
//! network identify the originator under each dissemination strategy?
//!
//! This is the scenario from the paper's introduction: an attacker rents a
//! botnet, injects observer nodes until it controls ~20 % of the overlay,
//! and records who first relayed each transaction to one of its nodes
//! (Biryukov et al.). Plain flooding falls to this attack; Dandelion and the
//! flexible protocol resist it to different degrees.
//!
//! Run with:
//!
//! ```text
//! cargo run --release --example botnet_attack
//! ```

use fnp_adversary::{first_spy, AdversarySet, AdversaryView, AttackOutcome, PrivacyExperiment};
use fnp_core::{run_protocol_in, FlexConfig, ProtocolKind};
use fnp_diffusion::AdParams;
use fnp_gossip::DandelionParams;
use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NETWORK_SIZE: usize = 500;
const RUNS_PER_CELL: usize = 15;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let protocols: Vec<(&str, ProtocolKind)> = vec![
        ("flood", ProtocolKind::Flood),
        (
            "dandelion",
            ProtocolKind::Dandelion(DandelionParams::default()),
        ),
        (
            "adaptive-diffusion",
            ProtocolKind::AdaptiveDiffusion(AdParams {
                max_rounds: 64,
                ..AdParams::default()
            }),
        ),
        (
            "flexible(k=5,d=4)",
            ProtocolKind::Flexible(FlexConfig::default()),
        ),
    ];

    println!(
        "botnet first-spy attack on {NETWORK_SIZE} nodes, {RUNS_PER_CELL} broadcasts per cell\n"
    );
    println!(
        "{:<22} {:>10} {:>12} {:>16} {:>12}",
        "protocol", "adv. frac", "P[detect]", "anonymity set", "H (bits)"
    );

    for (label, kind) in &protocols {
        for adversary_fraction in [0.1, 0.2, 0.3] {
            let mut experiment = PrivacyExperiment::new();
            for run in 0..RUNS_PER_CELL {
                let seed = (run as u64) * 1_000 + (adversary_fraction * 100.0) as u64;
                let mut rng = StdRng::seed_from_u64(seed);
                let graph = topology::random_regular(NETWORK_SIZE, 8, &mut rng)?;
                let origin = NodeId::new(rng.gen_range(0..NETWORK_SIZE));

                let metrics = run_protocol_in(
                    &mut TrialArena::new(),
                    *kind,
                    graph,
                    origin,
                    SimConfig {
                        seed,
                        ..SimConfig::default()
                    },
                )?;

                let adversaries = AdversarySet::random_fraction(
                    NETWORK_SIZE,
                    adversary_fraction,
                    &[origin],
                    &mut rng,
                );
                let view = AdversaryView::from_metrics(&metrics, &adversaries);
                experiment.record(AttackOutcome {
                    origin,
                    estimate: first_spy(&view),
                });
            }
            let summary = experiment.summary();
            println!(
                "{:<22} {:>10.2} {:>12.3} {:>16.1} {:>12.2}",
                label,
                adversary_fraction,
                summary.detection_probability,
                summary.mean_anonymity_set_size,
                summary.mean_entropy_bits
            );
        }
        println!();
    }

    println!(
        "Interpretation: flooding is trivially deanonymised by the first-spy\n\
         estimator, while the flexible protocol's DC-net phase hides the\n\
         originator inside its group and the diffusion phase moves the\n\
         apparent source away from that group."
    );
    Ok(())
}
