//! # fnp-adversary — attacker models and deanonymisation estimators
//!
//! The point of the flexible broadcast protocol is to survive an
//! honest-but-curious adversary that controls a sizeable fraction of the
//! overlay (§I, §IV-A of the paper). This crate provides everything the
//! experiments need to *measure* that:
//!
//! * [`observer`] — selecting the colluding node set (the botnet model of
//!   Biryukov et al.) and reducing the simulator's transmission trace to
//!   what those nodes could actually observe.
//! * [`estimators`] — the first-spy and Jordan-centre/rumour-centrality
//!   estimators that turn observations into a posterior over originators.
//! * [`metrics`] — aggregation of detection probability, anonymity-set
//!   size and posterior entropy over many attacked broadcasts (the rows of
//!   experiments E1, E2, E3 and E7).
//! * [`timing`] — the Biryukov-style maximum-likelihood timing estimator
//!   that correlates arrival times at many observation points.
//! * [`eavesdropper`] — passive link-level observers (the "intelligence
//!   agency" attacker of §I), up to a global passive adversary.
//! * [`insider`] — coalitions inside the Phase-1 DC-net group and the
//!   analytic ℓ-anonymity floor of §V-B.
//! * [`precision`] — precision/recall accounting over whole attack
//!   campaigns, the reporting style of the Dandelion analysis.
//!
//! # Example
//!
//! ```
//! use fnp_adversary::{first_spy, AdversarySet, AdversaryView};
//! use fnp_gossip::run_flood_in;
//! use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = topology::random_regular(100, 8, &mut rng)?;
//! let origin = NodeId::new(0);
//!
//! let metrics = run_flood_in(
//!     &mut TrialArena::new(),
//!     graph,
//!     origin,
//!     1,
//!     SimConfig { record_trace: true, ..SimConfig::default() },
//! );
//!
//! // A botnet controlling 20 % of the network watches the broadcast.
//! let adversaries = AdversarySet::random_fraction(100, 0.2, &[origin], &mut rng);
//! let view = AdversaryView::from_metrics(&metrics, &adversaries);
//! let estimate = first_spy(&view);
//! println!("suspect: {:?}", estimate.best_guess);
//! # Ok::<(), fnp_netsim::GenerateTopologyError>(())
//! ```
//!
//! (The example depends on `fnp-gossip` only for illustration; the library
//! itself is independent of any particular dissemination protocol.)

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod eavesdropper;
pub mod estimators;
pub mod insider;
pub mod metrics;
pub mod observer;
pub mod precision;
pub mod timing;

pub use eavesdropper::{first_sender, traffic_volume, LinkId, LinkObserver};
pub use estimators::{first_spy, jordan_center, weighted_first_relayers, Estimate};
pub use insider::{
    degradation_table, honest_member_count, insider_posterior, phase1_detection_probability,
};
pub use metrics::{AttackOutcome, PrivacyExperiment, PrivacySummary};
pub use observer::{AdversarySet, AdversaryView, Observation};
pub use precision::{Classification, ConfusionCounts};
pub use timing::{infer_per_hop_latency, timing_ml};
