//! # fnp-gossip — flood-and-prune and Dandelion dissemination
//!
//! Two of the dissemination strategies the paper builds on and compares
//! against:
//!
//! * [`flood`] — plain flood-and-prune broadcast: the Bitcoin baseline, the
//!   paper's phase 3, and the mechanism whose propagation symmetry makes
//!   originators easy to deanonymise (Fig. 2, experiment E2).
//! * [`dandelion`] — the Dandelion stem/fluff baseline (§III-A, Fig. 3,
//!   experiment E3): a line-graph stem phase followed by an ordinary fluff
//!   broadcast, with per-epoch re-randomisation of the stem line.
//!
//! Both are implemented as sans-IO [`fnp_proto::ProtocolCore`] state
//! machines (polled directly by the [`fnp_netsim::Simulator`]) plus
//! one-call runners used by the experiment harness.
//!
//! # Example
//!
//! ```
//! use fnp_gossip::{run_flood_in, run_dandelion_in, DandelionParams, StemLine};
//! use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = topology::random_regular(100, 8, &mut rng)?;
//!
//! // One arena carries the simulator storage from run to run.
//! let mut arena = TrialArena::new();
//! let flood = run_flood_in(&mut arena, graph.clone(), NodeId::new(0), 1, SimConfig::default());
//! assert_eq!(flood.coverage(), 1.0);
//!
//! let line = StemLine::random(100, &mut rng);
//! let dandelion = run_dandelion_in(
//!     &mut arena, graph, &line, NodeId::new(0), 1,
//!     DandelionParams::default(), SimConfig::default(),
//! );
//! assert_eq!(dandelion.metrics.coverage(), 1.0);
//! # Ok::<(), fnp_netsim::GenerateTopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod dandelion;
pub mod flood;

pub use dandelion::{
    run_dandelion_in, DandelionMessage, DandelionNode, DandelionParams, DandelionReport, StemLine,
};
pub use flood::{run_flood_in, FloodMessage, FloodNode};

#[cfg(test)]
mod tests {
    use super::*;
    use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Dandelion pays a latency and (slight) message premium over flooding
    /// but both deliver everywhere — the efficiency end of the paper's
    /// privacy–performance landscape (experiment E1/E10).
    #[test]
    fn dandelion_and_flood_both_deliver_but_dandelion_is_slower() {
        let mut rng = StdRng::seed_from_u64(10);
        let graph = topology::random_regular(300, 8, &mut rng).unwrap();
        let line = StemLine::random(300, &mut rng);

        let flood = run_flood_in(
            &mut TrialArena::new(),
            graph.clone(),
            NodeId::new(0),
            1,
            SimConfig {
                seed: 1,
                ..SimConfig::default()
            },
        );
        let dandelion = run_dandelion_in(
            &mut TrialArena::new(),
            graph,
            &line,
            NodeId::new(0),
            1,
            DandelionParams::default(),
            SimConfig {
                seed: 1,
                ..SimConfig::default()
            },
        );

        assert_eq!(flood.coverage(), 1.0);
        assert_eq!(dandelion.metrics.coverage(), 1.0);

        let flood_full = flood.time_to_coverage(1.0).unwrap();
        let dandelion_full = dandelion.metrics.time_to_coverage(1.0).unwrap();
        // The stem phase strictly delays full coverage.
        assert!(dandelion_full > flood_full);
    }
}
