//! # fnp-diffusion — adaptive diffusion (phase 2 substrate)
//!
//! Phase 2 of the flexible privacy-preserving broadcast runs *adaptive
//! diffusion* (Fanti et al.) for `d` rounds, starting from the virtual
//! source elected inside the DC-net group. This crate implements the
//! protocol as a reusable sans-IO [`fnp_proto::ProtocolCore`] plus the
//! pieces the combined protocol and the experiments need:
//!
//! * [`alpha`] — the virtual-source hand-off probability schedules,
//!   including the regular-tree formula of Fanti et al. and degenerate
//!   schedules for ablations.
//! * [`protocol`] — the [`AdaptiveDiffusionNode`] state machine (infection
//!   tree, token transfers, spread waves), polled directly by the
//!   [`fnp_netsim::Simulator`].
//! * [`report`] — a convenience runner producing the message-count figures
//!   of the paper's §V-A (experiment E6).
//!
//! # Example
//!
//! ```
//! use fnp_diffusion::{run_adaptive_diffusion_in, AdParams};
//! use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let graph = topology::random_regular(100, 4, &mut rng)?;
//! let report = run_adaptive_diffusion_in(
//!     &mut TrialArena::new(),
//!     graph,
//!     NodeId::new(0),
//!     AdParams { max_rounds: 64, ..AdParams::default() },
//!     SimConfig::default(),
//! );
//! assert_eq!(report.coverage, 1.0);
//! # Ok::<(), fnp_netsim::GenerateTopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod alpha;
pub mod protocol;
pub mod report;

pub use alpha::AlphaSchedule;
pub use protocol::{AdMessage, AdParams, AdaptiveDiffusionNode};
pub use report::{run_adaptive_diffusion_in, DiffusionReport};

#[cfg(test)]
mod proptests {
    use super::*;
    use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Regardless of seed, origin and (moderate) graph size, adaptive
        /// diffusion with a generous round budget reaches every node and the
        /// number of infection messages is at least n − 1.
        #[test]
        fn prop_generous_budget_reaches_everyone(
            n in 20usize..80,
            origin in 0usize..80,
            seed in any::<u64>(),
        ) {
            let n = if n % 2 == 1 { n + 1 } else { n };
            let origin = NodeId::new(origin % n);
            let mut rng = StdRng::seed_from_u64(seed);
            let graph = topology::random_regular(n, 4, &mut rng).unwrap();
            let report = run_adaptive_diffusion_in(
                &mut TrialArena::new(),
                graph,
                origin,
                AdParams { max_rounds: 128, ..AdParams::default() },
                SimConfig { seed, ..SimConfig::default() },
            );
            prop_assert_eq!(report.coverage, 1.0);
            prop_assert!(report.metrics.messages_of_kind("ad-infect") >= (n as u64) - 1);
        }
    }
}
