//! Read-side environment views handed to protocol cores.
//!
//! Effects flow *out* of a core through the [`Mailbox`](crate::Mailbox);
//! everything a core needs to *read* — its identity, neighbours, the clock,
//! the run RNG and its hot per-node lanes — flows in through these traits.
//! The simulator implements them on its [`Context`](crate::Context) (so the
//! SoA hot-lane storage keeps working unchanged), `fnp-node` implements them
//! on its standalone environment, and the trace replayer implements them on
//! a recorded view.

use crate::node::NodeId;
use crate::time::SimTime;
use rand::rngs::StdRng;

/// View of this node's hot lanes (seen flag, phase tag, counter slot).
///
/// The lanes are dense struct-of-arrays storage owned by the driver (see
/// [`HotState`](crate::HotState)); a core only ever touches *its own* node's
/// slots, which is exactly the surface this trait exposes. Keeping the
/// lanes behind a view trait is what lets cores stay pure while the
/// simulator keeps its cache-friendly SoA layout with zero behaviour
/// change.
pub trait HotLanes {
    /// This node's seen flag.
    fn seen(&self) -> bool;

    /// Sets this node's seen flag, returning the previous value.
    ///
    /// `if view.set_seen() { return; }` is the idiomatic prune check: it
    /// marks and tests in one lane access.
    fn set_seen(&mut self) -> bool;

    /// This node's phase tag.
    fn phase(&self) -> u8;

    /// Sets this node's phase tag.
    fn set_phase(&mut self, phase: u8);

    /// This node's general-purpose counter slot.
    fn counter_lane(&self) -> u32;

    /// Sets this node's counter slot.
    fn set_counter_lane(&mut self, value: u32);

    /// Whether a spread wave of `round` (or a later one) was already
    /// processed on this node.
    ///
    /// Wave-dedup protocols store the highest processed round in the
    /// counter lane encoded as `round + 1` (`0` = none yet); this helper
    /// and [`HotLanes::mark_round_seen`] single-source that encoding so
    /// call sites cannot drift off by one.
    fn round_seen(&self, round: u32) -> bool {
        self.counter_lane() > round
    }

    /// Records `round` as the highest spread-wave round processed on this
    /// node (see [`HotLanes::round_seen`] for the encoding).
    fn mark_round_seen(&mut self, round: u32) {
        self.set_counter_lane(round + 1);
    }
}

/// Everything a protocol core may read about its environment.
pub trait NodeView: HotLanes {
    /// The node this core is running as.
    fn node_id(&self) -> NodeId;

    /// Current time (simulated or wall-derived, depending on the driver).
    fn now(&self) -> SimTime;

    /// Overlay neighbours of this node, in deterministic (sorted) order.
    fn neighbors(&self) -> &[NodeId];

    /// Total number of nodes in the overlay.
    fn node_count(&self) -> usize;

    /// The run-wide random number generator.
    ///
    /// All protocol randomness must come from this generator; under the
    /// simulator driver it is the simulation RNG, which keeps runs
    /// reproducible under a fixed seed.
    fn rng(&mut self) -> &mut StdRng;
}
