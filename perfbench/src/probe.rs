//! The host-speed probe: a fixed reference loop, timed between the
//! workload's calls, by which a run's times are scaled to a reference host
//! speed.
//!
//! The benchmark shares its host. Over seconds to minutes, neighbours on
//! the same cores and caches slow every memory-bound loop by up to a
//! quarter, and that drift, not the program, dominated the spread of
//! unscaled wall times between runs. The probe runs a loop that does not
//! change with the program — a pointer chase around a random cycle through
//! the cache lines of a 256 KiB buffer of its own, which sits in the
//! core's private caches once warm — between the workload's calls, and
//! records how long it took. The run's median chase time over
//! [`REFERENCE_S`] is its *slowdown*; end-to-end times are divided by it
//! and rates multiplied by it (see `report::end_to_end`), and the unscaled
//! figures are printed beside them.
//!
//! Of the loops tried on the `paper_grid` passes, this one tracked the
//! program best: scaled by it, the pass times of five runs spread 0.077
//! (coefficient of variation) against 0.126 unscaled, where a random
//! read-modify-write over the same buffer reached 0.099 and chases over
//! 1–16 MiB 0.090–0.37.
//!
//! Every probe first walks the whole cycle untimed, so what the workload
//! left in the caches cannot change the timed chases, and the time spent
//! probing is left out of the passes' wall time.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Cache lines in the probe's buffer: 256 KiB of 64-byte lines.
const LINES: usize = 4096;

/// `u32` slots per cache line; the chase uses the first slot of each.
const SLOTS_PER_LINE: usize = 16;

/// Steps per timed chase.
const STEPS: usize = 20_000;

/// Timed chases per probe, after the untimed warm-up walk.
const TIMED_CHASES: usize = 3;

/// The time of one chase at the reference host speed, in seconds: about
/// the median on the 2-vCPU Intel Xeon VM the benchmark was written on.
pub const REFERENCE_S: f64 = 125e-6;

/// Probe samples of one run.
#[derive(Debug)]
pub struct HostProbe {
    /// `next[line * SLOTS_PER_LINE]` holds the slot of the line after
    /// `line` on the cycle.
    next: Vec<u32>,
    samples: Vec<f64>,
    spent: Duration,
}

impl Default for HostProbe {
    fn default() -> Self {
        // A fixed random order of the lines (Fisher–Yates on xorshift64),
        // closed into one cycle, so every chase walks the same path.
        let mut order: Vec<usize> = (0..LINES).collect();
        let mut x = 0x9E37_79B9_7F4A_7C15_u64;
        for i in (1..LINES).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            order.swap(i, (x % (i as u64 + 1)) as usize);
        }
        let mut next = vec![0u32; LINES * SLOTS_PER_LINE];
        for (k, &line) in order.iter().enumerate() {
            let successor = order[(k + 1) % LINES];
            next[line * SLOTS_PER_LINE] = (successor * SLOTS_PER_LINE) as u32;
        }
        HostProbe {
            next,
            samples: Vec::new(),
            spent: Duration::ZERO,
        }
    }
}

impl HostProbe {
    /// Walks the cycle once to warm the buffer, then times
    /// [`TIMED_CHASES`] chases of [`STEPS`] steps.
    pub fn sample(&mut self) {
        let started = Instant::now();
        chase(&self.next, LINES);
        for _ in 0..TIMED_CHASES {
            let timed = Instant::now();
            chase(&self.next, STEPS);
            self.samples.push(timed.elapsed().as_secs_f64());
        }
        self.spent += started.elapsed();
    }

    /// Wall time spent in [`HostProbe::sample`] so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// Chases timed so far.
    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Median chase time in seconds (`REFERENCE_S` before any sample).
    pub fn median_s(&self) -> f64 {
        if self.samples.is_empty() {
            REFERENCE_S
        } else {
            crate::stats::median(&self.samples)
        }
    }

    /// How much slower than the reference speed the host ran: the median
    /// chase time over [`REFERENCE_S`].
    pub fn slowdown(&self) -> f64 {
        self.median_s() / REFERENCE_S
    }
}

/// Follows the cycle for `steps` steps from line 0; each load waits for the
/// one before it.
fn chase(next: &[u32], steps: usize) -> u32 {
    let mut slot = black_box(0u32);
    for _ in 0..steps {
        slot = next[slot as usize];
    }
    black_box(slot)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_chase_visits_every_line_once_per_cycle() {
        let probe = HostProbe::default();
        let mut seen = vec![false; LINES];
        let mut slot = 0usize;
        for _ in 0..LINES {
            assert_eq!(slot % SLOTS_PER_LINE, 0);
            assert!(!seen[slot / SLOTS_PER_LINE], "line visited twice");
            seen[slot / SLOTS_PER_LINE] = true;
            slot = probe.next[slot] as usize;
        }
        assert_eq!(slot, 0, "the walk closes after every line");
        assert_eq!(chase(&probe.next, LINES), 0);
    }

    #[test]
    fn probe_records_timed_chases_and_the_time_spent() {
        let mut probe = HostProbe::default();
        assert_eq!((probe.samples(), probe.slowdown()), (0, 1.0));
        probe.sample();
        probe.sample();
        assert_eq!(probe.samples(), 2 * TIMED_CHASES);
        assert!(probe.median_s() > 0.0);
        assert!(probe.spent().as_secs_f64() >= probe.median_s() * (2 * TIMED_CHASES) as f64);
    }
}
