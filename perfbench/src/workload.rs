//! What the three workloads share: the measurement loop and its record.

use crate::checks::Checks;
use std::time::Duration;

/// Wall time and work of one measurement pass.
///
/// Each pass runs the workload on inputs of its own ([`pass_seed`]), so a
/// run covers several input sets and its figures depend less on one draw.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Pass {
    /// Wall time of the pass, without the correctness checks and host
    /// probes made in it.
    pub wall: Duration,
    /// Time spent in set-up calls (overlay builds, diameter estimate,
    /// prototype construction).
    pub setup: Duration,
    /// Time spent in broadcast calls.
    pub broadcast: Duration,
    /// Broadcasts completed: grid trials (`paper_grid`), floods
    /// (`flood_1m`) or injected transactions (`steady_load`).
    pub broadcasts: u64,
}

/// The outcome of measuring one workload.
#[derive(Debug)]
pub struct Measured {
    /// Every pass made, in order.
    pub passes: Vec<Pass>,
    /// Correctness checks made during and after the passes.
    pub checks: Checks,
    /// Peak resident memory in kB at the end of the first pass
    /// ([`measure`]).
    pub peak_rss_kb: Option<u64>,
    /// The host's slowdown over the passes, from the probes made between
    /// their calls (`probe::HostProbe::slowdown`).
    pub slowdown: f64,
}

/// Runs `pass` repeatedly for about `budget` of pass wall time: at least
/// once, and again only while another pass of median length would still
/// end within it. Returns the passes and the peak resident memory in kB
/// at the end of the first pass.
///
/// The peak is read after one pass — the library's own inputs at the
/// workload seed, as one experiment run in a fresh process sees them —
/// because later passes reuse memory the allocator kept, and how much
/// that adds would follow the host's speed through the number of passes.
pub fn measure(budget: Duration, mut pass: impl FnMut(usize) -> Pass) -> (Vec<Pass>, Option<u64>) {
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_kb = None;
    loop {
        let index = passes.len();
        let record = pass(index);
        eprintln!(
            "pass {index}: wall {:.3} s, set-up {:.3} s, broadcast {:.3} s",
            record.wall.as_secs_f64(),
            record.setup.as_secs_f64(),
            record.broadcast.as_secs_f64()
        );
        passes.push(record);
        if index == 0 {
            peak_rss_kb = crate::host::peak_rss_kb();
        }
        let walls: Vec<f64> = passes.iter().map(|p| p.wall.as_secs_f64()).collect();
        let spent: f64 = walls.iter().sum();
        if spent + crate::stats::median(&walls) > budget.as_secs_f64() {
            return (passes, peak_rss_kb);
        }
    }
}

/// The base seed handed to the library for pass `pass` of a run with
/// workload seed `seed`. Pass 0 uses the seed itself, so seed `1` runs the
/// inputs `bench_baseline` records; later passes set bits above 2^40, and
/// the seed is kept below 2^40, so no two (seed, pass) pairs share a base
/// seed and the per-trial seed formulas cannot overflow.
pub fn pass_seed(seed: u64, pass: usize) -> u64 {
    (seed & ((1 << 40) - 1)) + ((pass as u64) << 40)
}
