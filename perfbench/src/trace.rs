//! Spans around the benchmark's calls into each layer.
//!
//! A [`Recorder`] times every call the workloads make into a layer's
//! public function. Untraced, it reads the clock and nothing else: the
//! end-to-end figures need those durations anyway. Traced, it also keeps
//! a [`Span`] per call — name, start, end, parent, pass and trial id —
//! with the allocation-count and allocated-byte deltas across the call and
//! the work counters the call reported. Spans stay in memory until the run
//! ends.

use fnp_netsim::Metrics;
use std::time::{Duration, Instant};

/// Reads the process-wide `(allocation count, allocated bytes)` totals.
/// Only the traced binary installs a counting allocator that provides one.
pub type AllocSnapshot = fn() -> (u64, u64);

/// Exact work counters recorded at a span's boundary.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Simulator events processed.
    pub events: u64,
    /// Messages sent.
    pub messages: u64,
    /// Bytes sent.
    pub bytes_sent: u64,
    /// Transmission-trace entries recorded.
    pub trace_entries: u64,
    /// Transactions injected.
    pub tx: u64,
    /// Delivery-latency samples collected.
    pub latency_samples: u64,
    /// A high-water mark reported by the call (transactions in flight, or
    /// mempool occupancy).
    pub peak: u64,
}

impl Counters {
    /// The simulator counters of one finished broadcast call.
    pub fn of(metrics: &Metrics) -> Self {
        Self {
            events: metrics.events_processed,
            messages: metrics.messages_sent,
            bytes_sent: metrics.bytes_sent,
            trace_entries: metrics.trace.len() as u64,
            ..Self::default()
        }
    }
}

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer name, e.g. `"overlay"` or `"sim"`.
    pub name: &'static str,
    /// Protocol label, or `""` where none applies.
    pub protocol: &'static str,
    /// Arrival rate in tx/s for steady-state calls, else `0`.
    pub rate: u32,
    /// Measurement pass the call belongs to.
    pub pass: usize,
    /// Trial (or session) id shared by the spans of one trial.
    pub trial: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Allocations made during the call.
    pub allocs: u64,
    /// Bytes allocated during the call (frees are not subtracted).
    pub alloc_bytes: u64,
    /// Work counters the call reported.
    pub counters: Counters,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// An open span, returned by [`Recorder::begin`] and closed by
/// [`Recorder::end`].
#[must_use = "close the span with Recorder::end"]
pub struct Open {
    started: Instant,
    slot: Option<usize>,
    allocs_before: (u64, u64),
}

/// Times calls and, when traced, records them as spans.
pub struct Recorder {
    traced: bool,
    alloc: Option<AllocSnapshot>,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    pass: usize,
    trial: u64,
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

impl Recorder {
    /// A recorder that only times calls.
    pub fn untraced() -> Self {
        Self::new(false, None)
    }

    /// A recorder that keeps spans, with allocation deltas when `alloc` is
    /// given.
    pub fn traced(alloc: Option<AllocSnapshot>) -> Self {
        Self::new(true, alloc)
    }

    fn new(traced: bool, alloc: Option<AllocSnapshot>) -> Self {
        Self {
            traced,
            alloc,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            pass: 0,
            trial: 0,
        }
    }

    /// Sets the pass the following spans belong to.
    pub fn set_pass(&mut self, pass: usize) {
        self.pass = pass;
    }

    /// Sets the trial id the following spans share.
    pub fn set_trial(&mut self, trial: u64) {
        self.trial = trial;
    }

    /// Opens a span; nested `begin`/`end` pairs become its children.
    pub fn begin(&mut self, name: &'static str, protocol: &'static str, rate: u32) -> Open {
        if !self.traced {
            return Open {
                started: Instant::now(),
                slot: None,
                allocs_before: (0, 0),
            };
        }
        let slot = self.spans.len();
        self.spans.push(Span {
            name,
            protocol,
            rate,
            pass: self.pass,
            trial: self.trial,
            parent: self.open.last().copied(),
            start_ns: 0,
            end_ns: 0,
            allocs: 0,
            alloc_bytes: 0,
            counters: Counters::default(),
        });
        self.open.push(slot);
        let allocs_before = self.alloc.map_or((0, 0), |snapshot| snapshot());
        let started = Instant::now();
        self.spans[slot].start_ns = nanos(started - self.epoch);
        Open {
            started,
            slot: Some(slot),
            allocs_before,
        }
    }

    /// Closes `open`, attaching `counters`, and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of nesting order.
    pub fn end(&mut self, open: Open, counters: Counters) -> Duration {
        let ended = Instant::now();
        let elapsed = ended - open.started;
        if let Some(slot) = open.slot {
            let (allocs, bytes) = self.alloc.map_or((0, 0), |snapshot| snapshot());
            assert_eq!(self.open.pop(), Some(slot), "spans close in nesting order");
            let span = &mut self.spans[slot];
            span.end_ns = nanos(ended - self.epoch);
            span.allocs = allocs - open.allocs_before.0;
            span.alloc_bytes = bytes - open.allocs_before.1;
            span.counters = counters;
        }
        elapsed
    }

    /// The recorded spans, in opening order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, by index: its duration minus the part of it
/// that its child spans cover (overlapping children are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for child in spans {
        if let Some(parent) = child.parent {
            let outer = &spans[parent];
            let start = child.start_ns.max(outer.start_ns);
            let end = child.end_ns.min(outer.end_ns);
            if start < end {
                children[parent].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}
