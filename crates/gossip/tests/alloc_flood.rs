//! Pins the heap traffic of one flood on a warmed, reused trial arena.
//!
//! A counting [`GlobalAlloc`] wraps the system allocator. After a warm-up
//! trial has provisioned the arena's event queue, node vector, hot lanes
//! and metrics, a second identical flood is measured block for block and
//! byte for byte. The dispatch path contributes one mailbox buffer per
//! run; a per-node or per-dispatch buffer anywhere on it changes these
//! exact figures and fails the test.
//!
//! This file intentionally contains a single `#[test]`: the counters are
//! process-global, and a sibling test running concurrently would perturb
//! them.

use fnp_gossip::run_flood_in;
use fnp_netsim::{topology, NodeId, SimConfig, TrialArena};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Allocations made since process start (reallocations included).
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes handed out since process start; a reallocation counts its new
/// size and frees are not subtracted.
static BYTES: AtomicU64 = AtomicU64::new(0);

struct CountingAllocator;

fn count(bytes: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every operation is forwarded verbatim to the system allocator,
// which upholds the `GlobalAlloc` contract; the only addition is a pair of
// relaxed counter increments with no effect on the returned memory.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's own `alloc` contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: forwarded under the caller's own `alloc_zeroed` contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was returned by this allocator (which delegates to
        // `System`) with the same `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: forwarded under the caller's own `realloc` contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

fn snapshot() -> (u64, u64) {
    (
        ALLOCS.load(Ordering::Relaxed),
        BYTES.load(Ordering::Relaxed),
    )
}

#[test]
fn reused_arena_flood_heap_traffic_is_pinned() {
    const N: usize = 1_000;
    let graph = topology::random_regular(N, 8, &mut StdRng::seed_from_u64(5)).unwrap();
    let config = SimConfig {
        seed: 5,
        ..SimConfig::default()
    };
    let mut arena = TrialArena::new();
    let warm_up = run_flood_in(&mut arena, graph.clone(), NodeId::new(0), 1, config.clone());
    arena.recycle_metrics(warm_up);

    let before = snapshot();
    let metrics = run_flood_in(&mut arena, graph, NodeId::new(0), 1, config);
    let after = snapshot();
    let (allocs, bytes) = (after.0 - before.0, after.1 - before.1);

    assert_eq!(metrics.coverage(), 1.0);
    // 2 000 blocks of dissemination: the simulator's one mailbox (four
    // 32-byte effects), a 24-byte `Rc` payload per relaying node and a
    // 4-byte exclusion list per node but the origin. Then 2 boxes as the
    // arena takes back the node vector and the event wheel, and 11 event
    // bucket regrowths (the wheel rotates its bucket buffers, so a bucket
    // can meet a trial's peak with a smaller buffer than last time).
    // Debug builds box a larger wheel (it carries a shadow reference heap,
    // whose capacity the checkout reset keeps because the warm-up trial
    // peaked above the retain floor).
    let expected = if cfg!(debug_assertions) {
        (2_013, 160_660)
    } else {
        (2_013, 160_636)
    };
    assert_eq!(
        (allocs, bytes),
        expected,
        "flood on a warmed arena allocated {allocs} blocks / {bytes} bytes"
    );
}
