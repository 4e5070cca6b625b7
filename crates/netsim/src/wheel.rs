//! Bucketed time-wheel event queue.
//!
//! The simulator used to order its event queue with one global
//! `BinaryHeap`, paying `O(log q)` per push and pop where `q` is the number
//! of in-flight events. A million-node flood keeps millions of deliveries
//! in flight at once, so the heap's pointer-chasing comparisons become one
//! of the dominant superlinear costs of large trials.
//!
//! A [`TimeWheel`] exploits what the heap ignores: all latency models are
//! *bounded* ([`LatencyModel::max_delay`](crate::LatencyModel::max_delay)),
//! so an event is almost always scheduled within a known horizon of the
//! current time. The wheel divides that horizon into [`SLOTS`] buckets of
//! fixed width (derived from the model via [`width_for`]);
//! pushing an event is an `O(1)` append to its bucket, and popping sorts
//! one bucket at a time — `O(log b)` amortised for bucket occupancy `b`,
//! independent of the total number of queued events.
//!
//! Three auxiliary structures keep the wheel *exactly* equivalent to the
//! heap (pop order is strictly ascending `(at, seq)`):
//!
//! * an `incoming` min-heap for events that land in the bucket currently
//!   being drained (a handler at time `t` may schedule for `t + 1`, which
//!   can fall into the same bucket — appending to the already-sorted
//!   bucket would break ordering);
//! * an `overflow` min-heap for events beyond the wheel horizon (long
//!   timers); when every bucket has drained, the window advances and the
//!   overflow spills back into the buckets;
//! * in debug builds, a shadow `BinaryHeap` of `(at, seq)` keys mirrors
//!   every push, and every pop `debug_assert!`s that the wheel returns
//!   exactly the key the reference heap would have returned — the entire
//!   pre-wheel implementation is retained as an executable cross-check
//!   that the whole test suite exercises.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Number of buckets in one wheel rotation.
///
/// With the width from [`TimeWheel::width_for`], one rotation spans four
/// times the latency model's maximum delay, so deliveries never overflow
/// and only long protocol timers take the overflow-heap path.
const SLOTS: usize = 256;

/// How many buckets the model's maximum delay spans (horizon divisor in
/// [`width_for`]).
const BUCKETS_PER_MAX_DELAY: u64 = 64;

/// Retained capacity is clamped on [`TimeWheel::reset`] when it exceeds
/// this factor times the peak occupancy of the trial that just ended
/// (mirrors `SCRATCH_CLAMP_FACTOR` in the topology generators).
const WHEEL_CLAMP_FACTOR: usize = 4;

/// Capacity below this many items is never worth shrinking.
const WHEEL_RETAIN_FLOOR: usize = 256;

/// The bucket width for a latency model whose largest delay is `max_delay`:
/// one wheel rotation then covers four times the model bound, so every
/// delivery scheduled from the current time lands within the rotation.
pub(crate) fn width_for(max_delay: SimTime) -> SimTime {
    (max_delay / BUCKETS_PER_MAX_DELAY).max(1)
}

/// An event that can be scheduled on a [`TimeWheel`].
///
/// `key` must be unique per queued item (the simulator's `(at, seq)` pair),
/// which makes the pop order a total order.
pub(crate) trait WheelItem {
    /// The `(time, tie-break)` ordering key.
    fn key(&self) -> (SimTime, u64);

    /// The scheduled time (first key component).
    fn at(&self) -> SimTime {
        self.key().0
    }
}

/// Wrapper ordering items by [`WheelItem::key`] (needed because payloads
/// themselves are not `Ord`).
#[derive(Debug)]
struct ByKey<T>(T);

impl<T: WheelItem> PartialEq for ByKey<T> {
    fn eq(&self, other: &Self) -> bool {
        self.0.key() == other.0.key()
    }
}
impl<T: WheelItem> Eq for ByKey<T> {}
impl<T: WheelItem> PartialOrd for ByKey<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T: WheelItem> Ord for ByKey<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.key().cmp(&other.0.key())
    }
}

/// Bucketed time-wheel priority queue over `(at, seq)` keys; see the
/// [module documentation](self).
#[derive(Debug)]
pub(crate) struct TimeWheel<T> {
    /// Bucket width in simulated time units (≥ 1).
    width: SimTime,
    /// Simulated time of bucket 0's lower edge for the current rotation.
    window_start: SimTime,
    /// Index of the bucket currently being drained.
    cursor: usize,
    /// The fixed ring of buckets (push order; sorted on drain).
    slots: Vec<Vec<ByKey<T>>>,
    /// The cursor bucket, sorted *descending* so the minimum pops off the
    /// end in `O(1)` without moving the rest.
    current: Vec<ByKey<T>>,
    /// Events at or before the cursor bucket's upper edge, pushed after
    /// the bucket was sorted.
    incoming: BinaryHeap<Reverse<ByKey<T>>>,
    /// Events beyond the current rotation's horizon.
    overflow: BinaryHeap<Reverse<ByKey<T>>>,
    /// Total queued events.
    len: usize,
    /// Largest `len` observed since the last [`TimeWheel::reset`]; the
    /// reset-time capacity clamp sizes retained allocations against it.
    peak_len: usize,
    /// Reference implementation (the pre-wheel global heap), mirrored on
    /// every push and checked on every pop in debug builds.
    #[cfg(debug_assertions)]
    shadow: BinaryHeap<Reverse<(SimTime, u64)>>,
}

impl<T: WheelItem> Default for TimeWheel<T> {
    fn default() -> Self {
        Self::empty()
    }
}

impl<T: WheelItem> TimeWheel<T> {
    /// Creates an empty wheel with a placeholder bucket width; call
    /// [`TimeWheel::reset`] with the model-derived width before use. The
    /// ring always holds [`SLOTS`] buckets (empty `Vec`s allocate nothing),
    /// so even an un-reset wheel is safe to push to and pop from.
    pub(crate) fn empty() -> Self {
        Self {
            width: 1,
            window_start: 0,
            cursor: 0,
            slots: std::iter::repeat_with(Vec::new).take(SLOTS).collect(),
            current: Vec::new(),
            incoming: BinaryHeap::new(),
            overflow: BinaryHeap::new(),
            len: 0,
            peak_len: 0,
            #[cfg(debug_assertions)]
            shadow: BinaryHeap::new(),
        }
    }

    /// Drops all queued events and re-arms the wheel with `width`, keeping
    /// the bucket allocations (the arena-recycling path) — unless they are
    /// more than [`WHEEL_CLAMP_FACTOR`]× oversized for the trial that just
    /// ended, in which case they shrink to its peak occupancy. Without the
    /// clamp a single million-node trial would pin hundreds of megabytes of
    /// bucket and heap capacity in the arena pool for the rest of the
    /// process, even if every later trial is a thousand times smaller.
    pub(crate) fn reset(&mut self, width: SimTime) {
        // Peak occupancy spread over the ring approximates per-bucket need;
        // the clamp factor absorbs the skew of non-uniform delay spreads.
        let per_slot = (self.peak_len / SLOTS).max(WHEEL_RETAIN_FLOOR);
        let per_heap = self.peak_len.max(WHEEL_RETAIN_FLOOR);
        for slot in &mut self.slots {
            slot.clear();
            if slot.capacity() > per_slot * WHEEL_CLAMP_FACTOR {
                slot.shrink_to(per_slot);
            }
        }
        self.slots.resize_with(SLOTS, Vec::new);
        self.current.clear();
        if self.current.capacity() > per_slot * WHEEL_CLAMP_FACTOR {
            self.current.shrink_to(per_slot);
        }
        self.incoming.clear();
        if self.incoming.capacity() > per_heap * WHEEL_CLAMP_FACTOR {
            self.incoming.shrink_to(per_heap);
        }
        self.overflow.clear();
        if self.overflow.capacity() > per_heap * WHEEL_CLAMP_FACTOR {
            self.overflow.shrink_to(per_heap);
        }
        self.width = width.max(1);
        self.window_start = 0;
        self.cursor = 0;
        self.len = 0;
        self.peak_len = 0;
        #[cfg(debug_assertions)]
        {
            self.shadow.clear();
            if self.shadow.capacity() > per_heap * WHEEL_CLAMP_FACTOR {
                self.shadow.shrink_to(per_heap);
            }
        }
    }

    /// Number of queued events (test hook).
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Upper edge of the cursor bucket: events strictly below it can no
    /// longer be appended to the (already sorted) bucket and go through
    /// the incoming heap instead.
    fn cursor_end(&self) -> SimTime {
        self.window_start
            .saturating_add(self.width.saturating_mul(self.cursor as SimTime + 1))
    }

    /// Schedules `item`.
    pub(crate) fn push(&mut self, item: T) {
        self.len += 1;
        self.peak_len = self.peak_len.max(self.len);
        #[cfg(debug_assertions)]
        self.shadow.push(Reverse(item.key()));
        self.route(ByKey(item));
    }

    /// Opens a bulk-push session for scheduling a burst of events (a
    /// broadcast fan-out). Pushing never moves the cursor or the window, so
    /// the session computes the bucket-routing threshold once instead of
    /// per event; the exclusive borrow guarantees no pop can intervene and
    /// invalidate it.
    pub(crate) fn bulk(&mut self) -> BulkPush<'_, T> {
        let cursor_end = self.cursor_end();
        BulkPush {
            cursor_end,
            wheel: self,
        }
    }

    /// Files `item` into the right structure for its scheduled time.
    fn route(&mut self, item: ByKey<T>) {
        let cursor_end = self.cursor_end();
        self.route_within(item, cursor_end);
    }

    /// [`TimeWheel::route`] with the cursor bucket's upper edge already
    /// computed (it is invariant across pushes, so bulk sessions hoist it).
    fn route_within(&mut self, item: ByKey<T>, cursor_end: SimTime) {
        let at = item.0.at();
        if at < cursor_end {
            // Current bucket (or, after a window jump, before it).
            self.incoming.push(Reverse(item));
            return;
        }
        // `at >= cursor_end > window_start`, so the subtraction is safe.
        let offset = (at - self.window_start) / self.width;
        if offset >= SLOTS as SimTime {
            self.overflow.push(Reverse(item));
        } else {
            // offset < SLOTS = 256, so the cast is lossless.
            #[allow(clippy::cast_possible_truncation)]
            self.slots[offset as usize].push(item);
        }
    }

    /// Advances the cursor until the next event is reachable from the
    /// current bucket or the incoming heap (or the wheel is empty).
    fn ensure_ready(&mut self) {
        loop {
            if !self.current.is_empty() || !self.incoming.is_empty() {
                return;
            }
            // Scanning from `cursor` (not `cursor + 1`) is required for the
            // saturation edge: when `cursor_end` caps at `SimTime::MAX`, an
            // event at exactly `SimTime::MAX` routes into the cursor slot
            // itself instead of the incoming heap. Mid-rotation the cursor
            // slot is empty (its contents were swapped into `current`), so
            // the wider scan never re-reads drained events.
            if let Some(next) = (self.cursor..SLOTS).find(|&j| !self.slots[j].is_empty()) {
                self.cursor = next;
                // The drained (but capacity-holding) buffer swaps back into
                // the ring for reuse.
                std::mem::swap(&mut self.current, &mut self.slots[next]);
                self.current.sort_unstable_by(|a, b| b.cmp(a));
                return;
            }
            // The whole rotation has drained: start the next window at the
            // earliest overflow event and spill everything within reach
            // back into the buckets.
            let Some(Reverse(earliest)) = self.overflow.peek() else {
                return;
            };
            self.window_start = earliest.0.at();
            self.cursor = 0;
            while let Some(Reverse(item)) = self.overflow.peek() {
                let offset = (item.0.at() - self.window_start) / self.width;
                if offset >= SLOTS as SimTime {
                    break;
                }
                let Some(Reverse(item)) = self.overflow.pop() else {
                    unreachable!("peek() just returned an item")
                };
                self.route(item);
            }
            // The earliest spilled event landed at or before the new
            // cursor bucket, so the next iteration returns through the
            // incoming heap.
        }
    }

    /// The scheduled time of the next event, without removing it.
    pub(crate) fn next_at(&mut self) -> Option<SimTime> {
        self.ensure_ready();
        let bucket_head = self.current.last();
        let incoming_head = self.incoming.peek().map(|Reverse(item)| item);
        match (bucket_head, incoming_head) {
            (Some(b), Some(i)) => Some(b.0.at().min(i.0.at())),
            (Some(b), None) => Some(b.0.at()),
            (None, Some(i)) => Some(i.0.at()),
            (None, None) => None,
        }
    }

    /// Removes and returns the event with the smallest `(at, seq)` key.
    pub(crate) fn pop(&mut self) -> Option<T> {
        self.ensure_ready();
        let bucket_key = self.current.last().map(|item| item.0.key());
        let incoming_key = self.incoming.peek().map(|Reverse(item)| item.0.key());
        let from_bucket = match (bucket_key, incoming_key) {
            (Some(b), Some(i)) => b < i,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (None, None) => return None,
        };
        let item = if from_bucket {
            let Some(item) = self.current.pop() else {
                unreachable!("last() just returned an item")
            };
            item.0
        } else {
            let Some(Reverse(item)) = self.incoming.pop() else {
                unreachable!("peek() just returned an item")
            };
            item.0
        };
        self.len -= 1;
        #[cfg(debug_assertions)]
        {
            let expected = self.shadow.pop().map(|Reverse(key)| key);
            debug_assert_eq!(
                Some(item.key()),
                expected,
                "time-wheel pop order diverged from the reference heap"
            );
        }
        Some(item)
    }

    /// Total retained item capacity across buckets and heaps (test hook for
    /// the capacity-clamp regression suite).
    #[cfg(test)]
    fn retained_capacity(&self) -> usize {
        self.slots.iter().map(Vec::capacity).sum::<usize>()
            + self.current.capacity()
            + self.incoming.capacity()
            + self.overflow.capacity()
    }
}

/// An open bulk-push session on a [`TimeWheel`]; see [`TimeWheel::bulk`].
///
/// Holds the wheel exclusively for its lifetime, so the routing threshold
/// cached at open time stays valid for every push in the burst. Dropping
/// the session ends it; there is nothing to flush, since every push lands
/// in its final structure immediately.
#[derive(Debug)]
pub(crate) struct BulkPush<'a, T> {
    /// The wheel being pushed into.
    wheel: &'a mut TimeWheel<T>,
    /// Upper edge of the cursor bucket, hoisted out of the per-push path
    /// (invariant while the session holds the wheel).
    cursor_end: SimTime,
}

impl<T: WheelItem> BulkPush<'_, T> {
    /// Schedules `item`; equivalent to [`TimeWheel::push`].
    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        self.wheel.len += 1;
        self.wheel.peak_len = self.wheel.peak_len.max(self.wheel.len);
        #[cfg(debug_assertions)]
        self.wheel.shadow.push(Reverse(item.key()));
        self.wheel.route_within(ByKey(item), self.cursor_end);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    impl WheelItem for (SimTime, u64) {
        fn key(&self) -> (SimTime, u64) {
            *self
        }
    }

    /// Pops everything and checks the order is strictly ascending `(at,
    /// seq)` — i.e. exactly what the reference heap would produce (the
    /// debug-build shadow heap re-checks this internally on every pop).
    fn drain_sorted(wheel: &mut TimeWheel<(SimTime, u64)>) -> Vec<(SimTime, u64)> {
        let mut out = Vec::new();
        while let Some(item) = wheel.pop() {
            out.push(item);
        }
        let mut expected = out.clone();
        expected.sort_unstable();
        assert_eq!(out, expected, "pop order must be ascending (at, seq)");
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.pop(), None);
        out
    }

    #[test]
    fn pops_in_key_order_across_buckets() {
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        for (seq, at) in [5u64, 2500, 17, 0, 9999, 17, 3, 640]
            .into_iter()
            .enumerate()
        {
            wheel.push((at, seq as u64));
        }
        let order = drain_sorted(&mut wheel);
        assert_eq!(order.len(), 8);
        assert_eq!(order[0], (0, 3));
        // Equal times pop in seq order.
        assert_eq!(order[3], (17, 2));
        assert_eq!(order[4], (17, 5));
    }

    #[test]
    fn pushes_into_the_current_bucket_stay_ordered() {
        // A handler popping at time t schedules for t+1, which lands in the
        // bucket currently being drained — the incoming heap must keep the
        // merge ordered.
        let mut wheel = TimeWheel::empty();
        wheel.reset(100);
        wheel.push((10, 0));
        wheel.push((90, 1));
        assert_eq!(wheel.pop(), Some((10, 0)));
        wheel.push((11, 2));
        wheel.push((95, 3));
        assert_eq!(wheel.pop(), Some((11, 2)));
        assert_eq!(wheel.pop(), Some((90, 1)));
        assert_eq!(wheel.pop(), Some((95, 3)));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn far_future_timers_rewindow_through_overflow() {
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        // Far beyond the 256-slot horizon (and one at u64::MAX to exercise
        // the saturating window arithmetic).
        wheel.push((1_000_000, 0));
        wheel.push((1_000_005, 1));
        wheel.push((40, 2));
        wheel.push((SimTime::MAX, 3));
        assert_eq!(
            drain_sorted(&mut wheel),
            vec![(40, 2), (1_000_000, 0), (1_000_005, 1), (SimTime::MAX, 3)]
        );
    }

    #[test]
    fn interleaved_push_pop_matches_reference_heap() {
        // Randomised workload mimicking a simulation: pop one event, push a
        // few delayed follow-ups, repeat. The debug-build shadow heap
        // asserts heap equivalence on every single pop.
        let mut rng = StdRng::seed_from_u64(42);
        let mut wheel = TimeWheel::empty();
        wheel.reset(width_for(1050));
        let mut seq = 0u64;
        let mut now = 0;
        for _ in 0..50 {
            wheel.push((rng.gen_range(1..1000), seq));
            seq += 1;
        }
        let mut popped = 0usize;
        let mut total = 50usize;
        while let Some((at, _)) = wheel.pop() {
            assert!(at >= now, "pop order went backwards");
            now = at;
            popped += 1;
            if total < 5000 {
                for _ in 0..rng.gen_range(0..3) {
                    // Mostly bounded-latency deliveries, occasionally a
                    // long timer that must take the overflow path.
                    let delay = if rng.gen_range(0..20) == 0 {
                        rng.gen_range(10_000..500_000)
                    } else {
                        rng.gen_range(1..1050)
                    };
                    wheel.push((now + delay, seq));
                    seq += 1;
                    total += 1;
                }
            }
        }
        assert_eq!(popped, total);
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn next_at_previews_without_removing() {
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        assert_eq!(wheel.next_at(), None);
        wheel.push((70, 0));
        wheel.push((30, 1));
        assert_eq!(wheel.next_at(), Some(30));
        assert_eq!(wheel.len(), 2);
        assert_eq!(wheel.pop(), Some((30, 1)));
        assert_eq!(wheel.next_at(), Some(70));
    }

    #[test]
    fn reset_and_clear_drop_pending_events() {
        let mut wheel = TimeWheel::empty();
        wheel.reset(10);
        wheel.push((5, 0));
        wheel.push((500_000, 1));
        wheel.reset(10);
        assert_eq!(wheel.len(), 0);
        assert_eq!(wheel.pop(), None);
        // Re-armed after the reset, including for events that were beyond
        // the previous horizon.
        wheel.push((9, 2));
        assert_eq!(wheel.pop(), Some((9, 2)));
        wheel.reset(1);
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn bulk_push_matches_individual_pushes() {
        // Two wheels fed the same events — one per-push, one through a bulk
        // session opened mid-drain (the broadcast fan-out pattern) — must
        // pop identically. The debug shadow heap re-checks each pop too.
        let mut rng = StdRng::seed_from_u64(7);
        let events: Vec<(SimTime, u64)> = (0..500)
            .map(|seq| (rng.gen_range(0..100_000), seq))
            .collect();
        let mut single = TimeWheel::empty();
        let mut bulk = TimeWheel::empty();
        single.reset(width_for(1050));
        bulk.reset(width_for(1050));
        for &event in &events[..250] {
            single.push(event);
            bulk.push(event);
        }
        // Drain a little so both wheels are mid-rotation with a sorted
        // current bucket before the burst arrives.
        for _ in 0..50 {
            assert_eq!(single.pop(), bulk.pop());
        }
        {
            let mut session = bulk.bulk();
            for &event in &events[250..] {
                session.push(event);
            }
        }
        for &event in &events[250..] {
            single.push(event);
        }
        assert_eq!(drain_sorted(&mut single), drain_sorted(&mut bulk));
    }

    #[test]
    fn reset_clamps_capacity_after_a_large_trial() {
        // Grow-then-shrink-then-grow: a large trial's reset retains its
        // capacity for reuse (the peak matches the demand), but the reset
        // after a subsequent small trial must release it — otherwise one
        // 10⁶-node trial pins hundreds of megabytes in the arena pool for
        // the rest of the process.
        let mut wheel = TimeWheel::empty();
        wheel.reset(width_for(1050));
        let large = 1_000_000usize;
        for seq in 0..large {
            let seq = seq as u64;
            wheel.push((seq % 4000, seq));
        }
        wheel.reset(width_for(1050));
        let after_large = wheel.retained_capacity();
        let bound = 1000 * WHEEL_CLAMP_FACTOR + SLOTS * WHEEL_RETAIN_FLOOR * WHEEL_CLAMP_FACTOR;
        assert!(
            after_large >= large / 2,
            "large-trial capacity should be retained for reuse, got {after_large}"
        );
        assert!(
            after_large > bound,
            "large-trial capacity {after_large} must exceed the small-trial bound {bound} \
             for the shrink assertion below to be meaningful"
        );
        // Small trial: its reset sees a small peak and shrinks the pool.
        for seq in 0..1000u64 {
            wheel.push((seq % 4000, seq));
        }
        wheel.reset(width_for(1050));
        let after_small = wheel.retained_capacity();
        assert!(
            after_small <= bound,
            "retained capacity {after_small} exceeds clamp bound {bound}"
        );
        // Growing again after the clamp still works.
        for seq in 0..10_000u64 {
            wheel.push((seq % 4000, seq));
        }
        assert_eq!(wheel.len(), 10_000);
        drain_sorted(&mut wheel);
    }

    #[test]
    fn arena_round_trip_keeps_the_capacity_the_last_trial_needed() {
        // A pooled wheel is reset once, at checkout, against the peak of
        // the trial that just ended; a second reset on the way into the
        // pool would clamp against a peak of zero and shrink every large
        // slot or heap to the retain floor.
        let mut arena = crate::arena::TrialArena::new();
        let mut wheel: TimeWheel<(SimTime, u64)> = arena.take_queue();
        wheel.reset(10);
        for seq in 0..2000u64 {
            wheel.push((1_000_000 + seq, seq));
        }
        assert_eq!(wheel.overflow.len(), 2000, "events beyond the horizon");
        arena.store_queue(wheel);
        let mut wheel: TimeWheel<(SimTime, u64)> = arena.take_queue();
        wheel.reset(10);
        assert_eq!(wheel.len(), 0, "the checkout reset drops leftovers");
        assert!(
            wheel.overflow.capacity() >= 2000,
            "overflow capacity {} shrank below the last trial's 2000 events",
            wheel.overflow.capacity()
        );
    }

    #[test]
    fn width_for_covers_the_model_bound() {
        assert_eq!(width_for(0), 1);
        assert_eq!(width_for(64), 1);
        assert_eq!(width_for(6400), 100);
        // A full rotation spans at least 4× the model bound.
        let width = width_for(1_050_000);
        assert!(width * SLOTS as SimTime >= 4 * 1_050_000 - SLOTS as SimTime);
    }
}
