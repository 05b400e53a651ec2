//! Time-ordered event queue with deterministic tie-breaking.
//!
//! The queue pops in one total order — `(time, scheduling sequence)`,
//! i.e. FIFO among events scheduled for the same instant. It is a
//! **calendar queue**: a two-level bucketed time wheel. Discrete-event
//! simulations schedule almost every event a short, fixed distance
//! ahead (`now + hop_delay`, the τ tick), so a ring of 1 ms buckets
//! covering the next ~4 s absorbs nearly all traffic with O(1)
//! amortized push/pop; the rare far-future event (a long deadline)
//! waits in an overflow binary heap and migrates into the ring when its
//! bucket comes up. Events scheduled for exactly the current instant
//! bypass the ring through a FIFO lane, which keeps the extremely
//! common `schedule_at(now, …)` pattern (queue drains, immediate
//! injections) allocation-free and comparison-free.
//!
//! The tie-break contract is part of the simulator's determinism
//! guarantee: runs are bit-reproducible regardless of the queue's
//! internals. The tests pin the pop sequence against a plain
//! `BinaryHeap` of `(time, lane, seq)` keys, the reference model (here
//! and in the workspace's `tests/property_tests.rs`).
//!
//! # The world lane
//!
//! Dynamic-world simulations apply *environment* events — a hub outage,
//! a channel closing, a liquidity rebalance — at fixed timestamps, and
//! the outcome must not depend on how many ordinary protocol events
//! happen to share the instant. [`EventQueue::schedule_world_at`] puts
//! an event on the **world lane**: the total order becomes
//! `(time, lane, seq)` with the world lane first, so at any timestamp
//! every world event pops before every normal event, regardless of
//! scheduling order. Within a lane, ties stay FIFO.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use pcn_types::{SimDuration, SimTime};

/// Which priority lane an event occupies at its timestamp. At equal
/// times, [`Lane::World`] events pop before [`Lane::Normal`] ones;
/// within a lane, ties pop FIFO (scheduling order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Lane {
    /// Environment mutations (topology/liquidity/traffic timeline).
    World,
    /// Ordinary simulation events.
    Normal,
}

#[derive(Debug)]
struct Scheduled<E> {
    time: SimTime,
    lane: Lane,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.lane == other.lane && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .cmp(&other.time)
            .then(self.lane.cmp(&other.lane))
            .then(self.seq.cmp(&other.seq))
    }
}

/// log2 of the calendar bucket width in microseconds (1024 µs ≈ 1 ms).
const BUCKET_BITS: u32 = 10;
/// Number of ring buckets; the ring spans `NUM_BUCKETS << BUCKET_BITS`
/// microseconds (~4.19 s) ahead of the staged bucket.
const NUM_BUCKETS: usize = 4096;
const BITMAP_WORDS: usize = NUM_BUCKETS / 64;

/// Absolute (virtual) bucket number of a time.
fn vbucket(t: SimTime) -> u64 {
    t.as_micros() >> BUCKET_BITS
}

/// The bucketed time wheel. See the module docs for the design; the
/// invariants are:
///
/// * `staged` holds the events of virtual bucket `cur_vb`, sorted by
///   `(time, lane, seq)`; `now` never precedes the staged bucket's start.
/// * `at_now` holds **normal-lane** events scheduled for exactly `now`,
///   in scheduling order. Every normal event already staged for time
///   `now` carries a smaller `seq` than any `at_now` event (it was
///   scheduled strictly earlier), so popping staged-events-at-`now`
///   first preserves global FIFO; world-lane events always take the
///   sorted staged path, so lane priority holds at `now` too.
/// * Ring bucket `b % NUM_BUCKETS` holds only events of virtual bucket
///   `b` for `cur_vb < b < cur_vb + NUM_BUCKETS` (skipped buckets are
///   provably empty, so a slot is never shared by two virtual buckets).
/// * `far` holds every event at or beyond the ring horizon; entries
///   migrate into the staged bucket when the cursor reaches them.
struct CalendarCore<E> {
    buckets: Box<[Vec<Scheduled<E>>]>,
    /// One bit per ring bucket: set iff the bucket is non-empty.
    occupied: [u64; BITMAP_WORDS],
    staged: VecDeque<Scheduled<E>>,
    at_now: VecDeque<Scheduled<E>>,
    /// Virtual bucket number currently staged.
    cur_vb: u64,
    far: BinaryHeap<Reverse<Scheduled<E>>>,
    len: usize,
}

impl<E> CalendarCore<E> {
    fn new() -> Self {
        CalendarCore {
            buckets: (0..NUM_BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; BITMAP_WORDS],
            staged: VecDeque::new(),
            at_now: VecDeque::new(),
            cur_vb: 0,
            far: BinaryHeap::new(),
            len: 0,
        }
    }

    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
    }

    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
    }

    /// First occupied virtual bucket after `cur_vb` (exclusive), within
    /// the ring span. Scans the occupancy bitmap in ring order from the
    /// cursor, so the first set bit found is the nearest bucket —
    /// O(1) under steady traffic, O(words) worst case.
    fn next_occupied(&self) -> Option<u64> {
        let base = self.cur_vb - (self.cur_vb % NUM_BUCKETS as u64);
        let cur_idx = (self.cur_vb % NUM_BUCKETS as u64) as usize;
        // Ring positions after the cursor belong to this window; the
        // wrapped ones to the next (`base + NUM_BUCKETS + idx`).
        let hit = |idx: usize| {
            if idx > cur_idx {
                base + idx as u64
            } else {
                base + NUM_BUCKETS as u64 + idx as u64
            }
        };
        let cur_word = cur_idx / 64;
        // Bits strictly above the cursor within its own word.
        let mask_above = if cur_idx % 64 == 63 {
            0
        } else {
            u64::MAX << (cur_idx % 64 + 1)
        };
        let word = self.occupied[cur_word] & mask_above;
        if word != 0 {
            return Some(hit(cur_word * 64 + word.trailing_zeros() as usize));
        }
        // Remaining words of this window, then the wrapped words, then
        // the cursor word's low bits (next window).
        for w in (cur_word + 1)..BITMAP_WORDS {
            let word = self.occupied[w];
            if word != 0 {
                return Some(hit(w * 64 + word.trailing_zeros() as usize));
            }
        }
        for w in 0..cur_word {
            let word = self.occupied[w];
            if word != 0 {
                return Some(hit(w * 64 + word.trailing_zeros() as usize));
            }
        }
        let word = self.occupied[cur_word] & !mask_above;
        if word != 0 {
            return Some(hit(cur_word * 64 + word.trailing_zeros() as usize));
        }
        None
    }

    fn push(&mut self, s: Scheduled<E>, now: SimTime) {
        self.len += 1;
        if s.time == now && s.lane == Lane::Normal {
            // The allocation-free bypass is normal-lane only: world
            // events at `now` must overtake at-now events regardless of
            // seq, so they take the sorted staged path below.
            self.at_now.push_back(s);
            return;
        }
        let b = vbucket(s.time);
        debug_assert!(b >= self.cur_vb, "future event behind the cursor");
        if b == self.cur_vb {
            // Rare: a sub-bucket-width delay (or an at-`now` world
            // event) landing in the staged bucket. `seq` is maximal
            // within its lane, so ordering by `(time, lane)` finds the
            // insertion point.
            let pos = self
                .staged
                .partition_point(|e| (e.time, e.lane) <= (s.time, s.lane));
            self.staged.insert(pos, s);
        } else if b < self.cur_vb + NUM_BUCKETS as u64 {
            let idx = (b % NUM_BUCKETS as u64) as usize;
            self.buckets[idx].push(s);
            self.set_bit(idx);
        } else {
            self.far.push(Reverse(s));
        }
    }

    fn pop(&mut self, now: SimTime) -> Option<Scheduled<E>> {
        loop {
            if let Some(front) = self.staged.front() {
                // A staged event at exactly `now` was scheduled before
                // anything in `at_now` (smaller seq): it goes first.
                let s = if front.time > now && !self.at_now.is_empty() {
                    self.at_now.pop_front()
                } else {
                    self.staged.pop_front()
                };
                self.len -= 1;
                return s;
            }
            if let Some(s) = self.at_now.pop_front() {
                self.len -= 1;
                return Some(s);
            }
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
    }

    /// Moves the cursor to the earliest non-empty virtual bucket (ring
    /// or far heap) and stages it, sorted by `(time, seq)`.
    fn advance(&mut self) {
        let ring_next = self.next_occupied();
        let far_next = self.far.peek().map(|Reverse(s)| vbucket(s.time));
        let candidate = match (ring_next, far_next) {
            (Some(r), Some(f)) => r.min(f),
            (Some(r), None) => r,
            (None, Some(f)) => f,
            (None, None) => unreachable!("advance called on an empty calendar"),
        };
        self.cur_vb = candidate;
        let idx = (candidate % NUM_BUCKETS as u64) as usize;
        self.clear_bit(idx);
        let mut bucket = std::mem::take(&mut self.buckets[idx]);
        // Far events whose bucket has come up migrate into the stage.
        while let Some(Reverse(s)) = self.far.peek() {
            if vbucket(s.time) != candidate {
                break;
            }
            let Reverse(s) = self.far.pop().expect("peeked");
            bucket.push(s);
        }
        bucket.sort_unstable();
        debug_assert!(self.staged.is_empty());
        self.staged.extend(bucket.drain(..));
        // Hand the (now empty) allocation back to the ring slot.
        self.buckets[idx] = bucket;
    }

    fn peek_time(&self, now: SimTime) -> Option<SimTime> {
        if let Some(front) = self.staged.front() {
            return Some(if self.at_now.is_empty() {
                front.time
            } else {
                front.time.min(now)
            });
        }
        if !self.at_now.is_empty() {
            return Some(now);
        }
        let ring = self.next_occupied().and_then(|abs| {
            let idx = (abs % NUM_BUCKETS as u64) as usize;
            self.buckets[idx].iter().map(|s| s.time).min()
        });
        let far = self.far.peek().map(|Reverse(s)| s.time);
        match (ring, far) {
            (Some(r), Some(f)) => Some(r.min(f)),
            (Some(r), None) => Some(r),
            (None, Some(f)) => Some(f),
            (None, None) => None,
        }
    }
}

/// A discrete-event queue over event type `E`.
///
/// Events scheduled for the same instant pop in scheduling order (FIFO),
/// so simulation runs are bit-reproducible. Popping advances the queue's
/// clock; scheduling into the past is a bug and panics.
pub struct EventQueue<E> {
    core: CalendarCore<E>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len())
            .field("now", &self.now)
            .finish()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            core: CalendarCore::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.core.len
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Schedules `event` at absolute time `at` on the normal lane.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.schedule_at_in(at, Lane::Normal, event);
    }

    /// Schedules `event` at absolute time `at` on the **world lane**: at
    /// its timestamp it pops before every normal-lane event, whatever
    /// the scheduling order was (see the module docs). Used for
    /// environment mutations that must apply before any same-instant
    /// protocol event observes the world.
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_world_at(&mut self, at: SimTime, event: E) {
        self.schedule_at_in(at, Lane::World, event);
    }

    /// Schedules `event` at `at` on an explicit [`Lane`].
    ///
    /// # Panics
    ///
    /// Panics if `at` is before the current time.
    pub fn schedule_at_in(&mut self, at: SimTime, lane: Lane, event: E) {
        assert!(at >= self.now, "cannot schedule into the past");
        let s = Scheduled {
            time: at,
            lane,
            seq: self.seq,
            event,
        };
        self.seq += 1;
        self.core.push(s, self.now);
    }

    /// Pre-sizes the internal storage for roughly `per_bucket` events
    /// per calendar bucket (plus the staging/overflow structures), so a
    /// run whose event density stays under that figure schedules and
    /// pops without allocating from the start. Without this, ring
    /// buckets warm up lazily — allocation-free only after the ring has
    /// wrapped once (~4.2 s of simulated time).
    pub fn preallocate(&mut self, per_bucket: usize) {
        let c = &mut self.core;
        for b in c.buckets.iter_mut() {
            b.reserve(per_bucket);
        }
        c.staged.reserve(per_bucket * 4);
        c.at_now.reserve(per_bucket * 4);
        c.far.reserve(per_bucket * 16);
    }

    /// Schedules `event` after `delay` from now.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        let at = self
            .now
            .checked_add(delay)
            .expect("schedule time overflowed");
        self.schedule_at(at, event);
    }

    /// Pops the next event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.core.pop(self.now)?;
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.core.peek_time(self.now)
    }

    /// Drains events up to and including `until`, calling `f` for each.
    /// The clock ends at `until` (or the last event time if later events
    /// remain).
    pub fn run_until<F>(&mut self, until: SimTime, mut f: F)
    where
        F: FnMut(SimTime, E, &mut Self),
    {
        while let Some(t) = self.peek_time() {
            if t > until {
                break;
            }
            let (time, ev) = self.pop().expect("peeked");
            f(time, ev, self);
        }
        if self.now < until {
            self.now = until;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orders_by_time() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(30), "c");
        q.schedule_at(SimTime::from_micros(10), "a");
        q.schedule_at(SimTime::from_micros(20), "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.is_empty());
    }

    #[test]
    fn fifo_on_ties() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5);
        for i in 0..10 {
            q.schedule_at(t, i);
        }
        for i in 0..10 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn fifo_among_at_now_and_staged_events() {
        // Events staged earlier for time T must pop before events
        // scheduled *at* T for T (they carry smaller seq), and both
        // before anything later — across bucket boundaries.
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(50_000);
        q.schedule_at(t, 0); // staged long in advance
        q.schedule_at(SimTime::from_micros(10), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        q.schedule_at(t, 2); // still ahead of now
        assert_eq!(q.pop().unwrap(), (t, 0));
        // now == t: these two join the at-now lane.
        q.schedule_at(t, 3);
        q.schedule_at(t + SimDuration::from_micros(1), 5);
        q.schedule_at(t, 4);
        assert_eq!(q.pop().unwrap(), (t, 2));
        assert_eq!(q.pop().unwrap(), (t, 3));
        assert_eq!(q.pop().unwrap(), (t, 4));
        assert_eq!(q.pop().unwrap().1, 5);
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cross_the_ring_horizon() {
        // Ring horizon is ~4.19 s; 60 s and 3600 s events overflow to
        // the far heap and must still pop in exact order, interleaved
        // with near events scheduled later.
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(3_600_000_000), 9);
        q.schedule_at(SimTime::from_micros(60_000_000), 7);
        q.schedule_at(SimTime::from_micros(1_000), 1);
        assert_eq!(q.pop().unwrap().1, 1);
        // From t=1ms, 59.999 s ahead is still beyond the horizon.
        q.schedule_at(SimTime::from_micros(59_000_000), 5);
        assert_eq!(q.pop().unwrap().1, 5);
        // Now 60 s is near: schedule a tie — FIFO with the migrated
        // far event (smaller seq first).
        q.schedule_at(SimTime::from_micros(60_000_000), 8);
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(60_000_000), 7));
        assert_eq!(q.pop().unwrap(), (SimTime::from_micros(60_000_000), 8));
        assert_eq!(q.pop().unwrap().1, 9);
    }

    #[test]
    fn sparse_gaps_jump_buckets() {
        // Non-adjacent buckets with wrap-around: the cursor must jump
        // straight to the next occupied bucket, including after the
        // ring index wraps past NUM_BUCKETS.
        let mut q = EventQueue::new();
        let ms = |m: u64| SimTime::from_micros(m * 1000);
        q.schedule_at(ms(1), 1);
        q.schedule_at(ms(4000), 2); // near the end of the first window
        q.schedule_at(ms(2), 11);
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 11);
        assert_eq!(q.pop().unwrap().1, 2);
        // Cursor deep into the ring; wrap into the next window.
        q.schedule_at(ms(4000) + SimDuration::from_micros(10), 3);
        q.schedule_at(ms(7000), 4); // wraps modulo NUM_BUCKETS
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.pop().is_none());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule_after(SimDuration::from_millis(3), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_micros(3_000));
        assert_eq!(q.now(), t);
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(10), ());
        q.pop();
        q.schedule_at(SimTime::from_micros(5), ());
    }

    #[test]
    fn run_until_drains_prefix() {
        let mut q = EventQueue::new();
        for i in 1..=5u64 {
            q.schedule_at(SimTime::from_micros(i * 10), i);
        }
        let mut seen = Vec::new();
        q.run_until(SimTime::from_micros(30), |_, e, _| seen.push(e));
        assert_eq!(seen, vec![1, 2, 3]);
        assert_eq!(q.len(), 2);
        assert_eq!(q.now(), SimTime::from_micros(30));
    }

    #[test]
    fn run_until_handler_can_reschedule() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(1), 0u64);
        let mut count = 0;
        q.run_until(SimTime::from_micros(100), |t, _, q| {
            count += 1;
            if count < 5 {
                q.schedule_at(t + SimDuration::from_micros(1), count);
            }
        });
        assert_eq!(count, 5);
    }

    #[test]
    fn run_until_advances_clock_when_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        q.run_until(SimTime::from_micros(77), |_, _, _| {});
        assert_eq!(q.now(), SimTime::from_micros(77));
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule_at(SimTime::from_micros(9), 0);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
        assert_eq!(q.now(), SimTime::ZERO);
    }

    #[test]
    fn peek_sees_at_now_and_far_events() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule_at(SimTime::from_micros(10_000_000), 1); // far
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10_000_000)));
        q.schedule_at(SimTime::from_micros(40_000), 2); // ring
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(40_000)));
        q.pop();
        q.schedule_at(q.now(), 3); // at-now lane
        assert_eq!(q.peek_time(), Some(q.now()));
    }

    /// World-lane events pop before normal events sharing their
    /// timestamp, whatever the scheduling order — including events
    /// scheduled for exactly `now` (the at-now bypass) and events staged
    /// far in advance.
    #[test]
    fn world_lane_overtakes_normal_events_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(5_000);
        q.schedule_at(t, 1); // normal, staged early, smallest seq
        q.schedule_world_at(t, 100); // world, scheduled later
        q.schedule_at(t, 2);
        q.schedule_world_at(t, 101);
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            vec![100, 101, 1, 2],
            "world lane first, FIFO within each lane"
        );
    }

    #[test]
    fn world_lane_at_now_overtakes_the_at_now_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_micros(10);
        q.schedule_at(t, 0);
        assert_eq!(q.pop().unwrap(), (t, 0));
        // now == t: normal events ride the at-now lane; a world
        // event scheduled afterwards must still pop first.
        q.schedule_at(t, 1);
        q.schedule_at(t, 2);
        q.schedule_world_at(t, 9);
        assert_eq!(q.pop().unwrap(), (t, 9));
        assert_eq!(q.pop().unwrap(), (t, 1));
        assert_eq!(q.pop().unwrap(), (t, 2));
        assert!(q.is_empty());
    }

    #[test]
    fn world_lane_respects_time_ordering() {
        let mut q = EventQueue::new();
        q.schedule_world_at(SimTime::from_micros(30), 3);
        q.schedule_at(SimTime::from_micros(10), 1);
        // Earlier normal events still pop before later world events.
        assert_eq!(q.pop().unwrap().1, 1);
        assert_eq!(q.pop().unwrap().1, 3);
    }

    /// The queue pops the sequence a plain `BinaryHeap` of
    /// `(time, lane, seq)` keys pops, for a deterministic pseudo-random
    /// interleaving of schedules and pops with heavy timestamp
    /// duplication and occasional world-lane events (the reference model
    /// in miniature; the full property test lives in the workspace
    /// `tests/property_tests.rs`).
    #[test]
    fn backends_agree_on_interleaved_schedules() {
        let mut cal = EventQueue::new();
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut popped = 0u32;
        for i in 0..5_000u64 {
            let r = next();
            if r % 3 == 0 && popped < i as u32 {
                let a = cal.pop();
                let b = heap.pop().map(|Reverse((t, _, _, e))| (t, e));
                assert_eq!(a, b, "pop {i}");
                popped += 1;
            } else {
                // Delays cluster on 0 and a few fixed values, with the
                // occasional far-future outlier — the engine's profile.
                let delay = match r % 7 {
                    0 | 1 => 0,
                    2 => 40_000,
                    3 => 200_000,
                    4 => (r >> 8) % 1_000,
                    5 => 3_000_000,
                    _ => 5_000_000 + (r >> 8) % 10_000_000,
                };
                let at = cal.now() + SimDuration::from_micros(delay);
                // ~6% of events ride the world lane (a dynamic-world
                // timeline is sparse next to protocol traffic).
                let lane = if r % 16 == 1 {
                    Lane::World
                } else {
                    Lane::Normal
                };
                cal.schedule_at_in(at, lane, i);
                heap.push(Reverse((at, lane, seq, i)));
                seq += 1;
            }
        }
        loop {
            let a = cal.pop();
            let b = heap.pop().map(|Reverse((t, _, _, e))| (t, e));
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }
}
