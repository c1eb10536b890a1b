//! Event schedulers for the asynchronous engine: a bounded-horizon timing wheel
//! (the default) and a binary-heap reference implementation.
//!
//! The asynchronous model bounds every link delay by one time unit `τ`
//! ([`crate::TICKS_PER_UNIT`] ticks), so every event is scheduled at most
//! `TICKS_PER_UNIT` ticks into the future. That bounded horizon makes the textbook
//! timing wheel (calendar queue) the right structure: `TICKS_PER_UNIT + 1` rotating
//! slots, each holding the events of one absolute tick, give `O(1)` insertion and
//! amortized `O(1)` extraction, against the `O(log n)` of a global binary heap.
//!
//! Both implementations expose the same [`EventScheduler`] interface (public, so
//! the `exp_sched` microbenchmarks in `ds-bench` can drive them in isolation) and
//! produce **bit-identical** schedules:
//!
//! * events are totally ordered by `(at, seq)` with a globally increasing `seq`,
//! * `EventScheduler::take_due` drains *all* events of the earliest pending tick
//!   in ascending `seq` order. Within a wheel slot, `schedule` appends in `seq`
//!   order, because `seq` increases monotonically over the run and no event can be
//!   scheduled at the tick currently being drained (delays are at least one tick),
//! * entries whose delay exceeds the horizon (the composite
//!   [`crate::delay::DelayModel::Outage`] adversary produces them; the single-`τ`
//!   models never do) wait in one overflow binary heap next to the wheel and are
//!   drained together with the slot of the same tick, in `seq` order,
//! * an event whose `seq` was drawn earlier than the last scheduled one — a
//!   link acknowledgment the engine parked and files only once a message waits
//!   behind it (DESIGN.md §10.2) — goes through
//!   [`EventScheduler::schedule_late`]: the wheel inserts it into its slot by
//!   binary search on `seq`, so every slot stays sorted.
//!
//! The engine picks the implementation through [`SchedulerKind`]; the heap is kept
//! as the executable specification the wheel is tested against (see the
//! heap row of `ds-verify`'s engine contract, `ds_verify::check`, and the
//! module tests below).

use crate::bitset;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which event scheduler [`crate::run`] ([`crate::RunSpec::scheduler`]) drives the
/// simulation with. All kinds produce bit-identical schedules; the wheel is
/// faster than the heap, and the sharded engine runs the wheel engine with a
/// dense tick's activations split over worker threads (see
/// [`crate::sharded`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SchedulerKind {
    /// Bounded-horizon timing wheel: `O(1)` per event (the default).
    #[default]
    TimingWheel,
    /// Global binary heap: `O(log n)` per event. The reference implementation.
    BinaryHeap,
    /// Sharded engine: the timing-wheel engine with the node set partitioned
    /// into `shards` contiguous dense-id ranges. A tick with at least 128 due
    /// events runs its protocol activations per shard over a persistent
    /// worker pool (when worker threads are available), then replays their
    /// effects serially in global `seq` order, so the schedule is
    /// bit-identical to [`SchedulerKind::TimingWheel`] (see
    /// [`crate::sharded`] and [`crate::pool`]).
    Sharded {
        /// Number of shards (clamped to `1..=node_count` at run time).
        shards: usize,
        /// Number of persistent worker threads the shards are spread over.
        /// `0` means "one worker per shard" (the pre-pool behaviour); any
        /// other value is clamped to `1..=shards` and additionally capped by
        /// `std::thread::available_parallelism` under the default
        /// [`crate::sharded::ThreadMode::Auto`] policy.
        workers: usize,
    },
}

impl SchedulerKind {
    /// Short label ("wheel", "heap", "sharded") for experiment rows and test
    /// messages.
    pub fn label(&self) -> &'static str {
        match self {
            SchedulerKind::TimingWheel => "wheel",
            SchedulerKind::BinaryHeap => "heap",
            SchedulerKind::Sharded { .. } => "sharded",
        }
    }
}

/// Common interface of the engine's event schedulers.
///
/// `T` is the inline payload (the engine stores the link id and the message).
/// Public so the scheduler microbenchmarks (`exp_sched` in `ds-bench`) can drive
/// both implementations in isolation; simulation code goes through
/// [`crate::run`] instead.
pub trait EventScheduler<T> {
    /// Schedules `payload` at absolute tick `at` with global sequence number `seq`.
    ///
    /// Callers must only schedule into the strict future of the last tick returned
    /// by [`EventScheduler::take_due`] (the engine guarantees this: delays are at
    /// least one tick), with `seq` strictly increasing across calls.
    fn schedule(&mut self, at: u64, seq: u64, payload: T);

    /// Schedules `payload` at `(at, seq)` where `seq` may be *smaller* than
    /// seqs already scheduled (it was drawn earlier and the event filed only
    /// now). `at` must still lie in the strict future of the last drained
    /// tick; `take_due` keeps returning each tick in ascending `seq`.
    fn schedule_late(&mut self, at: u64, seq: u64, payload: T);

    /// Moves *every* event of the earliest pending tick into `due` (ascending
    /// `seq`) and returns that tick, or `None` if no events are pending.
    fn take_due(&mut self, due: &mut Vec<(u64, T)>) -> Option<u64>;

    /// How many events were scheduled beyond the in-structure horizon so far
    /// (0 for schedulers without a horizon).
    fn overflow_scheduled(&self) -> u64 {
        0
    }
}

// ---------------------------------------------------------------------------
// Timing wheel
// ---------------------------------------------------------------------------

/// A timestamped event ordered earliest `(at, seq)` first (`Ord` reversed for
/// [`BinaryHeap`]'s max-heap); shared by the wheel's overflow heap and the
/// reference [`HeapScheduler`], so their orderings can never drift apart.
#[derive(Debug)]
pub(crate) struct MinEntry<T> {
    pub(crate) at: u64,
    pub(crate) seq: u64,
    pub(crate) payload: T,
}

impl<T> PartialEq for MinEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.seq == other.seq
    }
}

impl<T> Eq for MinEntry<T> {}

impl<T> PartialOrd for MinEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for MinEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Bounded-horizon timing wheel with `horizon + 1` rotating slots.
///
/// Slot `at % (horizon + 1)` holds the events of absolute tick `at`, sorted by
/// `seq`; because all pending events lie in `(now, now + horizon]`, distinct
/// pending ticks never share a slot. A dense occupancy bitset finds the next
/// non-empty slot in a few word operations, drained slot buffers are recycled
/// through a free list (so steady-state scheduling never allocates), and
/// beyond-horizon events wait in one overflow heap that is consulted next to
/// the wheel.
#[derive(Debug)]
pub struct TimingWheel<T> {
    /// One buffer of `(seq, payload)` per slot, ascending `seq`: `schedule`
    /// appends (its seq is the newest), `schedule_late` inserts in order.
    slots: Vec<Vec<(u64, T)>>,
    /// Occupancy bitset: bit `i` set iff `slots[i]` is non-empty.
    occupied: Vec<u64>,
    /// Current absolute tick (the last tick drained by `take_due`).
    now: u64,
    /// Number of events currently parked in slots (excludes the overflow heap).
    pending: usize,
    /// Maximum in-wheel scheduling distance, in ticks.
    horizon: u64,
    /// Events scheduled more than `horizon` ticks past the wheel clock.
    overflow: BinaryHeap<MinEntry<T>>,
    /// Total events ever parked in the overflow heap (exposed through
    /// [`EventScheduler::overflow_scheduled`]).
    overflow_scheduled: u64,
    /// Recycled slot buffers: a drained slot's buffer returns here.
    free: Vec<Vec<(u64, T)>>,
}

impl<T> TimingWheel<T> {
    /// Creates a wheel accepting delays of up to `horizon` ticks, starting at
    /// absolute tick 0.
    ///
    /// # Panics
    ///
    /// Panics if `horizon == 0`.
    pub fn new(horizon: u64) -> Self {
        assert!(horizon > 0, "wheel horizon must be positive");
        let slot_count = usize::try_from(horizon + 1).expect("horizon fits in memory");
        TimingWheel {
            slots: (0..slot_count).map(|_| Vec::new()).collect(),
            occupied: vec![0; slot_count.div_ceil(64)],
            now: 0,
            pending: 0,
            horizon,
            overflow: BinaryHeap::new(),
            overflow_scheduled: 0,
            free: Vec::new(),
        }
    }

    /// Total number of pending events (wheel slots plus overflow).
    pub fn len(&self) -> usize {
        self.pending + self.overflow.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Absolute tick of the earliest pending event (wheel slots or overflow), or
    /// `None` if the wheel is empty.
    fn next_tick(&self) -> Option<u64> {
        let wheel_next = (self.pending > 0).then(|| self.next_occupied_time());
        match (wheel_next, self.overflow.peek().map(|e| e.at)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Resets an *empty* wheel to absolute tick 0, keeping every allocation
    /// (slot vectors, recycled drain buffers, heap capacity) for the next
    /// run. This is the engine-recycling reset contract (DESIGN.md §11):
    /// every field that can influence a schedule is restored to exactly its
    /// `new()` value, while capacity — which no scheduling decision ever
    /// observes — is retained.
    ///
    /// # Panics
    ///
    /// Panics if any event is still pending: a recycled wheel must start
    /// provably empty.
    pub fn reset(&mut self) {
        assert!(self.is_empty(), "only an empty wheel can be reset for reuse");
        self.now = 0;
        self.occupied.fill(0);
        self.overflow_scheduled = 0;
    }

    /// The slot of in-horizon tick `at`, marked occupied (and given a
    /// recycled buffer if it had none).
    // ds-lint: hot-path
    #[inline]
    fn slot_for(&mut self, at: u64) -> &mut Vec<(u64, T)> {
        let idx = (at % self.slots.len() as u64) as usize;
        if self.slots[idx].is_empty() {
            if self.slots[idx].capacity() == 0 {
                if let Some(buf) = self.free.pop() {
                    self.slots[idx] = buf;
                }
            }
            bitset::set(&mut self.occupied, idx);
        }
        self.pending += 1;
        &mut self.slots[idx]
    }

    /// Appends the slot of tick `t`, the earliest pending tick, to `due`.
    // ds-lint: hot-path
    #[inline]
    fn take_slot(&mut self, t: u64, due: &mut Vec<(u64, T)>) {
        // A non-empty slot at `idx` can only hold tick `t`: slots span
        // `(now, now + horizon]` and `t` is the earliest pending tick.
        let idx = (t % self.slots.len() as u64) as usize;
        if !self.slots[idx].is_empty() {
            let mut buf = std::mem::take(&mut self.slots[idx]);
            bitset::clear(&mut self.occupied, idx);
            self.pending -= buf.len();
            due.append(&mut buf);
            self.free.push(buf);
        }
    }

    /// `take_slot` for a tick that also has overflow entries: pops them
    /// first, then merges the slot in by seq. An overflow entry of `t` was
    /// scheduled more than a horizon before any slot entry `schedule`
    /// appended, but a late-filed entry in the slot may predate it. Only
    /// multi-τ delay models reach this path.
    #[cold]
    fn take_overflow_and_slot(&mut self, t: u64, due: &mut Vec<(u64, T)>) {
        let start = due.len();
        while self.overflow.peek().is_some_and(|e| e.at == t) {
            let e = self.overflow.pop().expect("peeked");
            due.push((e.seq, e.payload));
        }
        let mid = due.len();
        self.take_slot(t, due);
        if due.len() > mid && due[mid - 1].0 > due[mid].0 {
            due[start..].sort_unstable_by_key(|&(seq, _)| seq);
        }
    }

    /// Absolute tick of the earliest non-empty slot. Requires `pending > 0`.
    fn next_occupied_time(&self) -> u64 {
        debug_assert!(self.pending > 0);
        let len = self.slots.len();
        let cur = (self.now % len as u64) as usize;
        let idx = bitset::find_set_from(&self.occupied, cur + 1)
            .or_else(|| bitset::find_set_from(&self.occupied, 0))
            .expect("pending > 0 implies an occupied slot");
        debug_assert_ne!(idx, cur, "the current slot was drained and delays are positive");
        let d = if idx > cur { idx - cur } else { idx + len - cur };
        self.now + d as u64
    }
}

impl<T> EventScheduler<T> for TimingWheel<T> {
    // ds-lint: hot-path
    fn schedule(&mut self, at: u64, seq: u64, payload: T) {
        debug_assert!(at > self.now, "events must be scheduled in the strict future");
        if at - self.now <= self.horizon {
            let slot = self.slot_for(at);
            debug_assert!(
                slot.last().is_none_or(|&(s, _)| s < seq),
                "schedule's seq must be the newest; use schedule_late"
            );
            slot.push((seq, payload));
        } else {
            self.overflow_scheduled += 1;
            self.overflow.push(MinEntry { at, seq, payload });
        }
    }

    // ds-lint: hot-path
    fn schedule_late(&mut self, at: u64, seq: u64, payload: T) {
        debug_assert!(at > self.now, "events must be scheduled in the strict future");
        if at - self.now <= self.horizon {
            let slot = self.slot_for(at);
            let pos = slot.partition_point(|&(s, _)| s < seq);
            slot.insert(pos, (seq, payload));
        } else {
            self.overflow_scheduled += 1;
            self.overflow.push(MinEntry { at, seq, payload });
        }
    }

    // ds-lint: hot-path
    fn take_due(&mut self, due: &mut Vec<(u64, T)>) -> Option<u64> {
        let t = self.next_tick()?;
        if self.overflow.peek().is_some_and(|e| e.at == t) {
            self.take_overflow_and_slot(t, due);
        } else {
            self.take_slot(t, due);
        }
        self.now = t;
        Some(t)
    }

    fn overflow_scheduled(&self) -> u64 {
        self.overflow_scheduled
    }
}

// ---------------------------------------------------------------------------
// Binary-heap reference scheduler
// ---------------------------------------------------------------------------

/// The pre-wheel scheduler: one global binary heap ordered by `(at, seq)`. Kept as
/// the executable specification for equivalence tests.
#[derive(Debug)]
pub struct HeapScheduler<T> {
    heap: BinaryHeap<MinEntry<T>>,
}

impl<T> HeapScheduler<T> {
    /// Creates an empty heap scheduler.
    pub fn new() -> Self {
        HeapScheduler { heap: BinaryHeap::new() }
    }
}

impl<T> Default for HeapScheduler<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> EventScheduler<T> for HeapScheduler<T> {
    fn schedule(&mut self, at: u64, seq: u64, payload: T) {
        self.heap.push(MinEntry { at, seq, payload });
    }

    fn schedule_late(&mut self, at: u64, seq: u64, payload: T) {
        self.heap.push(MinEntry { at, seq, payload });
    }

    fn take_due(&mut self, due: &mut Vec<(u64, T)>) -> Option<u64> {
        let first = self.heap.pop()?;
        let t = first.at;
        due.push((first.seq, first.payload));
        while self.heap.peek().is_some_and(|e| e.at == t) {
            let e = self.heap.pop().expect("peeked");
            due.push((e.seq, e.payload));
        }
        Some(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain_all<S: EventScheduler<u32>>(sched: &mut S) -> Vec<(u64, Vec<(u64, u32)>)> {
        let mut out = Vec::new();
        let mut due = Vec::new();
        while let Some(t) = sched.take_due(&mut due) {
            out.push((t, std::mem::take(&mut due)));
        }
        out
    }

    /// Deterministic pseudo-random draws in `0..m`.
    fn lcg(mut state: u64) -> impl FnMut(u64) -> u64 {
        move |m| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        }
    }

    #[test]
    fn wheel_delivers_in_time_then_seq_order() {
        let mut w = TimingWheel::new(1000);
        w.schedule(500, 0, 10);
        w.schedule(3, 1, 11);
        w.schedule(500, 2, 12);
        w.schedule(1000, 3, 13);
        let batches = drain_all(&mut w);
        assert_eq!(
            batches,
            vec![(3, vec![(1, 11)]), (500, vec![(0, 10), (2, 12)]), (1000, vec![(3, 13)]),]
        );
    }

    #[test]
    fn wheel_skips_empty_slots() {
        let mut w = TimingWheel::new(1000);
        // Two far-apart ticks: take_due must jump straight between them without
        // visiting the ~990 empty slots in between.
        w.schedule(7, 0, 1);
        w.schedule(999, 1, 2);
        let mut due = Vec::new();
        assert_eq!(w.take_due(&mut due), Some(7));
        assert_eq!(due, vec![(0, 1)]);
        due.clear();
        assert_eq!(w.take_due(&mut due), Some(999));
        assert_eq!(due, vec![(1, 2)]);
        due.clear();
        assert_eq!(w.take_due(&mut due), None);
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn wheel_rotates_across_the_horizon_boundary() {
        // Chain events so the absolute time crosses several multiples of the slot
        // count (horizon + 1): slot indices wrap but times must stay exact.
        let mut w = TimingWheel::new(10);
        let mut seq = 0;
        let mut now = 0;
        let mut seen = Vec::new();
        w.schedule(7, seq, 0);
        seq += 1;
        let mut due = Vec::new();
        while let Some(t) = w.take_due(&mut due) {
            assert!(t > now, "time must advance monotonically");
            now = t;
            seen.push(t);
            due.clear();
            if seq < 12 {
                // Re-schedule at the full horizon: exercises the slot that wraps
                // to the same index modulo (horizon + 1).
                w.schedule(now + 10, seq, seq as u32);
                seq += 1;
            }
        }
        assert_eq!(seen, (0..12).map(|i| 7 + 10 * i).collect::<Vec<u64>>());
    }

    #[test]
    fn wheel_parks_beyond_horizon_events_in_overflow() {
        let mut w = TimingWheel::new(1000);
        // 2500 is beyond the horizon from time 0: goes to overflow.
        w.schedule(2500, 0, 99);
        assert_eq!(w.len(), 1);
        w.schedule(600, 1, 1);
        let mut due = Vec::new();
        assert_eq!(w.take_due(&mut due), Some(600));
        due.clear();
        // Now 2500 is within the horizon of a *new* event: the wheel entry of the
        // same tick must come after the overflow entry (larger seq).
        w.schedule(2500, 2, 2);
        assert_eq!(w.take_due(&mut due), Some(2500));
        assert_eq!(due, vec![(0, 99), (2, 2)]);
        due.clear();
        assert_eq!(w.take_due(&mut due), None);
    }

    #[test]
    fn wheel_recycles_slot_buffers() {
        let mut w = TimingWheel::new(16);
        let mut due = Vec::new();
        for round in 0..100u64 {
            for i in 0..8 {
                w.schedule((round * 5) + 1 + (i % 3), round * 8 + i, i as u32);
            }
            while w.pending > 0 {
                w.take_due(&mut due);
                due.clear();
            }
            // The free list never grows beyond the number of simultaneously
            // occupied slots (3 distinct ticks per round here).
            assert!(w.free.len() <= 4, "free list leaked: {}", w.free.len());
        }
    }

    #[test]
    fn overflow_far_beyond_the_horizon_drains_at_its_exact_tick() {
        // 800 is 80 horizons ahead; 400 is the nearer overflow entry.
        let mut w = TimingWheel::new(10);
        w.schedule(800, 0, 0u32);
        w.schedule(400, 1, 1);
        assert_eq!((w.overflow_scheduled(), w.len()), (2, 2));
        let mut due = Vec::new();
        assert_eq!(w.take_due(&mut due), Some(400));
        assert_eq!(due, vec![(1, 1)]);
        assert_eq!(w.len(), 1);
        assert_eq!(drain_all(&mut w), vec![(800, vec![(0, 0)])]);
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_parks_and_slot_inserts_merge_at_one_tick_in_seq_order() {
        // One tick fed by an origin-0 park, a park after the clock moved on
        // and two slot inserts drains as one ascending-seq batch. Runs under
        // Miri (`scheduler::` filter).
        let mut w = TimingWheel::new(10);
        let mut due = Vec::new();
        w.schedule(800, 0, 10u32);
        w.schedule(200, 1, 0);
        assert_eq!(w.take_due(&mut due), Some(200));
        w.schedule(800, 2, 11);
        w.schedule(795, 3, 0);
        assert_eq!(w.take_due(&mut due), Some(795));
        w.schedule(800, 4, 12); // slot
        w.schedule(800, 5, 13); // slot
                                // Parked: both tick-800 entries before the slot inserts, and the two
                                // clock-moving events (200 and 795 lie past the horizon too).
        assert_eq!((w.overflow_scheduled(), w.len()), (4, 4));
        assert_eq!(drain_all(&mut w), vec![(800, vec![(0, 10), (2, 11), (4, 12), (5, 13)])]);
    }

    /// The 10%-overflow bench workload (delays in [1000, 5000) against a
    /// 1000-tick horizon), one drain per four schedules, then a full drain.
    fn outage_shaped_run<S: EventScheduler<u32>>(sched: &mut S) -> Vec<(u64, Vec<(u64, u32)>)> {
        let mut rand = lcg(0xDEAD_BEEF);
        let mut out = Vec::new();
        let mut due = Vec::new();
        let mut now = 0u64;
        for seq in 0..2000u64 {
            let delay = if rand(10) == 0 { 1000 + rand(4000) } else { 1 + rand(1000) };
            sched.schedule(now + delay, seq, (seq % 97) as u32);
            if seq % 4 == 3 {
                now = sched.take_due(&mut due).expect("events pending");
                out.push((now, std::mem::take(&mut due)));
            }
        }
        out.extend(drain_all(sched));
        out
    }

    #[test]
    fn outage_shaped_overflow_agrees_with_the_heap_step_by_step() {
        let mut wheel = TimingWheel::new(1000);
        assert_eq!(outage_shaped_run(&mut wheel), outage_shaped_run(&mut HeapScheduler::new()));
        assert!(wheel.overflow_scheduled() > 0, "the workload must exercise overflow");
    }

    #[test]
    fn reset_after_overflow_replays_identically() {
        // The recycling contract: an emptied wheel, once `reset`, schedules
        // exactly as a new one — same batches, same overflow count.
        let mut wheel = TimingWheel::new(1000);
        let first = outage_shaped_run(&mut wheel);
        let parked = wheel.overflow_scheduled();
        wheel.reset();
        assert_eq!((wheel.overflow_scheduled(), wheel.len()), (0, 0));
        assert_eq!(outage_shaped_run(&mut wheel), first);
        assert_eq!(wheel.overflow_scheduled(), parked);
    }

    #[test]
    fn a_late_slot_entry_merges_before_a_younger_overflow_entry_of_its_tick() {
        // Seq 0 is drawn for tick 450 but filed only once the clock reaches
        // 400, into the slot; seq 1 went to the overflow heap at tick 0. The
        // tick drains as [0, 1] on both schedulers.
        let run = |sched: &mut dyn EventScheduler<u32>| {
            let mut due = Vec::new();
            sched.schedule(450, 1, 11);
            sched.schedule(400, 2, 12);
            assert_eq!(sched.take_due(&mut due), Some(400));
            due.clear();
            sched.schedule_late(450, 0, 10);
            assert_eq!(sched.take_due(&mut due), Some(450));
            due
        };
        let mut wheel = TimingWheel::new(100);
        assert_eq!(run(&mut wheel), vec![(0, 10), (1, 11)]);
        assert_eq!(wheel.overflow_scheduled(), 2, "450 and 400 lie past the horizon at tick 0");
        assert_eq!(run(&mut HeapScheduler::new()), vec![(0, 10), (1, 11)]);
    }

    #[test]
    #[cfg_attr(miri, ignore)] // 20×500-step fuzz loop — minutes under Miri for no extra UB coverage
    fn heap_and_wheel_agree_on_random_workloads() {
        // Deterministic pseudo-random interleaving of schedules and drains, with
        // occasional beyond-horizon delays; both schedulers must emit identical
        // (time, seq, payload) streams. Some draws are held back and filed
        // later through `schedule_late` (as the engine files a parked ack),
        // landing in a slot or past the horizon; those whose tick passed
        // first are dropped unfiled.
        let mut rand = lcg(0x9E37_79B9);
        let (mut late_in_slot, mut late_overflow) = (0, 0);
        for _ in 0..20 {
            let mut wheel = TimingWheel::new(100);
            let mut heap = HeapScheduler::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            let mut wheel_out = Vec::new();
            let mut heap_out = Vec::new();
            let mut pending = 0i64;
            let mut held: Vec<(u64, u64)> = Vec::new();
            let (mut wd, mut hd) = (Vec::new(), Vec::new());
            for _ in 0..500 {
                if pending == 0 || rand(3) > 0 {
                    let burst = 1 + rand(4);
                    for _ in 0..burst {
                        // Mostly in-horizon delays, occasionally a few
                        // horizons out, rarely 64+ horizons out.
                        let delay = match rand(20) {
                            0 => 6400 + rand(8000),
                            1 | 2 => 100 + rand(400),
                            _ => 1 + rand(100),
                        };
                        if rand(4) == 0 {
                            held.push((now + delay, seq));
                        } else {
                            wheel.schedule(now + delay, seq, (seq % 251) as u32);
                            heap.schedule(now + delay, seq, (seq % 251) as u32);
                            pending += 1;
                        }
                        seq += 1;
                    }
                    held.retain(|&(at, _)| at > now);
                    if !held.is_empty() && rand(2) == 0 {
                        let (at, s) = held.swap_remove(rand(held.len() as u64) as usize);
                        if at - now <= 100 {
                            late_in_slot += 1;
                        } else {
                            late_overflow += 1;
                        }
                        wheel.schedule_late(at, s, (s % 251) as u32);
                        heap.schedule_late(at, s, (s % 251) as u32);
                        pending += 1;
                    }
                } else {
                    let tw = wheel.take_due(&mut wd);
                    let th = heap.take_due(&mut hd);
                    assert_eq!(tw, th);
                    assert_eq!(wd, hd);
                    now = tw.expect("pending > 0");
                    pending -= wd.len() as i64;
                    wheel_out.extend(wd.drain(..).map(|(s, p)| (now, s, p)));
                    heap_out.extend(hd.drain(..).map(|(s, p)| (now, s, p)));
                }
            }
            assert_eq!(wheel_out, heap_out);
        }
        assert!(late_in_slot > 0 && late_overflow > 0, "{late_in_slot} {late_overflow}");
    }
}
