//! Per-link message queues: one `Vec` kept sorted by `(priority, seq)`.
//!
//! A link transmits its waiting messages lowest priority first, FIFO within a
//! priority (Lemma 2.5: lowest stage first). The engines keep the first waiting
//! message inline in its link record (`effects::LinkState`) and queue only
//! the ones behind it here, as `u32` handles into a [`crate::arena::PayloadArena`].
//! Those queues are short. Push counters on whole runs ("spilled": share of
//! link pushes that found the inline head taken; depth and priority spread of
//! the queue after a push):
//!
//! | run | spilled | max depth | max spread |
//! |---|---|---|---|
//! | det BFS grid 64², uniform | 1.5 % | 32 | 96 |
//! | α BFS torus 64², jitter | 2.0 % | 1 | 1 |
//! | det BFS grid 48², jitter, 2 shards | 1.9 % | 27 | 80 |
//! | det BFS grid 8 × 512, uniform | 3.4 % | 50 | 512 |
//! | det BFS random-regular 1024, outage | 16.7 % | 10 | 8 |
//! | same, jitter and link churn | 54.6 % | 28 | 192 |
//! | leader election cycle 512, outage | 0.4 % | 21 | 256 |
//!
//! So the queue is one vector sorted descending by `(priority, seq)`: `push` is
//! a binary search plus an `O(k)` insert at depth `k`, and `pop` / `min_key`
//! read the last entry.

/// A FIFO-within-priority queue of `(priority, seq, msg)` entries popping the
/// minimum `(priority, seq)` first. `seq` values must be strictly increasing
/// across pushes (the engine's global sequence numbers are).
#[derive(Debug)]
pub struct StageQueue<M> {
    /// Sorted descending by `(priority, seq)`: the minimum is last.
    entries: Vec<(u64, u64, M)>,
}

impl<M> Default for StageQueue<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> StageQueue<M> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        StageQueue { entries: Vec::new() }
    }

    /// Whether no entries are queued.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of queued entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Queues `msg` under `(priority, seq)`. `seq` exceeds every queued seq, so
    /// the entry goes in front of (pops after) those of equal priority.
    pub fn push(&mut self, priority: u64, seq: u64, msg: M) {
        let pos = self.entries.partition_point(|e| e.0 > priority);
        debug_assert!(self.entries.get(pos).is_none_or(|e| e.0 < priority || e.1 < seq));
        self.entries.insert(pos, (priority, seq, msg));
    }

    /// The minimum `(priority, seq)` key currently queued, without popping it.
    pub fn min_key(&self) -> Option<(u64, u64)> {
        self.entries.last().map(|e| (e.0, e.1))
    }

    /// Pops the minimum-`(priority, seq)` entry as `(seq, msg)`.
    pub fn pop(&mut self) -> Option<(u64, M)> {
        self.entries.pop().map(|(_, seq, msg)| (seq, msg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn drain<M>(q: &mut StageQueue<M>) -> Vec<(u64, M)> {
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert!(q.is_empty());
        out
    }

    #[test]
    fn pops_lowest_priority_first_fifo_within() {
        let mut q = StageQueue::new();
        q.push(5, 0, "a");
        q.push(1, 1, "b");
        q.push(5, 2, "c");
        q.push(1, 3, "d");
        assert_eq!(drain(&mut q), vec![(1, "b"), (3, "d"), (0, "a"), (2, "c")]);
    }

    #[test]
    fn later_lower_priorities_pop_first_before_and_after_a_drain() {
        let mut q = StageQueue::new();
        q.push(100, 0, 'x');
        q.push(97, 1, 'y');
        q.push(99, 2, 'z');
        assert_eq!(drain(&mut q), vec![(1, 'y'), (2, 'z'), (0, 'x')]);
        // A drained queue orders the next pushes afresh.
        q.push(3, 3, 'w');
        q.push(2, 4, 'v');
        assert_eq!(drain(&mut q), vec![(4, 'v'), (3, 'w')]);
    }

    #[test]
    fn priorities_over_1024_apart_pop_in_priority_order() {
        let mut q = StageQueue::new();
        q.push(10, 0, 0u8);
        q.push(10 + 2 * 1024, 1, 1);
        q.push(11, 2, 2);
        q.push(0, 3, 3);
        assert_eq!(drain(&mut q), vec![(3, 3), (0, 0), (2, 2), (1, 1)]);
    }

    #[test]
    fn a_low_priority_pops_before_a_spread_near_1024() {
        let mut q = StageQueue::new();
        q.push(1024 + 500, 0, 0u8);
        q.push(2 * 1024, 1, 1);
        q.push(3, 2, 2);
        assert_eq!(drain(&mut q), vec![(2, 2), (0, 0), (1, 1)]);
    }

    #[test]
    fn matches_a_binary_heap_on_random_sequences() {
        // Reference: a max-heap of Reverse((priority, seq)). Before every pop
        // the queue's `min_key` must equal the heap's top (`LinkState::pop`
        // compares it against the link's inline head), and the pop the same seq.
        let mut state = 42u64;
        let mut rand = move |m: u64| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let check_pop = |q: &mut StageQueue<()>,
                         reference: &mut BinaryHeap<Reverse<(u64, u64)>>| {
            assert_eq!(q.min_key(), reference.peek().map(|r| r.0));
            let want = reference.pop().map(|Reverse((_, seq))| seq);
            assert_eq!(q.pop().map(|(seq, ())| seq), want);
            assert_eq!(q.len(), reference.len());
        };
        for round in 0..50 {
            let mut q = StageQueue::new();
            let mut reference: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            for _ in 0..400 {
                if reference.is_empty() || rand(3) > 0 {
                    // Mostly clustered priorities, occasionally extreme ones.
                    let priority = match rand(20) {
                        0 => rand(10) * 1024,
                        _ => 50 + round + rand(12),
                    };
                    q.push(priority, seq, ());
                    reference.push(Reverse((priority, seq)));
                    seq += 1;
                } else {
                    check_pop(&mut q, &mut reference);
                }
            }
            // Bursts: push the depth past 64, then pop half of it back.
            for _ in 0..3 {
                for _ in 0..80 {
                    let priority = 50 + round + rand(40);
                    q.push(priority, seq, ());
                    reference.push(Reverse((priority, seq)));
                    seq += 1;
                }
                assert!(q.len() > 64);
                for _ in 0..q.len() / 2 {
                    check_pop(&mut q, &mut reference);
                }
            }
            while !reference.is_empty() {
                check_pop(&mut q, &mut reference);
            }
            assert_eq!(q.min_key(), None);
            assert!(q.pop().is_none());
        }
    }
}
