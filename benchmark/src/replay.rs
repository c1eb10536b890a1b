//! Trace-replay schedule: one recorded run's deliveries, reshaped so the bare
//! engine data structures can be driven with the run's own access pattern.
//!
//! A delivery trace says, for every delivery, the tick it fired at, the link
//! it crossed and the delivery that caused it. Replaying `(cause.tick → tick,
//! link)` means: when a delivery is processed, everything it caused is
//! scheduled / queued / allocated; when its own tick comes, it is drained /
//! popped / freed. The adapter times that loop once per structure
//! (`TimingWheel`, `StageQueue`, `PayloadArena`) with nothing else running —
//! no protocol, no delay draws — which prices each structure at the
//! workload's real tick spread, queue depths and live-handle counts.
//!
//! Plain data only; the structures themselves are named in `api.rs`.

/// One delivery as the adapter reads it off the engine's trace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRow {
    /// Global sequence number of the delivery event.
    pub seq: u64,
    /// Absolute tick it fired at.
    pub tick: u64,
    /// Dense directed-edge id of the link it crossed.
    pub link: u32,
    /// `seq` of the delivery whose processing scheduled it (`None`: start wave).
    pub cause: Option<u64>,
}

/// The replayable form of a trace: deliveries in processing order, each with
/// the deliveries it caused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplaySchedule {
    /// Tick of delivery `i` (processing order: ascending tick).
    pub tick: Vec<u64>,
    /// Link of delivery `i`.
    pub link: Vec<u32>,
    /// `children[child_start[i]..child_start[i + 1]]` are the deliveries that
    /// delivery `i` caused, ascending.
    pub child_start: Vec<u32>,
    pub children: Vec<u32>,
    /// Deliveries of the time-0 start wave (no cause).
    pub roots: Vec<u32>,
    /// Number of distinct link ids (`max + 1`).
    pub links: usize,
    /// Largest `tick − cause.tick` over all deliveries: the scheduling
    /// distance a replay wheel must accept. Up to two delays, because a
    /// delivery released by an acknowledgment names the acknowledged delivery
    /// as its cause.
    pub max_distance: u64,
}

impl ReplaySchedule {
    /// Builds the schedule from trace rows in processing order.
    ///
    /// # Panics
    ///
    /// Panics if a row names a cause that is not an earlier row, or fires no
    /// later than its cause — either would mean the trace is not a causal
    /// order, and a replay of it would be meaningless.
    pub fn build(rows: &[DeliveryRow]) -> ReplaySchedule {
        let n = rows.len();
        let mut by_seq: Vec<(u64, u32)> =
            rows.iter().enumerate().map(|(i, r)| (r.seq, i as u32)).collect();
        by_seq.sort_unstable();
        let index_of = |seq: u64| -> u32 {
            let at = by_seq.binary_search_by_key(&seq, |&(s, _)| s).expect("cause is a delivery");
            by_seq[at].1
        };
        let mut parent: Vec<Option<u32>> = Vec::with_capacity(n);
        let mut child_start = vec![0u32; n + 1];
        let mut roots = Vec::new();
        let mut max_distance = 0;
        for (i, row) in rows.iter().enumerate() {
            match row.cause {
                None => {
                    roots.push(i as u32);
                    max_distance = max_distance.max(row.tick);
                    parent.push(None);
                }
                Some(seq) => {
                    let p = index_of(seq);
                    assert!((p as usize) < i, "delivery {i} is caused by a later delivery");
                    let distance = row.tick.saturating_sub(rows[p as usize].tick);
                    assert!(distance > 0, "delivery {i} fires no later than its cause");
                    max_distance = max_distance.max(distance);
                    child_start[p as usize + 1] += 1;
                    parent.push(Some(p));
                }
            }
        }
        for i in 0..n {
            child_start[i + 1] += child_start[i];
        }
        let mut cursor = child_start.clone();
        let mut children = vec![0u32; child_start[n] as usize];
        for (i, p) in parent.iter().enumerate() {
            if let Some(p) = *p {
                children[cursor[p as usize] as usize] = i as u32;
                cursor[p as usize] += 1;
            }
        }
        ReplaySchedule {
            tick: rows.iter().map(|r| r.tick).collect(),
            link: rows.iter().map(|r| r.link).collect(),
            child_start,
            children,
            roots,
            links: rows.iter().map(|r| r.link as usize + 1).max().unwrap_or(0),
            max_distance,
        }
    }

    pub fn len(&self) -> usize {
        self.tick.len()
    }

    pub fn is_empty(&self) -> bool {
        self.tick.is_empty()
    }

    /// Deliveries caused by delivery `i`.
    pub fn children_of(&self, i: usize) -> &[u32] {
        &self.children[self.child_start[i] as usize..self.child_start[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_follow_their_causes_and_roots_have_none() {
        let rows = [
            DeliveryRow { seq: 0, tick: 5, link: 0, cause: None },
            DeliveryRow { seq: 2, tick: 7, link: 3, cause: None },
            DeliveryRow { seq: 9, tick: 12, link: 1, cause: Some(0) },
            DeliveryRow { seq: 4, tick: 15, link: 0, cause: Some(0) },
            DeliveryRow { seq: 11, tick: 1030, link: 2, cause: Some(9) },
        ];
        let s = ReplaySchedule::build(&rows);
        assert_eq!(s.len(), 5);
        assert_eq!(s.roots, vec![0, 1]);
        assert_eq!(s.children_of(0), &[2, 3]);
        assert_eq!(s.children_of(1), &[] as &[u32]);
        assert_eq!(s.children_of(2), &[4]);
        assert_eq!(s.links, 4);
        assert_eq!(s.max_distance, 1018);
        // Every delivery is reachable exactly once: as a root or as a child.
        assert_eq!(s.roots.len() + s.children.len(), s.len());
    }

    #[test]
    #[should_panic(expected = "fires no later than its cause")]
    fn a_non_causal_trace_is_rejected() {
        ReplaySchedule::build(&[
            DeliveryRow { seq: 0, tick: 5, link: 0, cause: None },
            DeliveryRow { seq: 1, tick: 5, link: 0, cause: Some(0) },
        ]);
    }
}
