//! The happens-before checker: turns the sharded engine's determinism
//! *argument* into a checked invariant over recorded traces.
//!
//! The shard/merge contract (DESIGN.md §6) argues that the sharded engine's
//! schedule is bit-identical to the serial wheel's because (a) the serial
//! replay draws every sequence number in ascending global `seq` order, and
//! (b) deliveries within one tick are causally independent across shards, so
//! running their activations in parallel cannot be observed. This module
//! *verifies* both halves on a [`DeliveryTrace`] recorded by an instrumented
//! run ([`ds_netsim::trace`]):
//!
//! * The happens-before relation is rebuilt from the trace: same-shard
//!   program order (a shard processes its deliveries in `(tick, seq)` order —
//!   ascending `seq` *within* each tick, `seq` free across ticks) plus
//!   *cause* edges (delivery `d` scheduled delivery `e`'s event, directly
//!   or through the acknowledgment that freed the link). Vector clocks over
//!   shards give the relation in closed form.
//! * **Order forced ⇒ seq agrees.** Every cause must be strictly earlier in
//!   both `seq` and tick — the adversary's one-tick minimum delay is what
//!   makes the tick barrier sound, and a cause in the same tick would mean
//!   phase 1 observed phase 2.
//! * **Order not forced ⇒ genuinely concurrent.** Any two same-tick
//!   deliveries on different shards must be vector-clock *incomparable*: their
//!   merge order is forced by `seq` alone, never by causality — exactly the
//!   freedom the parallel phase 1 exploits. A comparable pair would be a
//!   cross-shard delivery order that `seq` is not free to choose, i.e. a hole
//!   in the contract.
//!
//! [`check_equivalence`] completes the picture: a serial and a sharded trace
//! of one scenario must agree record for record on the scheduler-independent
//! [`schedule_key`](DeliveryRecord::schedule_key) — shard assignment is the
//! *only* thing the engines may disagree on.

use ds_netsim::{DeliveryRecord, DeliveryTrace};
use std::fmt;

/// A violation of the happens-before contract found in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HbViolation {
    /// Records within one tick are not in strictly ascending `seq` order.
    /// (Across ticks `seq` is free — a later-drawn message with a shorter
    /// delay legitimately delivers first; the engines order deliveries by
    /// `(tick, seq)`, with `seq` the merge tiebreak *within* the tick.)
    NonAscendingSeq {
        /// Position in the trace.
        index: usize,
        /// Previous record's `seq`.
        prev: u64,
        /// This record's `seq`.
        seq: u64,
    },
    /// Two records share one sequence number.
    DuplicateSeq {
        /// The repeated `seq`.
        seq: u64,
    },
    /// A later record fired at an earlier tick.
    TickRegression {
        /// The record's `seq`.
        seq: u64,
        /// Previous record's tick.
        prev_tick: u64,
        /// This record's (earlier) tick.
        tick: u64,
    },
    /// A record's shard is outside `0..shards`.
    ShardOutOfRange {
        /// The record's `seq`.
        seq: u64,
        /// The offending shard.
        shard: u32,
        /// The trace's shard count.
        shards: u32,
    },
    /// One destination node appeared in two different shards.
    InconsistentShard {
        /// The destination node's dense id.
        dst: usize,
        /// First shard it was seen in.
        first: u32,
        /// The conflicting shard.
        conflicting: u32,
    },
    /// A record's cause is not a delivery in the trace.
    UnknownCause {
        /// The record's `seq`.
        seq: u64,
        /// The dangling cause `seq`.
        cause: u64,
    },
    /// A record's cause does not precede it in `seq`.
    CauseNotEarlier {
        /// The record's `seq`.
        seq: u64,
        /// The cause's `seq`.
        cause: u64,
    },
    /// A record's cause fired in the same or a later tick: the one-tick
    /// minimum delay (the soundness of the tick barrier) was violated.
    CauseTickNotEarlier {
        /// The record's `seq`.
        seq: u64,
        /// The record's tick.
        tick: u64,
        /// The cause's `seq`.
        cause: u64,
        /// The cause's tick.
        cause_tick: u64,
    },
    /// Two same-tick deliveries on different shards are happens-before
    /// comparable: their merge order is forced by causality, not by `seq`,
    /// so the parallel phase 1 is not entitled to run them concurrently.
    OrderNotForced {
        /// The earlier (by `seq`) record.
        earlier_seq: u64,
        /// The later record.
        later_seq: u64,
        /// The shared tick.
        tick: u64,
    },
    /// Two traces of one scenario disagree (see [`check_equivalence`]).
    TraceMismatch {
        /// Position of the first disagreement.
        index: usize,
        /// Rendered left record (or "missing").
        left: String,
        /// Rendered right record (or "missing").
        right: String,
    },
}

impl fmt::Display for HbViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HbViolation::NonAscendingSeq { index, prev, seq } => {
                write!(f, "record {index}: seq {seq} after {prev} in one tick (merge order broken)")
            }
            HbViolation::DuplicateSeq { seq } => {
                write!(f, "seq {seq} delivered twice")
            }
            HbViolation::TickRegression { seq, prev_tick, tick } => {
                write!(f, "seq {seq}: tick {tick} after tick {prev_tick} (time ran backwards)")
            }
            HbViolation::ShardOutOfRange { seq, shard, shards } => {
                write!(f, "seq {seq}: shard {shard} out of range (trace has {shards})")
            }
            HbViolation::InconsistentShard { dst, first, conflicting } => {
                write!(f, "node {dst} delivered in shard {first} and shard {conflicting}")
            }
            HbViolation::UnknownCause { seq, cause } => {
                write!(f, "seq {seq}: cause {cause} is not a delivery in the trace")
            }
            HbViolation::CauseNotEarlier { seq, cause } => {
                write!(f, "seq {seq}: cause {cause} does not precede it in seq")
            }
            HbViolation::CauseTickNotEarlier { seq, tick, cause, cause_tick } => {
                write!(
                    f,
                    "seq {seq} (tick {tick}): cause {cause} fired at tick {cause_tick} — the \
                     one-tick minimum delay is violated"
                )
            }
            HbViolation::OrderNotForced { earlier_seq, later_seq, tick } => {
                write!(
                    f,
                    "tick {tick}: cross-shard deliveries {earlier_seq} and {later_seq} are \
                     happens-before comparable — their order is forced by causality, not seq"
                )
            }
            HbViolation::TraceMismatch { index, left, right } => {
                write!(f, "record {index}: traces disagree — {left} vs {right}")
            }
        }
    }
}

/// Summary statistics of a verified trace.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HbReport {
    /// Number of delivery records.
    pub records: usize,
    /// Records with a cause (the rest are start-wave roots).
    pub cause_edges: usize,
    /// Distinct ticks that delivered something.
    pub ticks: usize,
    /// Same-tick cross-shard pairs checked for vector-clock incomparability.
    pub concurrent_pairs_checked: u64,
}

/// Verifies the happens-before contract on one trace. Returns summary
/// statistics, or every violation found.
///
/// # Errors
///
/// A non-empty list of [`HbViolation`]s if any invariant fails.
pub fn check_trace(trace: &DeliveryTrace) -> Result<HbReport, Vec<HbViolation>> {
    let mut violations = Vec::new();
    let records = &trace.records;
    let shards = trace.shards.max(1);

    // Pass 1: seq/tick monotonicity, shard sanity, cause resolution.
    let dsts = records.iter().map(|r| r.dst.0 + 1).max().unwrap_or(0);
    let mut shard_of_dst: Vec<Option<u32>> = vec![None; dsts];
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            let prev = &records[i - 1];
            if r.tick == prev.tick && r.seq <= prev.seq {
                violations.push(HbViolation::NonAscendingSeq {
                    index: i,
                    prev: prev.seq,
                    seq: r.seq,
                });
            }
            if r.tick < prev.tick {
                violations.push(HbViolation::TickRegression {
                    seq: r.seq,
                    prev_tick: prev.tick,
                    tick: r.tick,
                });
            }
        }
        if r.shard >= shards {
            violations.push(HbViolation::ShardOutOfRange { seq: r.seq, shard: r.shard, shards });
        }
        let dst = r.dst.0;
        match shard_of_dst[dst] {
            Some(s) if s != r.shard => {
                violations.push(HbViolation::InconsistentShard {
                    dst,
                    first: s,
                    conflicting: r.shard,
                });
            }
            Some(_) => {}
            None => shard_of_dst[dst] = Some(r.shard),
        }
    }
    // Record indices by seq.
    let mut by_seq: Vec<(u64, usize)> =
        records.iter().enumerate().map(|(i, r)| (r.seq, i)).collect();
    by_seq.sort_unstable();
    for pair in by_seq.windows(2).filter(|pair| pair[0].0 == pair[1].0) {
        violations.push(HbViolation::DuplicateSeq { seq: pair[1].0 });
    }
    let index_of = |seq: u64| {
        let at = by_seq.binary_search_by_key(&seq, |&(seq, _)| seq).ok()?;
        Some(by_seq[at].1)
    };
    // Each record's cause, as a record index.
    let mut cause_at: Vec<Option<usize>> = vec![None; records.len()];
    for (i, r) in records.iter().enumerate() {
        let Some(cause) = r.cause else { continue };
        match index_of(cause) {
            None => violations.push(HbViolation::UnknownCause { seq: r.seq, cause }),
            Some(ci) => {
                cause_at[i] = Some(ci);
                let c = &records[ci];
                if c.seq >= r.seq {
                    violations.push(HbViolation::CauseNotEarlier { seq: r.seq, cause });
                }
                if c.tick >= r.tick {
                    violations.push(HbViolation::CauseTickNotEarlier {
                        seq: r.seq,
                        tick: r.tick,
                        cause,
                        cause_tick: c.tick,
                    });
                }
            }
        }
    }

    // Pass 2: same-tick cross-shard deliveries must be incomparable — their
    // merge order is seq's alone to choose. Records are grouped into
    // contiguous same-tick runs (pass 1 verified tick monotonicity). Program
    // order and cause edges both lead from a lower record index to a higher
    // one, so a path between two records of one run stays inside the run,
    // and it changes shard only over a cause edge inside the run: a run
    // without one has every cross-shard pair incomparable. A run with one
    // gets vector clocks over its records — a record's clock is the join of
    // its shard's previous clock (program order) and its cause's, then its
    // own shard component advances — and every cross-shard pair is compared.
    let k = shards as usize;
    let shard_index = |r: &DeliveryRecord| (r.shard as usize).min(k - 1);
    let mut concurrent_pairs_checked = 0u64;
    let mut ticks = 0usize;
    let mut per_shard = vec![0u64; k];
    let mut run_start = 0;
    while run_start < records.len() {
        let tick = records[run_start].tick;
        let mut run_end = run_start + 1;
        while run_end < records.len() && records[run_end].tick == tick {
            run_end += 1;
        }
        ticks += 1;
        let run = &records[run_start..run_end];
        let len = run.len() as u64;
        let mut same_shard_pairs = 0;
        run.iter().for_each(|r| per_shard[shard_index(r)] += 1);
        for r in run {
            let c = std::mem::take(&mut per_shard[shard_index(r)]);
            same_shard_pairs += c * c.saturating_sub(1) / 2;
        }
        concurrent_pairs_checked += len * (len - 1) / 2 - same_shard_pairs;

        let inner_cause = |i: usize| cause_at[i].filter(|&ci| run_start <= ci && ci < i);
        if (run_start..run_end).any(|i| inner_cause(i).is_some()) {
            let mut clocks: Vec<Vec<u64>> = Vec::with_capacity(run.len());
            let mut shard_last: Vec<Option<usize>> = vec![None; k];
            for (i, r) in (run_start..).zip(run) {
                let s = shard_index(r);
                let mut vc = shard_last[s].map_or_else(|| vec![0; k], |p| clocks[p].clone());
                if let Some(ci) = inner_cause(i) {
                    for (a, b) in vc.iter_mut().zip(&clocks[ci - run_start]) {
                        *a = (*a).max(*b);
                    }
                }
                vc[s] += 1;
                clocks.push(vc);
                shard_last[s] = Some(i - run_start);
            }
            for i in 0..run.len() {
                for j in (i + 1)..run.len() {
                    if run[i].shard == run[j].shard {
                        continue;
                    }
                    let (a, b) = (&clocks[i], &clocks[j]);
                    let a_le_b = a.iter().zip(b).all(|(x, y)| x <= y);
                    let b_le_a = b.iter().zip(a).all(|(x, y)| x <= y);
                    if a_le_b || b_le_a {
                        violations.push(HbViolation::OrderNotForced {
                            earlier_seq: run[i].seq,
                            later_seq: run[j].seq,
                            tick,
                        });
                    }
                }
            }
        }
        run_start = run_end;
    }

    if violations.is_empty() {
        Ok(HbReport {
            records: records.len(),
            cause_edges: records.iter().filter(|r| r.cause.is_some()).count(),
            ticks,
            concurrent_pairs_checked,
        })
    } else {
        Err(violations)
    }
}

/// Verifies that two traces of one scenario describe the same schedule:
/// record for record, the scheduler-independent
/// [`schedule_key`](DeliveryRecord::schedule_key) must match. Shard
/// assignment is the only permitted difference (serial engines record shard
/// 0 everywhere; the sharded engine records the destination's owner).
///
/// # Errors
///
/// A non-empty list of [`HbViolation::TraceMismatch`]es (capped at 8) if the
/// traces disagree.
pub fn check_equivalence(
    left: &DeliveryTrace,
    right: &DeliveryTrace,
) -> Result<(), Vec<HbViolation>> {
    let mut violations = Vec::new();
    let n = left.records.len().max(right.records.len());
    for i in 0..n {
        let l = left.records.get(i);
        let r = right.records.get(i);
        let matches = match (l, r) {
            (Some(a), Some(b)) => a.schedule_key() == b.schedule_key(),
            _ => false,
        };
        if !matches {
            let render = |x: Option<&DeliveryRecord>| {
                x.map_or_else(|| "missing".to_string(), |rec| format!("{rec:?}"))
            };
            violations.push(HbViolation::TraceMismatch {
                index: i,
                left: render(l),
                right: render(r),
            });
            if violations.len() >= 8 {
                break;
            }
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(violations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_graph::NodeId;

    fn rec(
        seq: u64,
        tick: u64,
        shard: u32,
        src: usize,
        dst: usize,
        cause: Option<u64>,
    ) -> DeliveryRecord {
        DeliveryRecord { seq, tick, shard, src: NodeId(src), dst: NodeId(dst), cause }
    }

    fn trace(shards: u32, records: Vec<DeliveryRecord>) -> DeliveryTrace {
        DeliveryTrace { records, shards }
    }

    #[test]
    fn a_consistent_trace_passes_with_stats() {
        // Two shards, three ticks: start-wave roots at tick 5, then caused
        // deliveries strictly later.
        let t = trace(
            2,
            vec![
                rec(0, 5, 0, 1, 0, None),
                rec(1, 5, 1, 0, 3, None),
                rec(4, 6, 1, 0, 2, Some(0)),
                rec(5, 6, 0, 2, 1, Some(1)),
                rec(9, 8, 0, 3, 0, Some(4)),
            ],
        );
        let report = check_trace(&t).expect("consistent trace");
        assert_eq!(report.records, 5);
        assert_eq!(report.cause_edges, 3);
        assert_eq!(report.ticks, 3);
        assert_eq!(report.concurrent_pairs_checked, 2);
    }

    #[test]
    fn seq_and_tick_regressions_are_caught() {
        let t = trace(
            1,
            vec![rec(3, 5, 0, 0, 1, None), rec(2, 5, 0, 1, 0, None), rec(7, 4, 0, 0, 1, None)],
        );
        let violations = check_trace(&t).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, HbViolation::NonAscendingSeq { prev: 3, seq: 2, .. })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, HbViolation::TickRegression { prev_tick: 5, tick: 4, .. })));
    }

    #[test]
    fn cross_tick_seq_inversion_is_legitimate_but_duplicates_are_not() {
        // A later-drawn seq delivering at an earlier tick than a higher seq is
        // how real jitter traces look — only *within* a tick is seq the order.
        let ok = trace(1, vec![rec(9, 5, 0, 0, 1, None), rec(2, 6, 0, 1, 0, None)]);
        check_trace(&ok).expect("cross-tick seq inversion is fine");
        let dup = trace(1, vec![rec(3, 5, 0, 0, 1, None), rec(3, 6, 0, 1, 0, None)]);
        let violations = check_trace(&dup).unwrap_err();
        assert!(violations.iter().any(|v| matches!(v, HbViolation::DuplicateSeq { seq: 3 })));
    }

    #[test]
    fn dangling_and_non_earlier_causes_are_caught() {
        let t = trace(1, vec![rec(0, 5, 0, 0, 1, Some(7)), rec(2, 6, 0, 1, 0, Some(2))]);
        let violations = check_trace(&t).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, HbViolation::UnknownCause { seq: 0, cause: 7 })));
        assert!(violations
            .iter()
            .any(|v| matches!(v, HbViolation::CauseNotEarlier { seq: 2, cause: 2 })));
    }

    #[test]
    fn a_same_tick_cause_breaks_both_the_delay_bound_and_concurrency() {
        // Delivery 1 (shard 1) caused by delivery 0 (shard 0) *in the same
        // tick*: the one-tick delay bound is violated, and the pair becomes
        // happens-before comparable — phase 1 would have run an order that
        // causality, not seq, dictated.
        let t = trace(2, vec![rec(0, 5, 0, 1, 0, None), rec(1, 5, 1, 0, 3, Some(0))]);
        let violations = check_trace(&t).unwrap_err();
        assert!(violations
            .iter()
            .any(|v| matches!(v, HbViolation::CauseTickNotEarlier { seq: 1, cause: 0, .. })));
        assert!(violations.iter().any(|v| matches!(
            v,
            HbViolation::OrderNotForced { earlier_seq: 0, later_seq: 1, tick: 5 }
        )));
    }

    #[test]
    fn inconsistent_shard_assignment_is_caught() {
        let t = trace(2, vec![rec(0, 5, 0, 1, 0, None), rec(1, 6, 1, 2, 0, Some(0))]);
        let violations = check_trace(&t).unwrap_err();
        assert!(violations.iter().any(|v| matches!(
            v,
            HbViolation::InconsistentShard { dst: 0, first: 0, conflicting: 1 }
        )));
    }

    #[test]
    fn equivalence_ignores_shards_but_nothing_else() {
        let a = trace(1, vec![rec(0, 5, 0, 1, 0, None), rec(2, 6, 0, 0, 1, Some(0))]);
        let b = trace(2, vec![rec(0, 5, 0, 1, 0, None), rec(2, 6, 1, 0, 1, Some(0))]);
        check_equivalence(&a, &b).expect("shard-only difference is fine");
        let c = trace(2, vec![rec(0, 5, 0, 1, 0, None), rec(3, 6, 1, 0, 1, Some(0))]);
        let violations = check_equivalence(&a, &c).unwrap_err();
        assert_eq!(violations.len(), 1);
        assert!(matches!(violations[0], HbViolation::TraceMismatch { index: 1, .. }));
        let short = trace(1, vec![rec(0, 5, 0, 1, 0, None)]);
        assert!(check_equivalence(&a, &short).is_err());
    }

    #[test]
    fn violations_render_readably() {
        let v = HbViolation::OrderNotForced { earlier_seq: 3, later_seq: 9, tick: 7 };
        let s = format!("{v}");
        assert!(s.contains("tick 7") && s.contains('3') && s.contains('9'));
    }
}
