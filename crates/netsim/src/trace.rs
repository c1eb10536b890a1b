//! Opt-in delivery tracing: the raw material of the happens-before checker.
//!
//! The determinism guarantee of the sharded engine rests on an *argument* (the
//! shard/merge contract, [`crate::sharded`] and DESIGN.md §6). Tracing turns it
//! into a *checked invariant*: with tracing enabled, every engine records one
//! [`DeliveryRecord`] per message delivery — the event's global `seq`, the tick
//! it fired at, the shard that ran the activation, the endpoints, and the
//! `cause`: the `seq` of the delivery during whose engine-effect processing
//! this delivery's event was scheduled. `ds-verify` rebuilds the
//! happens-before relation from those records (vector clocks over shards:
//! same-shard program order plus cause edges) and fails if any cross-shard
//! delivery order is not forced by `seq` — see DESIGN.md §8.
//!
//! Tracing is **off by default and zero-cost when off**: the engines carry an
//! `Option<TraceState>` and every hook is a branch on `Some`. No sequence
//! number, delay draw or container operation differs between a traced and an
//! untraced run, so schedules are bit-identical either way (pinned by the
//! module tests in [`crate::async_engine`] and by the traced and untraced
//! rows of `ds-verify`'s engine contract, `ds_verify::check`).
//!
//! Causality is tracked through *acknowledgment inheritance*: a link
//! acknowledgment scheduled while processing delivery `d` carries `d` as its
//! cause, and a delivery whose injection was unblocked by that acknowledgment
//! inherits `d` too. The `cause` chain therefore closes over deliveries alone,
//! which is what lets the checker work on delivery records only.
//!
//! An acknowledgment the engine *parks* (nothing waited behind it, DESIGN.md
//! §10.2) registers its cause when it is drawn, like a scheduled one; if a
//! send later files it, it fires through the same hook. If it passes unfired
//! it is forgotten. Its firing could only have set the causal context, and
//! every event that schedules anything sets the context first (a fault drop
//! schedules nothing: its link is blocked, so the release drains the queue),
//! so no record depends on the acks that never fire.

use ds_graph::NodeId;
use std::collections::BTreeMap;

/// One message delivery, as observed by an engine running with tracing on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeliveryRecord {
    /// Global sequence number of the delivery event (drawn when the event was
    /// scheduled; the merge processes events in ascending `seq`).
    pub seq: u64,
    /// Absolute tick the delivery fired at.
    pub tick: u64,
    /// The destination node's shard, whose phase 1 runs the activation on a
    /// dense tick. Always 0 on the serial engines (one implicit shard).
    pub shard: u32,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node (owner of the activation).
    pub dst: NodeId,
    /// `seq` of the delivery during whose engine-effect processing this
    /// delivery's event was scheduled (directly, or through the acknowledgment
    /// that unblocked the link). `None` for deliveries injected by the time-0
    /// start wave.
    pub cause: Option<u64>,
}

impl DeliveryRecord {
    /// The scheduler-independent part of the record: everything but the shard
    /// assignment. Serial and sharded runs of one scenario must agree on this
    /// exactly (`ds-verify`'s trace-equivalence check compares these).
    pub fn schedule_key(&self) -> (u64, u64, NodeId, NodeId, Option<u64>) {
        (self.seq, self.tick, self.src, self.dst, self.cause)
    }
}

/// A complete run trace: every delivery, in processing order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeliveryTrace {
    /// Delivery records in the order the engine processed them: ascending
    /// `(tick, seq)` — tick-major, with global `seq` ascending within each
    /// tick (the happens-before checker verifies this, among others).
    pub records: Vec<DeliveryRecord>,
    /// Number of shards the producing engine ran with (1 for the serial
    /// engines and the degenerate single-shard layout).
    pub shards: u32,
}

/// Engine-internal trace accumulator. The engines hold an `Option<TraceState>`
/// and call the hooks below at the three points where causality is visible:
/// event scheduling, delivery processing, and acknowledgment processing.
#[derive(Debug)]
pub(crate) struct TraceState {
    records: Vec<DeliveryRecord>,
    /// Pending event `seq` → the delivery `seq` it was caused by (`None` for
    /// start-wave effects). Holds both deliveries and acknowledgments; entries
    /// are removed when their event fires.
    cause_of: BTreeMap<u64, Option<u64>>,
    /// The delivery whose engine effects are currently being processed
    /// (`None` during the time-0 start wave).
    current: Option<u64>,
    shards: u32,
}

impl TraceState {
    pub(crate) fn new(shards: u32) -> Self {
        TraceState { records: Vec::new(), cause_of: BTreeMap::new(), current: None, shards }
    }

    /// Records that the event with sequence number `seq` was scheduled during
    /// the current processing context (a delivery, an acknowledgment carrying
    /// its delivery's cause, or the start wave).
    pub(crate) fn on_scheduled(&mut self, seq: u64) {
        self.cause_of.insert(seq, self.current);
    }

    /// Forgets the parked acknowledgment `seq`: it passed without firing.
    pub(crate) fn on_passed(&mut self, seq: u64) {
        self.cause_of.remove(&seq);
    }

    /// Records a delivery firing and makes it the current causal context for
    /// everything its processing schedules.
    pub(crate) fn on_delivery(
        &mut self,
        seq: u64,
        tick: u64,
        shard: u32,
        src: NodeId,
        dst: NodeId,
    ) {
        let cause = self.cause_of.remove(&seq).flatten();
        self.records.push(DeliveryRecord { seq, tick, shard, src, dst, cause });
        self.current = Some(seq);
    }

    /// Records an acknowledgment firing: the causal context becomes the
    /// delivery the acknowledgment inherited, so a delivery injected because
    /// this acknowledgment freed the link points back at a real delivery.
    pub(crate) fn on_ack(&mut self, seq: u64) {
        self.current = self.cause_of.remove(&seq).flatten();
    }

    pub(crate) fn finish(self) -> DeliveryTrace {
        DeliveryTrace { records: self.records, shards: self.shards }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_inheritance_closes_the_cause_chain_over_deliveries() {
        let mut t = TraceState::new(1);
        // Start wave schedules delivery 0.
        t.on_scheduled(0);
        // Delivery 0 fires; its processing schedules ack 1 and delivery 2.
        t.on_delivery(0, 5, 0, NodeId(0), NodeId(1));
        t.on_scheduled(1);
        t.on_scheduled(2);
        // Ack 1 fires and unblocks delivery 3: cause must be delivery 0.
        t.on_ack(1);
        t.on_scheduled(3);
        t.on_delivery(3, 9, 0, NodeId(1), NodeId(0));
        // Delivery 2 fires: caused by delivery 0 directly.
        t.on_delivery(2, 10, 0, NodeId(0), NodeId(1));
        let trace = t.finish();
        assert_eq!(trace.shards, 1);
        let causes: Vec<Option<u64>> = trace.records.iter().map(|r| r.cause).collect();
        assert_eq!(causes, vec![None, Some(0), Some(0)]);
    }

    #[test]
    fn schedule_keys_drop_only_the_shard() {
        let r = DeliveryRecord {
            seq: 7,
            tick: 1000,
            shard: 3,
            src: NodeId(1),
            dst: NodeId(2),
            cause: Some(4),
        };
        assert_eq!(r.schedule_key(), (7, 1000, NodeId(1), NodeId(2), Some(4)));
    }
}
