//! The deterministic distributed synchronizer (Sections 4 and 5 of the paper).
//!
//! [`DetSynchronizer`] wraps an event-driven synchronous algorithm
//! ([`EventDriven`]) and runs it in the asynchronous model with polylogarithmic time
//! and message overheads, given a layered sparse cover (the Theorem 5.3 setting).
//!
//! # How it works
//!
//! Every physical node simulates *virtual nodes* `(v, p)` — one for each pulse `p`
//! at which `v` sends algorithm messages. Virtual nodes form an *execution forest*:
//! the parent of `(v, p)` is a virtual node of pulse `p − 1` from which `v` received
//! a triggering message (or `(v, p − 1)` itself). The synchronizer ensures that a
//! node evaluates the algorithm's pulse-`p` behavior only when it is guaranteed to
//! have received *all* pulse-`≤ p − 1` algorithm messages destined to it (Lemma 5.1),
//! so the asynchronous execution produces exactly the synchronous execution's
//! messages and outputs (Theorem 5.2).
//!
//! The guarantee is enforced stage by stage. For each pulse `p ≥ 1`:
//!
//! * nodes between pulses `prev(prev(p))` and `p` collect *`p`-safety* of their
//!   execution subtrees (all relevant descendants have sent their messages and had
//!   them confirmed) via a convergecast along the execution forest,
//! * *anchor* nodes of pulse `prev(prev(p))` register in every cluster of the
//!   `2^{ℓ(p)+5}`-cover containing them (using the Section 3.2 registration
//!   abstraction) once they are `prev(p)`-safe, withholding their own `prev(p)`-safety
//!   report until the registration is confirmed, and deregister once `p`-safe,
//! * cluster roots issue `Go-Ahead(p)`s once all registered anchors have
//!   deregistered; anchors that have collected Go-Aheads from all their clusters
//!   release pulse `p` down the execution forest, and pulse-`p − 1` virtual nodes
//!   forward the release to the recipients of their messages,
//! * stages anchored at pulse 0 (`prev(prev(p)) = 0`, the multi-source base case of
//!   Section 4.2) use full-cluster barriers instead of the registration abstraction:
//!   initiators may send only after a cluster-wide "all initiators present" barrier,
//!   and `Go-Ahead(p)` is broadcast once every initiator in the cluster is `p`-safe.
//!
//! # Deviations from the paper
//!
//! DESIGN.md §3 records two deliberate deviations, both conservative: the safety
//! definition is the well-founded variant needed for general (non-BFS) event-driven
//! algorithms, and anchors register whenever they have any execution-tree child
//! (the paper's `prev(p)`-emptiness test is not evaluable at that moment for general
//! algorithms). Both keep the correctness invariants; the measured overheads remain
//! polylogarithmic (see DESIGN.md §4 and the `exp_*` binaries in `ds-bench`).

use crate::flat::{FlatMap, PulseSet};
use crate::pulse;
use crate::registration::{ChildMark, RegAction, RegMsg, RegistrationInstance};
use ds_covers::builder::build_synchronizer_cover;
use ds_covers::{ClusterId, LayeredSparseCover, SparseCover, TreePos};
use ds_graph::{metrics, Graph, NodeId};
use ds_netsim::event_driven::{canonical_batch, EventDriven, PulseCtx};
use ds_netsim::metrics::MessageClass;
use ds_netsim::protocol::{Ctx, Protocol};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// Messages exchanged by the synchronizer. `M` is the wrapped algorithm's message
/// type.
#[derive(Clone, Debug)]
pub enum SyncMsg<M> {
    /// An algorithm message sent by the sender's virtual node of pulse `pulse`.
    Alg { pulse: u64, payload: M },
    /// Receipt confirmation for an algorithm message of pulse `pulse`.
    AlgAck { pulse: u64 },
    /// The sender was triggered at pulse `pulse` and reports whether it created a
    /// virtual node and whether the recipient's pulse-`pulse − 1` virtual node was
    /// chosen as its parent.
    Decision { pulse: u64, created: bool, chosen_parent: bool },
    /// Safety report: the sender's virtual node of pulse `sender_pulse` reports that
    /// its subtree is `stage`-safe to its execution-tree parent.
    Safe { stage: u64, sender_pulse: u64 },
    /// Go-Ahead for `stage` travelling down the execution tree, from the sender's
    /// virtual node of pulse `sender_pulse` to the recipient's virtual node of pulse
    /// `sender_pulse + 1`.
    GoAheadExec { stage: u64, sender_pulse: u64 },
    /// Go-Ahead for `stage` forwarded by a pulse-`stage − 1` virtual node to a
    /// recipient of its algorithm messages: the recipient may now evaluate pulse
    /// `stage`.
    GoAheadRecipient { stage: u64 },
    /// A registration-abstraction message for (stage, cluster).
    Reg { stage: u64, cluster: u32, msg: RegMsg },
    /// Base-stage barrier, phase A (all initiators present), travelling up/down the
    /// cluster tree of cluster `cluster` in cover layer `cover_idx`.
    BarrierAUp { cover_idx: u32, cluster: u32 },
    /// Phase A completion broadcast.
    BarrierADown { cover_idx: u32, cluster: u32 },
    /// Base-stage barrier, phase B (all initiators `stage`-safe), travelling up.
    BarrierBUp { stage: u64, cluster: u32 },
    /// Phase B completion broadcast: the cluster's Go-Ahead for the base stage.
    BarrierBDown { stage: u64, cluster: u32 },
}

/// Precomputed per-stage data.
#[derive(Clone, Debug, PartialEq, Eq)]
struct StageInfo {
    prev: u64,
    prev_prev: u64,
    cover_idx: usize,
    /// Where this stage's run starts in `SynchronizerConfig::slots`: one entry
    /// per tracking pulse `q` in `prev_prev..stage`.
    slot_base: u32,
}

/// Shared configuration of a synchronizer run: the pulse bound, the layered sparse
/// cover, and precomputed stage tables.
///
/// All per-stage index sets the synchronizer consults on its hot path
/// (`stages_tracked`, `stages_with_prev`, `base_stages`) and the position of
/// every stage in every `stages_tracked(q)` list (`tracked_slot`) are
/// precomputed here once and served as slices — total table size is
/// `O(T log T)` by Lemma 4.14.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SynchronizerConfig {
    /// Upper bound on the wrapped algorithm's synchronous time complexity `T(A)`.
    pub max_pulse: u64,
    /// The layered sparse cover used by all stages.
    pub covers: LayeredSparseCover,
    stages: Vec<StageInfo>,
    base_cover_levels: Vec<usize>,
    /// `tracked[q]`: stages `s` with `prev(prev(s)) ≤ q < s`, ascending.
    tracked: Vec<Vec<u64>>,
    /// `with_prev[s]`: non-base stages `p` with `prev(p) = s`, ascending.
    with_prev: Vec<Vec<u64>>,
    /// `slots[stages[s].slot_base + (q - prev_prev(s))]`: the position of stage
    /// `s` in `tracked[q]`.
    slots: Vec<u16>,
}

impl SynchronizerConfig {
    /// Builds a configuration for `graph`, constructing the layered sparse cover
    /// internally (the "without being given a cover" setting; the construction is
    /// centralized, see DESIGN.md §3).
    ///
    /// The cover only needs an *upper bound* on the graph diameter: the top
    /// layer's radius must reach the diameter, so that some cluster of it spans
    /// the whole graph. Only the layers from the smallest stage radius up to the
    /// first one-cluster layer are built, and the layers above share that cover
    /// (see [`build_synchronizer_cover`]). So this uses the two-BFS double-sweep
    /// bound of [`metrics::diameter_bounds`], not the exact [`metrics::diameter`]:
    /// two BFS cost less than an all-pairs search, even a bit-parallel one, and
    /// the cover is the same. Whenever `64·T(A)` dominates the bound — every
    /// shipped workload, since `T(A) ≥ ecc(source) ≥ diameter/2` — the produced
    /// cover is identical to the exact-diameter construction.
    ///
    /// # Panics
    ///
    /// Panics if the graph is empty or disconnected, or `max_pulse == 0`.
    pub fn build(graph: &Graph, max_pulse: u64) -> Arc<Self> {
        assert!(max_pulse > 0, "the pulse bound must be positive");
        let (_, diameter_upper) =
            metrics::diameter_bounds(graph).expect("synchronizer requires a connected graph");
        let covers = build_synchronizer_cover(graph, max_pulse as usize, diameter_upper.max(1));
        Self::with_covers(covers, max_pulse)
    }

    /// Builds a configuration from an existing layered sparse cover (the Theorem 5.3
    /// "given a layered sparse `O(T(A))`-cover" setting). Stage `p` runs on layer
    /// [`LayeredSparseCover::layer_for_radius`]`(2^{ℓ(p)+5})`: the lowest layer
    /// whose radius is that large, or the top layer if none is.
    ///
    /// # Panics
    ///
    /// Panics if `max_pulse == 0`.
    pub fn with_covers(covers: LayeredSparseCover, max_pulse: u64) -> Arc<Self> {
        assert!(max_pulse > 0, "the pulse bound must be positive");
        let mut stages = Vec::with_capacity(max_pulse as usize + 1);
        stages.push(StageInfo { prev: 0, prev_prev: 0, cover_idx: 0, slot_base: 0 }); // unused slot 0
        let mut base_levels = BTreeSet::new();
        let mut tracked = vec![Vec::new(); max_pulse as usize + 1];
        let mut with_prev = vec![Vec::new(); max_pulse as usize + 1];
        let mut slots = Vec::new();
        for p in 1..=max_pulse {
            let radius = 1usize << pulse::cover_exponent(p).min(60);
            let cover_idx = covers.layer_for_radius(radius);
            let info = StageInfo {
                prev: pulse::prev(p),
                prev_prev: pulse::prev_prev(p),
                cover_idx,
                slot_base: u32::try_from(slots.len()).expect("slot table fits u32"),
            };
            if info.prev_prev == 0 {
                base_levels.insert(cover_idx);
            } else {
                with_prev[info.prev as usize].push(p);
            }
            // Stages are visited ascending, so `p` lands at the end of each list.
            for q in info.prev_prev..p {
                let list: &mut Vec<u64> = &mut tracked[q as usize];
                slots.push(u16::try_from(list.len()).expect("O(log T) stages per pulse"));
                list.push(p);
            }
            stages.push(info);
        }
        Arc::new(SynchronizerConfig {
            max_pulse,
            covers,
            stages,
            base_cover_levels: base_levels.into_iter().collect(),
            tracked,
            with_prev,
            slots,
        })
    }

    fn stage(&self, p: u64) -> &StageInfo {
        &self.stages[p as usize]
    }

    /// The cover layer index used by stage `p`.
    fn cover_idx(&self, p: u64) -> usize {
        self.stage(p).cover_idx
    }

    /// Base stages (anchored at pulse 0) up to the pulse bound, ascending: the
    /// stages `s` with `prev(prev(s)) = 0`, which are exactly the stages a
    /// pulse-0 virtual node tracks.
    fn base_stages(&self) -> &[u64] {
        self.stages_tracked(0)
    }

    /// Stages `p` with `prev(p) == s` (their registration is triggered by `s`-safety).
    fn stages_with_prev(&self, s: u64) -> &[u64] {
        &self.with_prev[s as usize]
    }

    /// Stages tracked (safety-wise) by a virtual node of pulse `q`, ascending:
    /// the layout of that virtual node's state row.
    fn stages_tracked(&self, q: u64) -> &[u64] {
        &self.tracked[q as usize]
    }

    /// The position of stage `s` in `stages_tracked(q)` — the offset of `s`'s
    /// entry in the row of a pulse-`q` virtual node — or `None` if `q` does not
    /// track `s` (`s` outside `1..=max_pulse`, or `q` outside
    /// `prev(prev(s))..s`). Two array reads, no search.
    // ds-lint: hot-path
    fn tracked_slot(&self, q: u64, s: u64) -> Option<usize> {
        let info = self.stages.get(s as usize).filter(|_| s > 0)?;
        if q < info.prev_prev || q >= s {
            return None;
        }
        Some(usize::from(self.slots[info.slot_base as usize + (q - info.prev_prev) as usize]))
    }

    /// The cover used by stage `p`.
    fn stage_cover(&self, p: u64) -> &SparseCover {
        self.covers.level(self.cover_idx(p))
    }
}

/// Per-stage safety state of one virtual node: its entry for the stage in the
/// node's `vstages` row (DESIGN.md §3.4).
#[derive(Clone, Copy, Debug, Default)]
struct VStage {
    /// Remote execution-tree children that reported this stage safe. A count
    /// suffices: a child reports a stage at most once (`reported_up`), only to
    /// the parent its `Decision` chose, and that `Decision` travels the same
    /// link at a lower priority, so it arrives first. Once the virtual node is
    /// complete (every `Decision` in), "all children safe" is
    /// `safe_children == children_remote`.
    safe_children: u32,
    gate_pending: u32,
    safe_self_child: bool,
    subtree_safe: bool,
    reported_up: bool,
    gate_started: bool,
    /// The Go-Ahead for this stage has reached this virtual node.
    goahead: bool,
}

/// Anchor bookkeeping for one stage anchored at a virtual node: its entry for
/// the stage in the node's `anchors` row, live once `anchored` is set.
#[derive(Clone, Copy, Debug, Default)]
struct AnchorStage {
    /// Number of clusters the anchor registers in: all it is a member of, in the
    /// stage's cover.
    clusters: u32,
    registered: u32,
    freed: u32,
    anchored: bool,
    deregistered: bool,
    dereg_requested: bool,
    goahead_done: bool,
}

/// One recipient of a virtual node's algorithm messages (an entry of the node's
/// `recipients` arena).
#[derive(Clone, Copy, Debug)]
struct Recipient {
    node: u32,
    /// Its `Decision` chose this virtual node as execution-tree parent.
    child: bool,
}

/// One virtual node `(v, pulse)`. Its keyed sub-state lives in the node's
/// arenas: per-stage state in the `vstages` and `anchors` rows starting at
/// `row`, one entry per stage of `stages_tracked(pulse)` in that order, and its
/// recipients (ascending, deduplicated) in `recipients[recip_at..][..recip_len]`.
#[derive(Clone, Copy, Debug)]
struct VNode {
    row: u32,
    recip_at: u32,
    recip_len: u32,
    unacked: u32,
    undecided: u32,
    /// Number of recipients whose `child` flag is set.
    children_remote: u32,
    parent_remote: Option<NodeId>,
    self_parent: bool,
    sent_all: bool,
    child_self: bool,
    complete: bool,
}

impl VNode {
    fn has_children(&self) -> bool {
        self.child_self || self.children_remote > 0
    }

    fn recipients(&self) -> std::ops::Range<usize> {
        let at = self.recip_at as usize;
        at..at + self.recip_len as usize
    }
}

/// Base-stage barrier state at this node for one cluster tree: phase A per (cover
/// layer, cluster), phase B per (stage, cluster). Each cluster-tree child reports up
/// exactly once, so a countdown suffices.
#[derive(Clone, Copy, Debug)]
struct Barrier {
    children_left: u32,
    sent_up: bool,
    /// Phase B only: the completion broadcast has reached this node.
    done: bool,
}

impl Barrier {
    fn new(pos: TreePos<'_>) -> Self {
        Barrier { children_left: pos.children.len() as u32, sent_up: false, done: false }
    }
}

/// The registration abstraction's state at this node for one (stage, cluster).
#[derive(Clone, Copy, Debug)]
struct RegCell {
    inst: RegistrationInstance,
    /// Where this cell's per-child marks start in `DetSynchronizer::reg_marks`; their
    /// number is the position's child count.
    marks_at: u32,
}

/// One call on a registration cell.
#[derive(Clone, Copy, Debug)]
enum RegCall {
    Register,
    Deregister,
    Message { from: NodeId, msg: RegMsg },
}

/// `stage_row` / `barrier_a_row` entry of a row that does not exist (yet).
const NO_ROW: u32 = u32::MAX;

/// What a [`Work::Stages`] item does for each stage `s` it names, at the
/// virtual node of pulse `q`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum StageOp {
    /// Re-evaluate the virtual node's `s`-safety and what hangs on it.
    Recompute,
    /// Record the Go-Ahead for `s` and pass it on.
    GoAhead,
    /// The virtual node's self-child (pulse `q + 1`) reported `s`-safety.
    SafeFromSelfChild,
    /// Re-check this node's phase-B barriers of base stage `s` (`q = 0`).
    BarrierB,
}

/// Internal work items, processed by [`DetSynchronizer::drain_work`].
///
/// Per-stage work is one *range* item per run of stages: `Stages` names a
/// set of stages of `stages_tracked(q)` by a mask, so a loop that queues one
/// operation per tracked (or base) stage queues one item. `drain_work` pops
/// a range, puts its remainder back at the *front*, then runs the head:
/// whatever the head pushes lands behind the remainder, exactly where the
/// unrolled items sat, so the processing order — and with it every send and
/// the schedule — is the unrolled queue's (DESIGN.md §3.4). For the same
/// reason a push merges into the queue's back item when it only extends that
/// item's run (same operation and pulse, a later stage). A range's stages are
/// fixed when it is pushed, never read from state when it is popped.
#[derive(Clone, Debug)]
enum Work {
    RecomputeComplete(u64),
    /// `op` at the pulse-`q` virtual node for each stage
    /// `stages_tracked(q)[base + i]` with bit `i` of `mask` set, ascending.
    Stages {
        op: StageOp,
        q: u64,
        base: u32,
        mask: u64,
    },
    TryProcess,
}

/// Queues `op` on stage `stages_tracked(q)[slot]`, merged into the back item if
/// that item is a run of the same `op` and `q` that this stage extends (same
/// 64-slot word, every set bit below `slot`): the merged item runs its stages
/// in ascending order, so this stage still runs last.
// ds-lint: hot-path
fn push_slot(work: &mut VecDeque<Work>, op: StageOp, q: u64, slot: usize) {
    let base = (slot - slot % 64) as u32;
    let bit = 1u64 << (slot % 64);
    if let Some(Work::Stages { op: o, q: bq, base: bb, mask }) = work.back_mut() {
        if *o == op && *bq == q && *bb == base && bit > *mask {
            *mask |= bit;
            return;
        }
    }
    work.push_back(Work::Stages { op, q, base, mask: bit });
}

/// Queues `op` on all `width` stages of `stages_tracked(q)`, in order: one item
/// per 64 stages (one item at every bound the repo runs; 46 stages are tracked
/// at `T = 2^16`). The run starts at slot 0, so it never extends the back item.
fn push_run(work: &mut VecDeque<Work>, op: StageOp, q: u64, width: usize) {
    for base in (0..width).step_by(64) {
        let mask = u64::MAX >> (64 - (width - base).min(64));
        work.push_back(Work::Stages { op, q, base: base as u32, mask });
    }
}

/// Pops the next unrolled item: a `Stages` range yields its lowest stage as a
/// one-bit item, and the rest of the range goes back to the *front*, so
/// whatever that stage's operation pushes lands behind it.
// ds-lint: hot-path
fn pop_work(work: &mut VecDeque<Work>) -> Option<Work> {
    let item = work.pop_front()?;
    if let Work::Stages { op, q, base, mask } = item {
        let rest = mask & (mask - 1);
        if rest != 0 {
            work.push_front(Work::Stages { op, q, base, mask: rest });
        }
        return Some(Work::Stages { op, q, base, mask: mask ^ rest });
    }
    Some(item)
}

/// The synchronizer protocol run by every node: wraps one instance of the event-driven
/// algorithm `A` and simulates it in the asynchronous model.
#[derive(Debug)]
pub struct DetSynchronizer<A: EventDriven> {
    me: NodeId,
    cfg: Arc<SynchronizerConfig>,
    alg: A,
    /// Algorithm messages received, keyed by the *sender's* pulse.
    received: FlatMap<u64, Vec<(NodeId, A::Msg)>>,
    /// Pulses at which this node has been triggered but not yet processed.
    pending_triggers: PulseSet,
    processed: PulseSet,
    /// Largest pulse processed so far (for the ordering-violation diagnostic).
    max_processed: Option<u64>,
    /// Stages for which this physical node has received a recipient-level Go-Ahead.
    goahead_recv: PulseSet,
    /// Virtual nodes by pulse (created in ascending pulse order, few per node).
    vnodes: FlatMap<u64, VNode>,
    /// Per-stage rows of all virtual nodes, back to back (`VNode::row`).
    vstages: Vec<VStage>,
    anchors: Vec<AnchorStage>,
    /// Recipient runs of all virtual nodes, back to back (`VNode::recip_at`).
    recipients: Vec<Recipient>,
    /// An initiator's pulse-0 algorithm messages, held back until its phase-A
    /// barriers complete.
    init_sends: Vec<(NodeId, A::Msg)>,
    /// Per-(stage, cluster) state lives in dense rows (DESIGN.md §3.4): a stage's row
    /// has one entry per tree cluster of this node in the stage's cover, in the
    /// cover's local-index order (`SparseCover::tree_clusters_of`). `stage_row[s]` is
    /// where the row of stage `s` starts — in `barriers` for base stages (phase B,
    /// created by `setup_barriers`), in `reg_cells` for all others (created whole on
    /// first touch) — or `NO_ROW`.
    stage_row: Vec<u32>,
    reg_cells: Vec<RegCell>,
    /// Per-child marks of all cells, one run per cell (`RegCell::marks_at`).
    reg_marks: Vec<ChildMark>,
    /// Actions of the registration call in progress; drained before the next one.
    reg_actions: Vec<RegAction>,
    /// Start of each base cover layer's phase-A row in `barriers`, by cover layer.
    barrier_a_row: Vec<u32>,
    barriers: Vec<Barrier>,
    /// Phase-A confirmations still missing before pulse-0 messages may be sent.
    init_barrier_pending: usize,
    is_initiator: bool,
    work: VecDeque<Work>,
    /// Diagnostic: algorithm messages that arrived out of pulse order (must stay 0).
    ordering_violations: u64,
}

type SCtx<A> = Ctx<SyncMsg<<A as EventDriven>::Msg>>;

impl<A: EventDriven> DetSynchronizer<A> {
    /// Creates the synchronizer instance for node `me`, wrapping `alg`.
    pub fn new(me: NodeId, alg: A, cfg: Arc<SynchronizerConfig>) -> Self {
        let bound = cfg.max_pulse + 1;
        let stage_row = vec![NO_ROW; bound as usize];
        let barrier_a_row = vec![NO_ROW; cfg.covers.layers()];
        DetSynchronizer {
            me,
            cfg,
            alg,
            received: FlatMap::new(),
            pending_triggers: PulseSet::with_bound(bound),
            processed: PulseSet::with_bound(bound),
            max_processed: None,
            goahead_recv: PulseSet::with_bound(bound),
            vnodes: FlatMap::new(),
            vstages: Vec::new(),
            anchors: Vec::new(),
            recipients: Vec::new(),
            init_sends: Vec::new(),
            stage_row,
            reg_cells: Vec::new(),
            reg_marks: Vec::new(),
            reg_actions: Vec::new(),
            barrier_a_row,
            barriers: Vec::new(),
            init_barrier_pending: 0,
            is_initiator: false,
            work: VecDeque::new(),
            ordering_violations: 0,
        }
    }

    /// The wrapped algorithm instance (for extracting outputs after a run).
    pub fn algorithm(&self) -> &A {
        &self.alg
    }

    /// Number of algorithm messages that arrived out of pulse order (0 in a correct
    /// execution; exposed for the test suite).
    pub fn ordering_violations(&self) -> u64 {
        self.ordering_violations
    }

    /// Bytes this node's synchronizer state holds: `size_of::<Self>()` plus the
    /// capacity of every buffer it owns (not its length). The wrapped
    /// algorithm's own heap and the shared configuration are not counted.
    #[doc(hidden)]
    pub fn state_bytes(&self) -> usize {
        self.state_bytes_by_field().iter().map(|&(_, bytes)| bytes).sum()
    }

    /// [`state_bytes`](Self::state_bytes) split by field; `"inline"` is
    /// `size_of::<Self>()`, every other entry a field's heap buffers.
    #[doc(hidden)]
    pub fn state_bytes_by_field(&self) -> [(&'static str, usize); 17] {
        fn heap<T>(v: &Vec<T>) -> usize {
            v.capacity() * std::mem::size_of::<T>()
        }
        let batches: usize = self.received.iter().map(|(_, batch)| heap(batch)).sum();
        [
            ("inline", std::mem::size_of::<Self>()),
            ("received", self.received.heap_bytes() + batches),
            ("pending_triggers", self.pending_triggers.heap_bytes()),
            ("processed", self.processed.heap_bytes()),
            ("goahead_recv", self.goahead_recv.heap_bytes()),
            ("vnodes", self.vnodes.heap_bytes()),
            ("vstages", heap(&self.vstages)),
            ("anchors", heap(&self.anchors)),
            ("recipients", heap(&self.recipients)),
            ("init_sends", heap(&self.init_sends)),
            ("stage_row", heap(&self.stage_row)),
            ("reg_cells", heap(&self.reg_cells)),
            ("reg_marks", heap(&self.reg_marks)),
            ("reg_actions", heap(&self.reg_actions)),
            ("barrier_a_row", heap(&self.barrier_a_row)),
            ("barriers", heap(&self.barriers)),
            ("work", self.work.capacity() * std::mem::size_of::<Work>()),
        ]
    }

    /// Diagnostic dump of the node's stall-relevant state (for debugging deadlocks).
    #[doc(hidden)]
    pub fn debug_stall(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "node {}: initiator={} pending_triggers={:?} goahead_recv={:?} processed={:?}",
            self.me,
            self.is_initiator,
            self.pending_triggers.iter().collect::<Vec<_>>(),
            self.goahead_recv.iter().collect::<Vec<_>>(),
            self.processed.iter().collect::<Vec<_>>()
        );
        let base_goahead_recv: Vec<(u64, usize)> = self
            .cfg
            .base_stages()
            .iter()
            .filter(|&&st| self.stage_row[st as usize] != NO_ROW)
            .map(|&st| {
                let row = &self.barriers[self.stage_row[st as usize] as usize..];
                (st, self.stage_positions(st).zip(row).filter(|(_, b)| b.done).count())
            })
            .collect();
        let _ = writeln!(
            s,
            "  init_barrier_pending={} base_goahead_recv={base_goahead_recv:?}",
            self.init_barrier_pending
        );
        for (p, v) in self.vnodes.iter() {
            let children: Vec<u32> = self.recipients[v.recipients()]
                .iter()
                .filter(|r| r.child)
                .map(|r| r.node)
                .collect();
            let tracked = self.cfg.stages_tracked(p);
            let row = v.row as usize..v.row as usize + tracked.len();
            let goaheads: Vec<u64> = tracked
                .iter()
                .zip(&self.vstages[row.clone()])
                .filter(|(_, vs)| vs.goahead)
                .map(|(&st, _)| st)
                .collect();
            let _ = writeln!(
                s,
                "  vnode p={p}: complete={} sent_all={} unacked={} undecided={} child_self={} children_remote={children:?} parent_remote={:?} self_parent={} goaheads={goaheads:?}",
                v.complete, v.sent_all, v.unacked, v.undecided, v.child_self,
                v.parent_remote, v.self_parent,
            );
            for ((st, vs), a) in
                tracked.iter().zip(&self.vstages[row.clone()]).zip(&self.anchors[row])
            {
                let _ = writeln!(
                    s,
                    "    stage {st}: subtree_safe={} reported_up={} gate_pending={} gate_started={} safe_self_child={} safe_children={}",
                    vs.subtree_safe, vs.reported_up, vs.gate_pending, vs.gate_started,
                    vs.safe_self_child, vs.safe_children
                );
                if a.anchored {
                    let _ = writeln!(
                        s,
                        "    anchored {st}: clusters={} registered={} deregistered={} dereg_requested={} freed={} goahead_done={}",
                        a.clusters, a.registered, a.deregistered, a.dereg_requested, a.freed,
                        a.goahead_done
                    );
                }
            }
        }
        for st in 1..=self.cfg.max_pulse {
            if self.stage_row[st as usize] == NO_ROW || self.cfg.stage(st).prev_prev == 0 {
                continue;
            }
            let row = &self.reg_cells[self.stage_row[st as usize] as usize..];
            for (pos, cell) in self.stage_positions(st).zip(row) {
                let marks = &self.reg_marks[cell.marks_at as usize..][..pos.children.len()];
                let _ = writeln!(s, "  reg ({st},{}): {:?} {marks:?}", pos.cluster.0, cell.inst);
            }
        }
        s
    }

    // ----- helpers ---------------------------------------------------------------

    fn send(
        &self,
        ctx: &mut SCtx<A>,
        to: NodeId,
        msg: SyncMsg<A::Msg>,
        prio: u64,
        class: MessageClass,
    ) {
        ctx.send_with(to, msg, prio, class);
    }

    /// Creates the virtual node of pulse `p`, sending `outbox`: appends its state
    /// rows (one default entry per stage it tracks) and its recipient run (the
    /// outbox destinations, ascending, deduplicated).
    fn create_vnode(
        &mut self,
        p: u64,
        outbox: &[(NodeId, A::Msg)],
        parent_remote: Option<NodeId>,
        self_parent: bool,
        sent_all: bool,
    ) {
        let mut nodes: Vec<u32> = outbox
            .iter()
            .map(|(to, _)| u32::try_from(to.index()).expect("node ids fit in u32"))
            .collect();
        nodes.sort_unstable();
        nodes.dedup();
        let (recip_at, len) = (self.recipients.len(), nodes.len());
        self.recipients.extend(nodes.into_iter().map(|node| Recipient { node, child: false }));
        let row = self.vstages.len();
        let width = self.cfg.stages_tracked(p).len();
        self.vstages.resize(row + width, VStage::default());
        self.anchors.resize(row + width, AnchorStage::default());
        let vnode = VNode {
            row: row as u32,
            recip_at: recip_at as u32,
            recip_len: len as u32,
            unacked: outbox.len() as u32,
            undecided: len as u32 + 1,
            children_remote: 0,
            parent_remote,
            self_parent,
            sent_all,
            child_self: false,
            complete: false,
        };
        self.vnodes.insert(p, vnode);
    }

    /// Index of stage `s`'s entry in the rows of the virtual node of pulse `q`,
    /// with the virtual node, if both exist.
    // ds-lint: hot-path
    fn stage_at(&self, q: u64, s: u64) -> Option<(usize, VNode)> {
        let slot = self.cfg.tracked_slot(q, s)?;
        let v = *self.vnodes.get(q)?;
        Some((v.row as usize + slot, v))
    }

    /// Clusters of `stage`'s cover this node is a member of (where anchors register).
    fn member_clusters(&self, stage: u64) -> &[ClusterId] {
        self.cfg.stage_cover(stage).clusters_of(self.me)
    }

    /// This node's cluster-tree positions in `stage`'s cover, in row order.
    fn stage_positions(&self, stage: u64) -> impl ExactSizeIterator<Item = TreePos<'_>> {
        self.cfg.stage_cover(stage).tree_pos_of(self.me)
    }

    /// Local index (row offset) of `cluster` in cover layer `cover_idx` at this node.
    ///
    /// # Panics
    ///
    /// Panics if this node is not in the cluster's tree: registration and barrier
    /// messages only travel along cluster-tree edges.
    fn local_index(&self, cover_idx: usize, cluster: ClusterId) -> usize {
        self.cfg
            .covers
            .level(cover_idx)
            .tree_index_of(self.me, cluster)
            .expect("cluster-tree message at a node outside that tree")
    }

    /// Makes `call` on the registration cell of (`stage`, `cluster`) and routes the
    /// actions it emits. The first touch of a stage creates its whole row: creating
    /// an instance has no side effect, so eager-per-row equals lazy-per-instance.
    // ds-lint: hot-path
    fn reg_step(&mut self, ctx: &mut SCtx<A>, stage: u64, cluster: ClusterId, call: RegCall) {
        debug_assert!(self.cfg.stage(stage).prev_prev > 0, "base stages use barriers");
        let k = self.local_index(self.cfg.cover_idx(stage), cluster);
        let cover = self.cfg.stage_cover(stage);
        let row = &mut self.stage_row[stage as usize];
        if *row == NO_ROW {
            // Once per (node, stage): the row's cells and marks are appended to the
            // node's two arenas, which only ever grow.
            *row = self.reg_cells.len() as u32;
            for pos in cover.tree_pos_of(self.me) {
                let marks_at = self.reg_marks.len();
                self.reg_cells.push(RegCell {
                    inst: RegistrationInstance::new(pos),
                    marks_at: marks_at as u32,
                });
                self.reg_marks.resize(marks_at + pos.children.len(), ChildMark::default());
            }
        }
        let pos = cover.tree_pos(self.me, k);
        let cell = &mut self.reg_cells[*row as usize + k];
        let marks = &mut self.reg_marks[cell.marks_at as usize..][..pos.children.len()];
        let actions = &mut self.reg_actions;
        match call {
            RegCall::Register => cell.inst.register(pos, marks, actions),
            RegCall::Deregister => cell.inst.deregister(pos, marks, actions),
            RegCall::Message { from, msg } => cell.inst.on_message(pos, marks, from, msg, actions),
        }
        self.handle_reg_actions(ctx, stage, cluster);
    }

    /// Routes the actions the last registration call left in `reg_actions`.
    // ds-lint: hot-path
    fn handle_reg_actions(&mut self, ctx: &mut SCtx<A>, stage: u64, cluster: ClusterId) {
        let mut actions = std::mem::take(&mut self.reg_actions);
        for a in actions.drain(..) {
            match a {
                RegAction::Send { to, msg } => {
                    self.send(
                        ctx,
                        to,
                        SyncMsg::Reg { stage, cluster: cluster.0 as u32, msg },
                        stage,
                        MessageClass::Control,
                    );
                }
                RegAction::Registered => self.on_registration_confirmed(stage),
                RegAction::Free => self.on_registration_free(stage),
            }
        }
        self.reg_actions = actions;
    }

    // ds-lint: hot-path
    fn on_registration_confirmed(&mut self, stage: u64) {
        let anchor_pulse = self.cfg.stage(stage).prev_prev;
        let gate_stage = self.cfg.stage(stage).prev;
        let mut fully_registered = false;
        if let Some((at, _)) = self.stage_at(anchor_pulse, stage) {
            let a = &mut self.anchors[at];
            if a.anchored {
                a.registered += 1;
                fully_registered = a.registered == a.clusters;
            }
        }
        if let Some((at, _)) = self.stage_at(anchor_pulse, gate_stage) {
            let st = &mut self.vstages[at];
            if st.gate_pending > 0 {
                st.gate_pending -= 1;
            }
        }
        self.push_stage(StageOp::Recompute, anchor_pulse, gate_stage);
        if fully_registered {
            // A deregistration may have been requested while registrations were in
            // flight; re-evaluate the anchor's own stage safety to trigger it.
            self.push_stage(StageOp::Recompute, anchor_pulse, stage);
        }
    }

    // ds-lint: hot-path
    fn on_registration_free(&mut self, stage: u64) {
        let anchor_pulse = self.cfg.stage(stage).prev_prev;
        let mut done = false;
        if let Some((at, _)) = self.stage_at(anchor_pulse, stage) {
            let a = &mut self.anchors[at];
            if a.anchored {
                a.freed += 1;
                if a.deregistered && a.freed == a.clusters && !a.goahead_done {
                    a.goahead_done = true;
                    done = true;
                }
            }
        }
        if done {
            self.push_stage(StageOp::GoAhead, anchor_pulse, stage);
        }
    }

    // ----- pulse processing -------------------------------------------------------

    // ds-lint: hot-path
    fn try_process(&mut self, ctx: &mut SCtx<A>) {
        loop {
            let Some(p) = self.pending_triggers.min() else { return };
            if p > self.cfg.max_pulse {
                // The configured bound was too small; stop simulating further pulses.
                return;
            }
            if !self.goahead_recv.contains(p) {
                return;
            }
            self.pending_triggers.remove(p);
            self.process_pulse(ctx, p);
        }
    }

    fn process_pulse(&mut self, ctx: &mut SCtx<A>, p: u64) {
        debug_assert!(!self.processed.contains(p));
        let mut batch = self.received.remove(p - 1).unwrap_or_default();
        canonical_batch(&mut batch);
        let mut senders: Vec<NodeId> = batch.iter().map(|(s, _)| *s).collect();
        senders.dedup();

        let mut pctx = PulseCtx::new(self.me);
        self.alg.on_pulse(&batch, &mut pctx);
        let outbox = pctx.take_outbox();
        let created = !outbox.is_empty();
        let self_parent_available = self.vnodes.get(p - 1).is_some();

        // Notify every pulse-(p-1) sender of the decision.
        let chosen_remote =
            if created && !self_parent_available { senders.first().copied() } else { None };
        for &s in &senders {
            let msg =
                SyncMsg::Decision { pulse: p, created, chosen_parent: Some(s) == chosen_remote };
            self.send(ctx, s, msg, p, MessageClass::Control);
        }

        if created {
            self.create_vnode(p, &outbox, chosen_remote, self_parent_available, true);
            for (to, payload) in outbox {
                self.send(ctx, to, SyncMsg::Alg { pulse: p, payload }, p, MessageClass::Algorithm);
            }
            // Having sent at pulse p, this node is triggered at pulse p + 1.
            self.pending_triggers.insert(p + 1);
        }

        // Resolve the self-decision at the pulse-(p-1) virtual node.
        if let Some(parent) = self.vnodes.get_mut(p - 1) {
            parent.undecided = parent.undecided.saturating_sub(1);
            let inherit = created && self_parent_available;
            parent.child_self |= inherit;
            let row = parent.row as usize;
            self.work.push_back(Work::RecomputeComplete(p - 1));
            if inherit {
                // The new child inherits the parent's Go-Aheads for later stages
                // (`prev(prev(s)) ≤ p − 1 < p < s`: pulse `p` tracks each of them).
                let cfg = &*self.cfg;
                for (&s, st) in cfg.stages_tracked(p - 1).iter().zip(&self.vstages[row..]) {
                    if st.goahead && s > p {
                        let slot = cfg.tracked_slot(p, s).expect("p tracks the later stages");
                        push_slot(&mut self.work, StageOp::GoAhead, p, slot);
                    }
                }
            }
        }

        self.processed.insert(p);
        self.max_processed = Some(self.max_processed.map_or(p, |m| m.max(p)));
        if created {
            // Newly created virtual nodes may already be safe for near stages.
            self.push_all_stages(StageOp::Recompute, p);
        }
    }

    // ----- safety machinery -------------------------------------------------------

    // ds-lint: hot-path
    fn recompute_complete(&mut self, q: u64) {
        let Some(v) = self.vnodes.get_mut(q) else { return };
        let complete = v.sent_all && v.unacked == 0 && v.undecided == 0;
        if complete && !v.complete {
            v.complete = true;
            self.push_all_stages(StageOp::Recompute, q);
        } else if !complete {
            // An ack may still flip stage-(q + 1) safety — the only tracked stage
            // `s` with `q == s − 1` — even before completeness.
            self.push_stage(StageOp::Recompute, q, q + 1);
        }
    }

    // ds-lint: hot-path
    fn recompute_stage(&mut self, ctx: &mut SCtx<A>, q: u64, s: u64) {
        // Only the stages `q` tracks (`prev(prev(s)) ≤ q < s`) have safety state.
        let Some((at, v)) = self.stage_at(q, s) else { return };
        let info_prev = self.cfg.stage(s).prev;
        let info_anchor = self.cfg.stage(s).prev_prev;
        // Phase 1: determine whether the subtree just became s-safe.
        let st = &mut self.vstages[at];
        let safe = if q == s - 1 {
            v.sent_all && v.unacked == 0
        } else {
            v.complete
                && (!v.child_self || st.safe_self_child)
                && st.safe_children == v.children_remote
        };
        if !safe || st.subtree_safe {
            return;
        }
        st.subtree_safe = true;

        // Phase 2: if this virtual node is the anchor of stages whose registration is
        // triggered by s-safety (q == prev(s) > 0), start those registrations and gate
        // the upward report on their confirmation.
        if q == info_prev && q > 0 && v.has_children() && !self.cfg.stages_with_prev(s).is_empty() {
            let already_started = st.gate_started;
            if !already_started {
                st.gate_started = true;
                let mut gate_pending = 0;
                let cfg = &*self.cfg;
                for &p in cfg.stages_with_prev(s) {
                    let clusters = cfg.stage_cover(p).clusters_of(self.me).len() as u32;
                    gate_pending += clusters;
                    // `prev(prev(p)) = prev(s) = q < p`: `q` tracks every gated stage.
                    let slot = cfg.tracked_slot(q, p).expect("q tracks the stages it anchors");
                    let a = &mut self.anchors[v.row as usize + slot];
                    if !a.anchored {
                        *a = AnchorStage { clusters, anchored: true, ..AnchorStage::default() };
                    }
                }
                self.vstages[at].gate_pending = gate_pending;
            }
            if !already_started {
                let mut i = 0;
                while let Some(&p) = self.cfg.stages_with_prev(s).get(i) {
                    self.reg_each_member_cluster(ctx, p, RegCall::Register);
                    i += 1;
                }
            }
        }

        // Phase 3: if this virtual node is the anchor of stage s itself, s-safety is
        // the deregistration trigger (or, for base stages, the phase-B contribution).
        if q == info_anchor {
            if info_anchor == 0 {
                self.push_stage(StageOp::BarrierB, 0, s);
            }
            let a = &mut self.anchors[at];
            if a.anchored {
                a.dereg_requested = true;
            }
            self.maybe_flush_anchor(ctx, q, s);
        }

        // Phase 4: report s-safety to the execution-tree parent (gated).
        if q > info_anchor {
            self.flush_safety_report(ctx, q, s);
        }
    }

    /// Sends the `Safe(s)` report of the virtual node of pulse `q` to its parent, if
    /// the subtree is safe and the registration gate has cleared.
    // ds-lint: hot-path
    fn flush_safety_report(&mut self, ctx: &mut SCtx<A>, q: u64, s: u64) {
        let Some((at, v)) = self.stage_at(q, s) else { return };
        let st = &mut self.vstages[at];
        if !st.subtree_safe || st.reported_up || st.gate_pending > 0 {
            return;
        }
        st.reported_up = true;
        if let Some(parent) = v.parent_remote {
            self.send(
                ctx,
                parent,
                SyncMsg::Safe { stage: s, sender_pulse: q },
                s,
                MessageClass::Control,
            );
        } else if v.self_parent {
            self.push_stage(StageOp::SafeFromSelfChild, q - 1, s);
        }
    }

    /// Handles a pending deregistration that was blocked on outstanding registrations,
    /// and pending safety reports blocked on the gate. Re-driven from the work queue.
    // ds-lint: hot-path
    fn maybe_flush_anchor(&mut self, ctx: &mut SCtx<A>, q: u64, s: u64) {
        let Some((at, _)) = self.stage_at(q, s) else { return };
        let a = &mut self.anchors[at];
        if a.anchored && a.dereg_requested && a.registered == a.clusters && !a.deregistered {
            a.deregistered = true;
            self.reg_each_member_cluster(ctx, s, RegCall::Deregister);
        }
    }

    /// Makes `call` (register or deregister) on this node's cell in every cluster of
    /// `stage`'s cover it is a member of, in ascending cluster order.
    // ds-lint: hot-path
    fn reg_each_member_cluster(&mut self, ctx: &mut SCtx<A>, stage: u64, call: RegCall) {
        let mut i = 0;
        while let Some(&c) = self.member_clusters(stage).get(i) {
            self.reg_step(ctx, stage, c, call);
            i += 1;
        }
    }

    // ----- go-aheads ----------------------------------------------------------------

    // ds-lint: hot-path
    fn record_goahead(&mut self, ctx: &mut SCtx<A>, q: u64, s: u64) {
        // Every Go-Ahead names a stage its virtual node tracks: it starts at the
        // stage's anchor (or pulse 0) and descends while `q < s`.
        let Some((at, v)) = self.stage_at(q, s) else { return };
        if self.vstages[at].goahead {
            return;
        }
        self.vstages[at].goahead = true;
        let recipients = &self.recipients[v.recipients()];
        if s >= q + 2 {
            for r in recipients.iter().filter(|r| r.child) {
                let msg = SyncMsg::GoAheadExec { stage: s, sender_pulse: q };
                ctx.send_with(NodeId(r.node as usize), msg, s, MessageClass::Control);
            }
            // `prev(prev(s)) ≤ q < q + 1 < s`: the self-child tracks `s`.
            if let Some(slot) = self.cfg.tracked_slot(q + 1, s).filter(|_| v.child_self) {
                push_slot(&mut self.work, StageOp::GoAhead, q + 1, slot);
            }
        }
        if q + 1 == s {
            for r in recipients {
                let msg = SyncMsg::GoAheadRecipient { stage: s };
                ctx.send_with(NodeId(r.node as usize), msg, s, MessageClass::Control);
            }
            self.goahead_recv.insert(s);
            self.work.push_back(Work::TryProcess);
        }
    }

    // ----- base-stage barriers -------------------------------------------------------

    fn setup_barriers(&mut self, ctx: &mut SCtx<A>) {
        let cfg = &*self.cfg;
        // Both phases' rows are reserved exactly: the arena never grows again.
        let rows_a = cfg.base_cover_levels.iter().map(|&idx| cfg.covers.level(idx));
        let rows_b = cfg.base_stages().iter().map(|&stage| cfg.stage_cover(stage));
        let rows = rows_a.chain(rows_b).map(|cover| cover.tree_clusters_of(self.me).len()).sum();
        self.barriers.reserve_exact(rows);
        // Phase A: one barrier per (base cover level, cluster tree containing me).
        for &idx in &cfg.base_cover_levels {
            let cover = cfg.covers.level(idx);
            self.barrier_a_row[idx] = self.barriers.len() as u32;
            self.barriers.extend(cover.tree_pos_of(self.me).map(Barrier::new));
            if self.is_initiator {
                self.init_barrier_pending += cover.clusters_of(self.me).len();
            }
        }
        // Phase B: one barrier per (base stage, cluster tree containing me).
        for &stage in cfg.base_stages() {
            self.stage_row[stage as usize] = self.barriers.len() as u32;
            self.barriers.extend(cfg.stage_cover(stage).tree_pos_of(self.me).map(Barrier::new));
        }
        // Kick off phase A at the leaves (and trivially-complete roots).
        let mut i = 0;
        while let Some(&idx) = self.cfg.base_cover_levels.get(i) {
            for k in 0..self.cfg.covers.level(idx).tree_clusters_of(self.me).len() {
                self.barrier_a_try_advance(ctx, idx, k);
            }
            i += 1;
        }
        // Kick off phase B where this node has nothing to wait for.
        self.push_all_stages(StageOp::BarrierB, 0);
        if self.is_initiator && self.init_barrier_pending == 0 {
            self.release_initiator_sends(ctx);
        }
    }

    /// Phase A at this node for its `k`-th tree cluster of cover layer `idx`: once
    /// every child has reported, report up (or complete, at the root).
    // ds-lint: hot-path
    fn barrier_a_try_advance(&mut self, ctx: &mut SCtx<A>, idx: usize, k: usize) {
        let state = &mut self.barriers[self.barrier_a_row[idx] as usize + k];
        if state.sent_up || state.children_left > 0 {
            return;
        }
        state.sent_up = true;
        let pos = self.cfg.covers.level(idx).tree_pos(self.me, k);
        match pos.parent {
            Some(parent) => {
                let msg =
                    SyncMsg::BarrierAUp { cover_idx: idx as u32, cluster: pos.cluster.0 as u32 };
                self.send(ctx, parent, msg, 0, MessageClass::Control);
            }
            None => self.barrier_a_complete(ctx, idx, k),
        }
    }

    /// Phase A complete at the root (or received from the parent): deliver locally and
    /// broadcast down the cluster tree.
    // ds-lint: hot-path
    fn barrier_a_complete(&mut self, ctx: &mut SCtx<A>, idx: usize, k: usize) {
        let pos = self.cfg.covers.level(idx).tree_pos(self.me, k);
        for &c in pos.children {
            let msg =
                SyncMsg::BarrierADown { cover_idx: idx as u32, cluster: pos.cluster.0 as u32 };
            self.send(ctx, c, msg, 0, MessageClass::Control);
        }
        if self.is_initiator && pos.is_member {
            self.init_barrier_pending = self.init_barrier_pending.saturating_sub(1);
            if self.init_barrier_pending == 0 {
                self.release_initiator_sends(ctx);
            }
        }
    }

    fn release_initiator_sends(&mut self, ctx: &mut SCtx<A>) {
        let Some(v) = self.vnodes.get_mut(0) else { return };
        if v.sent_all {
            return;
        }
        v.sent_all = true;
        let sends = std::mem::take(&mut self.init_sends);
        for (to, payload) in sends {
            self.send(ctx, to, SyncMsg::Alg { pulse: 0, payload }, 0, MessageClass::Algorithm);
        }
        self.work.push_back(Work::RecomputeComplete(0));
        self.push_all_stages(StageOp::Recompute, 0);
    }

    /// Re-evaluates all of this node's phase-B contributions for base stage `stage`
    /// (its own `stage`-safety may have changed).
    // ds-lint: hot-path
    fn barrier_b_check(&mut self, ctx: &mut SCtx<A>, stage: u64) {
        for k in 0..self.cfg.stage_cover(stage).tree_clusters_of(self.me).len() {
            self.barrier_b_try_advance(ctx, stage, k);
        }
    }

    /// Phase B of base stage `stage` at this node for its `k`-th tree cluster: once
    /// every child has reported — and, at an initiator member, the initiator is
    /// `stage`-safe — report up (or complete, at the root).
    // ds-lint: hot-path
    fn barrier_b_try_advance(&mut self, ctx: &mut SCtx<A>, stage: u64, k: usize) {
        let at = self.stage_row[stage as usize] as usize + k;
        let state = self.barriers[at];
        if state.sent_up || state.children_left > 0 {
            return;
        }
        let pos = self.cfg.stage_cover(stage).tree_pos(self.me, k);
        if self.is_initiator && pos.is_member {
            let my_safe = self.stage_at(0, stage).map(|(at, _)| &self.vstages[at]);
            if !my_safe.is_some_and(|st| st.subtree_safe) {
                return;
            }
        }
        self.barriers[at].sent_up = true;
        match pos.parent {
            Some(parent) => {
                let msg = SyncMsg::BarrierBUp { stage, cluster: pos.cluster.0 as u32 };
                self.send(ctx, parent, msg, stage, MessageClass::Control);
            }
            None => self.barrier_b_complete(ctx, stage, k),
        }
    }

    /// Phase B complete for `stage` in this node's `k`-th tree cluster: broadcast the
    /// base-stage Go-Ahead down the cluster tree and, at an initiator member, release
    /// the stage once every cluster it is a member of has completed.
    // ds-lint: hot-path
    fn barrier_b_complete(&mut self, ctx: &mut SCtx<A>, stage: u64, k: usize) {
        let pos = self.cfg.stage_cover(stage).tree_pos(self.me, k);
        for &c in pos.children {
            let msg = SyncMsg::BarrierBDown { stage, cluster: pos.cluster.0 as u32 };
            self.send(ctx, c, msg, stage, MessageClass::Control);
        }
        if self.is_initiator && pos.is_member {
            let row = self.stage_row[stage as usize] as usize;
            self.barriers[row + k].done = true;
            let all_done = self
                .stage_positions(stage)
                .zip(&self.barriers[row..])
                .all(|(pos, state)| !pos.is_member || state.done);
            if all_done {
                self.push_stage(StageOp::GoAhead, 0, stage);
            }
        }
    }

    // ----- work queue ------------------------------------------------------------------

    /// Queues `op` on stage `s` at the pulse-`q` virtual node. A stage `q` does
    /// not track has no state there and its item would do nothing, so it is
    /// not queued.
    // ds-lint: hot-path
    fn push_stage(&mut self, op: StageOp, q: u64, s: u64) {
        if let Some(slot) = self.cfg.tracked_slot(q, s) {
            push_slot(&mut self.work, op, q, slot);
        }
    }

    /// Queues `op` on every stage the pulse-`q` virtual node tracks, in order.
    fn push_all_stages(&mut self, op: StageOp, q: u64) {
        push_run(&mut self.work, op, q, self.cfg.stages_tracked(q).len());
    }

    // ds-lint: hot-path
    fn drain_work(&mut self, ctx: &mut SCtx<A>) {
        let mut guard = 0u64;
        while let Some(item) = pop_work(&mut self.work) {
            guard += 1;
            assert!(
                guard < 10_000_000,
                "synchronizer work queue failed to quiesce (internal error)"
            );
            match item {
                Work::RecomputeComplete(q) => self.recompute_complete(q),
                // ds-lint: hot-path
                Work::Stages { op, q, base, mask } => {
                    // One stage: `pop_work` put the rest of the range back.
                    let s =
                        self.cfg.stages_tracked(q)[base as usize + mask.trailing_zeros() as usize];
                    self.run_stage_op(ctx, op, q, s);
                }
                Work::TryProcess => self.try_process(ctx),
            }
        }
    }

    /// Runs `op` on stage `s` at the pulse-`q` virtual node.
    // ds-lint: hot-path
    fn run_stage_op(&mut self, ctx: &mut SCtx<A>, op: StageOp, q: u64, s: u64) {
        match op {
            StageOp::Recompute => {
                self.maybe_flush_anchor(ctx, q, s);
                self.recompute_stage(ctx, q, s);
                self.flush_safety_report(ctx, q, s);
            }
            StageOp::GoAhead => self.record_goahead(ctx, q, s),
            StageOp::SafeFromSelfChild => {
                if let Some((at, _)) = self.stage_at(q, s) {
                    self.vstages[at].safe_self_child = true;
                }
                self.push_stage(StageOp::Recompute, q, s);
            }
            StageOp::BarrierB => self.barrier_b_check(ctx, s),
        }
    }
}

impl<A: EventDriven> Protocol for DetSynchronizer<A> {
    type Message = SyncMsg<A::Msg>;

    fn on_start(&mut self, ctx: &mut Ctx<Self::Message>) {
        // Evaluate the algorithm's initialization; initiators get a pulse-0 virtual
        // node whose sends are held back until the phase-A barriers complete.
        let mut pctx = PulseCtx::new(self.me);
        self.alg.on_init(&mut pctx);
        let outbox = pctx.take_outbox();
        self.is_initiator = !outbox.is_empty();
        if self.is_initiator {
            self.create_vnode(0, &outbox, None, false, false);
            self.init_sends = outbox;
            self.processed.insert(0);
            self.max_processed = Some(0);
            self.pending_triggers.insert(1);
        }
        self.setup_barriers(ctx);
        self.drain_work(ctx);
    }

    // ds-lint: hot-path
    fn on_message(&mut self, from: NodeId, msg: Self::Message, ctx: &mut Ctx<Self::Message>) {
        match msg {
            SyncMsg::Alg { pulse, payload } => {
                if let Some(done) = self.max_processed {
                    if pulse < done && !self.processed.contains(pulse + 1) {
                        self.ordering_violations += 1;
                    }
                }
                self.received.get_mut_or_default(pulse).push((from, payload));
                self.send(ctx, from, SyncMsg::AlgAck { pulse }, pulse, MessageClass::Control);
                if !self.processed.contains(pulse + 1) {
                    self.pending_triggers.insert(pulse + 1);
                }
                self.work.push_back(Work::TryProcess);
            }
            SyncMsg::AlgAck { pulse } => {
                if let Some(v) = self.vnodes.get_mut(pulse) {
                    v.unacked = v.unacked.saturating_sub(1);
                }
                self.work.push_back(Work::RecomputeComplete(pulse));
            }
            SyncMsg::Decision { pulse, created, chosen_parent } => {
                if let Some(v) = self.vnodes.get_mut(pulse - 1) {
                    v.undecided = v.undecided.saturating_sub(1);
                    if created && chosen_parent {
                        // The sender received this virtual node's messages, so it is
                        // in the recipient run; a repeated choice is counted once.
                        let run = &mut self.recipients[v.recipients()];
                        let i = run
                            .binary_search_by(|r| (r.node as usize).cmp(&from.index()))
                            .expect("a Decision comes from a recipient");
                        if !run[i].child {
                            run[i].child = true;
                            v.children_remote += 1;
                        }
                        let tracked = self.cfg.stages_tracked(pulse - 1);
                        for (&s, st) in tracked.iter().zip(&self.vstages[v.row as usize..]) {
                            if st.goahead && s > pulse {
                                let msg =
                                    SyncMsg::GoAheadExec { stage: s, sender_pulse: pulse - 1 };
                                ctx.send_with(from, msg, s, MessageClass::Control);
                            }
                        }
                    }
                }
                self.work.push_back(Work::RecomputeComplete(pulse - 1));
            }
            SyncMsg::Safe { stage, sender_pulse } => {
                let parent_pulse = sender_pulse - 1;
                if let Some((at, _)) = self.stage_at(parent_pulse, stage) {
                    self.vstages[at].safe_children += 1;
                }
                self.push_stage(StageOp::Recompute, parent_pulse, stage);
            }
            SyncMsg::GoAheadExec { stage, sender_pulse } => {
                self.push_stage(StageOp::GoAhead, sender_pulse + 1, stage);
            }
            SyncMsg::GoAheadRecipient { stage } => {
                self.goahead_recv.insert(stage);
                self.work.push_back(Work::TryProcess);
            }
            SyncMsg::Reg { stage, cluster, msg } => {
                let call = RegCall::Message { from, msg };
                self.reg_step(ctx, stage, ClusterId(cluster as usize), call);
            }
            SyncMsg::BarrierAUp { cover_idx, cluster } => {
                let idx = cover_idx as usize;
                let k = self.local_index(idx, ClusterId(cluster as usize));
                let state = &mut self.barriers[self.barrier_a_row[idx] as usize + k];
                state.children_left = state.children_left.saturating_sub(1);
                self.barrier_a_try_advance(ctx, idx, k);
            }
            SyncMsg::BarrierADown { cover_idx, cluster } => {
                let idx = cover_idx as usize;
                let k = self.local_index(idx, ClusterId(cluster as usize));
                self.barrier_a_complete(ctx, idx, k);
            }
            SyncMsg::BarrierBUp { stage, cluster } => {
                let k = self.local_index(self.cfg.cover_idx(stage), ClusterId(cluster as usize));
                let state = &mut self.barriers[self.stage_row[stage as usize] as usize + k];
                state.children_left = state.children_left.saturating_sub(1);
                // Only this cluster's barrier can have become ready.
                self.barrier_b_try_advance(ctx, stage, k);
            }
            SyncMsg::BarrierBDown { stage, cluster } => {
                let k = self.local_index(self.cfg.cover_idx(stage), ClusterId(cluster as usize));
                self.barrier_b_complete(ctx, stage, k);
            }
        }
        self.drain_work(ctx);
    }

    fn is_done(&self) -> bool {
        self.alg.output().is_some()
    }
}

/// Convenience report of a synchronized run: outputs plus diagnostics.
#[derive(Clone, Debug)]
pub struct SynchronizedOutputs<O> {
    /// Per-node outputs of the wrapped algorithm.
    pub outputs: Vec<Option<O>>,
    /// Total ordering violations observed (0 in a correct run).
    pub ordering_violations: u64,
}

/// Extracts per-node outputs from a finished asynchronous run of the synchronizer.
pub fn collect_outputs<A: EventDriven>(
    nodes: &[DetSynchronizer<A>],
) -> SynchronizedOutputs<A::Output> {
    SynchronizedOutputs {
        outputs: nodes.iter().map(|n| n.algorithm().output()).collect(),
        ordering_violations: nodes.iter().map(|n| n.ordering_violations()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_netsim::delay::DelayModel;
    use ds_netsim::sync_engine::run_sync;
    use ds_netsim::{run, RunSpec};

    #[derive(Debug)]
    struct Flood<'g> {
        me: NodeId,
        neighbors: &'g [NodeId],
        hops: Option<u64>,
    }

    impl EventDriven for Flood<'_> {
        type Msg = u64;
        type Output = u64;

        fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
            if self.me == NodeId(0) {
                self.hops = Some(0);
                for &u in self.neighbors {
                    ctx.send(u, 1);
                }
            }
        }

        fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
            if self.hops.is_none() {
                if let Some(&(_, h)) = received.first() {
                    self.hops = Some(h);
                    for &u in self.neighbors {
                        ctx.send(u, h + 1);
                    }
                }
            }
        }

        fn output(&self) -> Option<u64> {
            self.hops
        }
    }

    #[test]
    fn det_rows_stay_compact() {
        use std::mem::size_of;
        assert!(size_of::<VStage>() <= 16, "VStage is {} bytes", size_of::<VStage>());
        assert!(
            size_of::<AnchorStage>() <= 16,
            "AnchorStage is {} bytes",
            size_of::<AnchorStage>()
        );
        assert!(size_of::<Recipient>() <= 8, "Recipient is {} bytes", size_of::<Recipient>());
        assert!(size_of::<VNode>() <= 48, "VNode is {} bytes", size_of::<VNode>());
    }

    #[test]
    fn per_node_state_is_pinned() {
        // `me`, the shared config and the algorithm (56 bytes, 40 of them
        // `Flood`), two maps and ten row/arena vectors (288), three pulse sets
        // (120), the work queue (32) and five scalars (40). The buffers behind
        // them are `state_bytes`' business; `tests/perf_smoke.rs` budgets them.
        assert_eq!(std::mem::size_of::<DetSynchronizer<Flood<'static>>>(), 536);
        assert_eq!(std::mem::size_of::<Work>(), 24);
    }

    /// Runs `make` under a det synchronizer with pulse bound `bound` and
    /// returns every node's work-queue capacity: the queue starts unallocated
    /// and only ever grows, by doubling from 4, so its final capacity bounds
    /// the most items it ever held.
    fn work_queue_capacities<A: EventDriven>(
        graph: &Graph,
        bound: u64,
        make: impl Fn(NodeId) -> A,
    ) -> Vec<usize> {
        let cfg = SynchronizerConfig::build(graph, bound);
        let make = |v| DetSynchronizer::new(v, make(v), cfg.clone());
        let (report, _) =
            run(graph, &RunSpec::new(DelayModel::jitter(9)), make, None).expect("run");
        assert!(
            report.nodes.iter().all(|n| n.algorithm().output().is_some()),
            "every node outputs"
        );
        assert_eq!(collect_outputs(&report.nodes).ordering_violations, 0);
        report.nodes.iter().map(|n| n.work.capacity()).collect()
    }

    /// Range items keep a node's work queue at a few items: one per run of
    /// stages, not one per tracked or base stage, whatever the pulse bound.
    ///
    /// Most items held, BFS (this module's `Flood`, from node 0) / digest flood
    /// (K = 12), at T(A) and 16·T(A): 2 / 3 and 2 / 9, against 13 / 11 and
    /// 25 / 41 with one item per stage. The digest flood at 16·T(A) is the one
    /// case above 8: every node is its own execution-tree parent there, so a
    /// run of up to 21 tracked stages turning safe at once interleaves self-child
    /// reports with Go-Aheads and registration re-checks, and runs that
    /// interleave cannot merge without reordering the queue.
    #[test]
    fn work_queue_high_water_mark_stays_small() {
        let graph = Graph::grid(16, 16);
        let bfs = |v| Flood { me: v, neighbors: graph.neighbors(v), hops: None };
        let digest = |v| ds_verify::DigestFlood::new(&graph, v, 12);
        let t_bfs = run_sync(&graph, bfs, 1_000).expect("sync").rounds_to_quiescence;
        let t_digest = run_sync(&graph, digest, 1_000).expect("sync").rounds_to_quiescence;
        for (mult, bfs_limit, digest_limit) in [(1, 8, 8), (16, 8, 16)] {
            let bfs_caps = work_queue_capacities(&graph, mult * t_bfs, bfs);
            let digest_caps = work_queue_capacities(&graph, mult * t_digest, digest);
            for (what, caps, limit) in
                [("bfs", bfs_caps, bfs_limit), ("digest", digest_caps, digest_limit)]
            {
                let peak = caps.iter().copied().max().expect("nodes");
                assert!(
                    peak <= limit,
                    "{what} at {mult}·T(A): a work queue reached capacity {peak} (limit {limit})"
                );
            }
        }
    }

    /// The range queue pops exactly the items an unrolled queue (one item per
    /// stage, plain FIFO) would, under any interleaving of single pushes,
    /// whole runs, other items and pops: the order argument of DESIGN.md §3.4,
    /// checked against its oracle. Pushing a range's remainder at the back
    /// instead of the front fails here; no schedule in the integration suites
    /// has told the two apart.
    #[test]
    fn range_items_pop_in_unrolled_fifo_order() {
        #[derive(Clone, Copy, Debug, PartialEq)]
        enum Unrolled {
            Stage(StageOp, u64, usize),
            Complete(u64),
            Try,
        }
        fn unroll(item: Work) -> Unrolled {
            match item {
                Work::Stages { op, q, base, mask } => {
                    assert_eq!(mask.count_ones(), 1, "pop_work yields one stage");
                    Unrolled::Stage(op, q, base as usize + mask.trailing_zeros() as usize)
                }
                Work::RecomputeComplete(q) => Unrolled::Complete(q),
                Work::TryProcess => Unrolled::Try,
            }
        }
        let ops = [StageOp::Recompute, StageOp::GoAhead, StageOp::SafeFromSelfChild];
        let mut work = VecDeque::new();
        let mut oracle = VecDeque::new();
        let mut most = 0;
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        for step in 0..20_000 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            let (op, q, n) = (ops[(x >> 40) as usize % 3], (x >> 44) % 3, (x >> 48) as usize % 70);
            match (x >> 33) % 10 {
                0..=3 => {
                    assert_eq!(pop_work(&mut work).map(unroll), oracle.pop_front(), "step {step}")
                }
                4..=6 => {
                    push_slot(&mut work, op, q, n);
                    oracle.push_back(Unrolled::Stage(op, q, n));
                }
                7 => {
                    push_run(&mut work, op, q, n + 1);
                    oracle.extend((0..=n).map(|slot| Unrolled::Stage(op, q, slot)));
                }
                8 => {
                    work.push_back(Work::RecomputeComplete(q));
                    oracle.push_back(Unrolled::Complete(q));
                }
                _ => {
                    work.push_back(Work::TryProcess);
                    oracle.push_back(Unrolled::Try);
                }
            }
            most = most.max(work.len());
        }
        while let Some(item) = oracle.pop_front() {
            assert_eq!(pop_work(&mut work).map(unroll), Some(item));
        }
        assert!(work.is_empty());
        assert!(most >= 8, "the walk must keep several items queued behind a range");
    }

    #[test]
    fn tracked_slot_is_the_position_in_stages_tracked() {
        let graph = Graph::path(4);
        for max_pulse in [1, 7, 64, 130] {
            let cfg = SynchronizerConfig::build(&graph, max_pulse);
            for q in 0..=max_pulse + 1 {
                let tracked = if q <= max_pulse { cfg.stages_tracked(q) } else { &[] };
                for s in 0..=max_pulse + 2 {
                    let want = tracked.iter().position(|&t| t == s);
                    assert_eq!(cfg.tracked_slot(q, s), want, "T={max_pulse} q={q} s={s}");
                }
            }
        }
    }

    /// `debug_stall` is the stall-diagnosis tool for this protocol (see the verify
    /// skill); this keeps it compiling against the live field set and anchored to a
    /// real finished run.
    #[test]
    fn debug_stall_reports_per_node_protocol_state() {
        // Deep enough (10 pulses) for non-base stages, so registration rows exist.
        let graph = Graph::path(10);
        let cfg = SynchronizerConfig::build(&graph, 10);
        let flood = |v| Flood { me: v, neighbors: graph.neighbors(v), hops: None };
        let make = |v| DetSynchronizer::new(v, flood(v), cfg.clone());
        let (report, _) =
            run(&graph, &RunSpec::new(DelayModel::jitter(3)), make, None).expect("run");
        for (i, node) in report.nodes.iter().enumerate() {
            let dump = node.debug_stall();
            assert!(dump.starts_with(&format!("node {i}:")), "dump header: {dump}");
            // A finished run left no unreleased triggers behind.
            assert!(dump.contains("pending_triggers=[]"), "node {i} still pending: {dump}");
        }
        // The initiator's dump names its pulse-0 virtual node.
        assert!(report.nodes[0].debug_stall().contains("vnode p=0"));
        // One `reg (stage,cluster)` line per created cell: a touched stage's row is
        // created whole, so its lines name exactly the node's tree clusters in the
        // stage's cover, in order.
        let mut reg_lines = 0;
        for (i, node) in report.nodes.iter().enumerate() {
            let dump = node.debug_stall();
            for stage in 1..=cfg.max_pulse {
                let listed: Vec<String> = dump
                    .lines()
                    .filter(|l| l.starts_with(&format!("  reg ({stage},")))
                    .map(|l| l[..l.find(')').expect("key closes")].to_string())
                    .collect();
                if listed.is_empty() {
                    continue;
                }
                let expected: Vec<String> = cfg
                    .stage_cover(stage)
                    .tree_clusters_of(NodeId(i))
                    .iter()
                    .map(|c| format!("  reg ({stage},{}", c.0))
                    .collect();
                assert_eq!(listed, expected, "node {i} stage {stage}");
                reg_lines += listed.len();
            }
        }
        assert!(reg_lines > 0, "a 10-pulse run registers in some non-base stage");
    }
}
