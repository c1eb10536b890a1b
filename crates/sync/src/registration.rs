//! The cluster registration abstraction of Section 3.2.
//!
//! Within one cluster tree and one stage, nodes *register* before performing a piece
//! of work, *deregister* once done, and then wait for a `Go-Ahead` from the cluster.
//! The two guarantees (Lemmas 3.4 and 3.5) are:
//!
//! 1. when a node receives its Go-Ahead, every node that registered before this node
//!    deregistered has already deregistered, and
//! 2. once no more registrations happen and all registered nodes have deregistered,
//!    every registered node receives its Go-Ahead within `O(h)` time, spending only
//!    messages proportional to the registrations.
//!
//! The implementation follows the paper: registration marks the tree path to the
//! root *dirty* (procedure `R`), deregistration converts dirty edges to *waiting*
//! (procedure `D`), and the root propagates Go-Aheads down waiting edges
//! (procedure `G`).
//!
//! [`RegistrationInstance`] is a pure node-local state machine: it consumes local
//! commands ([`RegistrationInstance::register`], [`RegistrationInstance::deregister`])
//! and peer messages ([`RegistrationInstance::on_message`]), and emits
//! [`RegAction`]s — messages to tree neighbors plus local notifications — which the
//! embedding protocol (the synchronizer) routes over the network. One instance exists
//! per (cluster, stage) pair per node.
//!
//! The instance is a small `Copy` cell (Lemma 3.5: constant-size state per
//! cluster-tree edge). It owns neither its tree position nor its per-child state:
//! every call borrows the node's [`TreePos`] from the cover's position table and a
//! slice of [`ChildMark`]s — one byte per tree child, as many as the position has
//! children — from storage the embedding protocol provides (DESIGN.md §3.4).

use ds_covers::TreePos;
use ds_graph::NodeId;

/// Messages exchanged between cluster-tree neighbors by the registration abstraction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegMsg {
    /// Child → parent: "I marked our edge dirty; run `R` and tell me when the path to
    /// the root is dirty."
    RegisterUp,
    /// Parent → child: "`R` is complete here (the path from me to the root is dirty)."
    RegisterDone,
    /// Child → parent: "our edge is no longer dirty but waiting; run `D`."
    DeregisterUp,
    /// Parent → child over a waiting edge: the Go-Ahead (procedure `G`).
    GoAheadDown,
}

/// Local effects produced by the state machine for the embedding protocol to act on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RegAction {
    /// Send `msg` to the cluster-tree neighbor `to`.
    Send { to: NodeId, msg: RegMsg },
    /// This node's own registration is confirmed (the path to the root is dirty).
    Registered,
    /// This node received the Go-Ahead it was waiting for after deregistering.
    Free,
}

/// Edge marks as seen from the node above the edge (for child edges) or below it (for
/// the parent edge).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum EdgeMark {
    #[default]
    Clean,
    Dirty,
    Waiting,
}

/// State of one child edge, as seen from the parent: the edge's mark, plus whether
/// the child's `R` invocation is waiting for this node to become finished.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct ChildMark {
    mark: EdgeMark,
    r_waiting: bool,
}

/// Per-node state of the registration abstraction for one (cluster, stage).
#[derive(Clone, Copy, Debug)]
pub struct RegistrationInstance {
    /// Whether the path from this node to the root is known to be fully dirty.
    finished: bool,
    /// This node's own lifecycle.
    registered: bool,
    deregistered: bool,
    free: bool,
    /// Mark of the edge to the parent, from this node's point of view.
    parent_edge: EdgeMark,
    /// Whether this node's own registration is waiting for the parent's `R`.
    own_r_pending: bool,
    /// Whether a `RegisterUp` has been sent and not yet answered.
    awaiting_parent: bool,
}

/// Index of `child` in the position's children list (flat: children lists are
/// short, so a linear scan beats any map).
///
/// # Panics
///
/// Panics if `child` is not a cluster-tree child of this node (registration
/// messages only travel along cluster-tree edges).
fn child_index(pos: TreePos<'_>, child: NodeId) -> usize {
    pos.children.iter().position(|&c| c == child).expect("registration message from a non-child")
}

impl RegistrationInstance {
    /// Creates the instance for a node at `pos`. The cluster root (no parent)
    /// starts out `finished`, as in the paper; creation has no other effect, so
    /// creating an instance early is indistinguishable from creating it lazily.
    ///
    /// Every later call must pass the same `pos` and the same `marks` slice, which
    /// starts out all-default and has one entry per child of `pos`.
    pub fn new(pos: TreePos<'_>) -> Self {
        RegistrationInstance {
            finished: pos.parent.is_none(),
            registered: false,
            deregistered: false,
            free: false,
            parent_edge: EdgeMark::Clean,
            own_r_pending: false,
            awaiting_parent: false,
        }
    }

    /// Whether this node's registration has been confirmed.
    pub fn is_registered(&self) -> bool {
        self.registered
    }

    /// Whether this node has deregistered.
    pub fn is_deregistered(&self) -> bool {
        self.deregistered
    }

    /// Whether this node has received its Go-Ahead.
    pub fn is_free(&self) -> bool {
        self.free
    }

    /// Starts this node's registration (procedure `R`). Idempotent.
    pub fn register(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        actions: &mut Vec<RegAction>,
    ) {
        assert_eq!(marks.len(), pos.children.len(), "one mark per cluster-tree child");
        if self.registered || self.own_r_pending {
            return;
        }
        self.own_r_pending = true;
        self.invoke_r(pos, marks, actions);
    }

    /// Deregisters this node (procedure `D`).
    ///
    /// # Panics
    ///
    /// Panics if the node has not completed registration, or deregisters twice: the
    /// synchronizer always registers, waits for confirmation, then deregisters once.
    pub fn deregister(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        actions: &mut Vec<RegAction>,
    ) {
        assert_eq!(marks.len(), pos.children.len(), "one mark per cluster-tree child");
        assert!(self.registered, "deregister requires a confirmed registration");
        assert!(!self.deregistered, "deregister is one-shot per instance");
        self.registered = false;
        self.deregistered = true;
        self.invoke_d(pos, marks, actions);
    }

    /// Handles a registration message from the cluster-tree neighbor `from`.
    // ds-lint: hot-path
    pub fn on_message(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        from: NodeId,
        msg: RegMsg,
        actions: &mut Vec<RegAction>,
    ) {
        assert_eq!(marks.len(), pos.children.len(), "one mark per cluster-tree child");
        match msg {
            RegMsg::RegisterUp => {
                marks[child_index(pos, from)] =
                    ChildMark { mark: EdgeMark::Dirty, r_waiting: true };
                self.invoke_r(pos, marks, actions);
            }
            RegMsg::RegisterDone => {
                self.awaiting_parent = false;
                self.complete_r(pos, marks, actions);
            }
            RegMsg::DeregisterUp => {
                marks[child_index(pos, from)].mark = EdgeMark::Waiting;
                if pos.parent.is_none() {
                    self.maybe_issue_goahead(pos, marks, actions);
                } else {
                    self.invoke_d(pos, marks, actions);
                }
            }
            RegMsg::GoAheadDown => {
                // The Go-Ahead resolves the wave whose DeregisterUp marked this edge
                // waiting. A Dirty mark means a newer registration wave has already
                // re-dirtied the edge (its RegisterUp is ordered after our
                // DeregisterUp on the link, so the parent learns of it after issuing
                // this Go-Ahead) — the stale Go-Ahead must not wipe that mark, or the
                // new wave's deregistration can never propagate and the cluster
                // deadlocks.
                if self.parent_edge == EdgeMark::Waiting {
                    self.parent_edge = EdgeMark::Clean;
                }
                self.receive_goahead(pos, marks, actions);
            }
        }
    }

    /// Procedure `R` at this node.
    // ds-lint: hot-path
    fn invoke_r(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        actions: &mut Vec<RegAction>,
    ) {
        if self.finished {
            self.complete_r(pos, marks, actions);
            return;
        }
        let parent = pos.parent.expect("only the root is finished from the start");
        if self.parent_edge != EdgeMark::Dirty {
            self.parent_edge = EdgeMark::Dirty;
        }
        if !self.awaiting_parent {
            self.awaiting_parent = true;
            actions.push(RegAction::Send { to: parent, msg: RegMsg::RegisterUp });
        }
    }

    /// This node has become finished: complete all pending `R` invocations.
    // ds-lint: hot-path
    fn complete_r(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        actions: &mut Vec<RegAction>,
    ) {
        self.finished = true;
        if self.own_r_pending {
            self.own_r_pending = false;
            self.registered = true;
            actions.push(RegAction::Registered);
        }
        for (m, &child) in marks.iter_mut().zip(pos.children) {
            if m.r_waiting {
                m.r_waiting = false;
                actions.push(RegAction::Send { to: child, msg: RegMsg::RegisterDone });
            }
        }
    }

    /// Procedure `D` at this node.
    // ds-lint: hot-path
    fn invoke_d(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        actions: &mut Vec<RegAction>,
    ) {
        if marks.iter().any(|m| m.mark == EdgeMark::Dirty) {
            return;
        }
        if self.registered {
            return;
        }
        match pos.parent {
            None => self.maybe_issue_goahead(pos, marks, actions),
            Some(parent) => {
                if self.parent_edge == EdgeMark::Dirty {
                    self.parent_edge = EdgeMark::Waiting;
                    self.finished = false;
                    actions.push(RegAction::Send { to: parent, msg: RegMsg::DeregisterUp });
                } else if self.deregistered && !self.free && self.parent_edge == EdgeMark::Clean {
                    // The node deregistered without ever dirtying its parent edge
                    // (possible only if it was already finished through another
                    // registration wave that has since been fully resolved). Nothing
                    // upstream tracks it, so it frees itself.
                    self.free = true;
                    actions.push(RegAction::Free);
                }
            }
        }
    }

    /// Procedure `G` at this node: consume and forward the Go-Ahead.
    // ds-lint: hot-path
    fn receive_goahead(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        actions: &mut Vec<RegAction>,
    ) {
        if self.deregistered && !self.free {
            self.free = true;
            actions.push(RegAction::Free);
        }
        for (m, &child) in marks.iter_mut().zip(pos.children) {
            if m.mark == EdgeMark::Waiting {
                m.mark = EdgeMark::Clean;
                actions.push(RegAction::Send { to: child, msg: RegMsg::GoAheadDown });
            }
        }
    }

    /// At the root: issue a Go-Ahead if no child edge is dirty.
    // ds-lint: hot-path
    fn maybe_issue_goahead(
        &mut self,
        pos: TreePos<'_>,
        marks: &mut [ChildMark],
        actions: &mut Vec<RegAction>,
    ) {
        debug_assert!(pos.parent.is_none());
        if marks.iter().any(|m| m.mark == EdgeMark::Dirty) {
            return;
        }
        self.receive_goahead(pos, marks, actions);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_covers::ClusterId;
    use std::collections::{BTreeMap, BTreeSet};

    /// One node of a hand-built cluster tree: the position and mark storage the
    /// synchronizer would lend the instance, owned here instead.
    struct Node {
        parent: Option<NodeId>,
        children: Vec<NodeId>,
        marks: Vec<ChildMark>,
        inst: RegistrationInstance,
    }

    impl Node {
        fn new(parent: Option<usize>, children: &[usize]) -> Self {
            let parent = parent.map(NodeId);
            let children: Vec<NodeId> = children.iter().map(|&c| NodeId(c)).collect();
            let pos =
                TreePos { cluster: ClusterId(0), parent, children: &children, is_member: true };
            let inst = RegistrationInstance::new(pos);
            Node { parent, marks: vec![ChildMark::default(); children.len()], children, inst }
        }

        /// Runs one call on the instance over this node's position and marks, and
        /// returns the actions it emitted.
        fn step(
            &mut self,
            call: impl FnOnce(
                &mut RegistrationInstance,
                TreePos<'_>,
                &mut [ChildMark],
                &mut Vec<RegAction>,
            ),
        ) -> Vec<RegAction> {
            let pos = TreePos {
                cluster: ClusterId(0),
                parent: self.parent,
                children: &self.children,
                is_member: true,
            };
            let mut actions = Vec::new();
            call(&mut self.inst, pos, &mut self.marks, &mut actions);
            actions
        }

        fn register(&mut self) -> Vec<RegAction> {
            self.step(|inst, pos, marks, actions| inst.register(pos, marks, actions))
        }

        fn deregister(&mut self) -> Vec<RegAction> {
            self.step(|inst, pos, marks, actions| inst.deregister(pos, marks, actions))
        }

        fn deliver(&mut self, from: usize, msg: RegMsg) -> Vec<RegAction> {
            self.step(|inst, pos, marks, actions| {
                inst.on_message(pos, marks, NodeId(from), msg, actions)
            })
        }
    }

    /// A tiny sequential harness that delivers registration messages between the
    /// node-local instances of one cluster tree, in FIFO order, and records local
    /// notifications. Used to unit-test the state machine without the full simulator
    /// (the simulator-level tests live in the synchronizer integration tests).
    struct Harness {
        nodes: BTreeMap<NodeId, Node>,
        inbox: Vec<(NodeId, NodeId, RegMsg)>,
        registered: BTreeSet<NodeId>,
        freed: Vec<NodeId>,
        messages: usize,
    }

    impl Harness {
        fn new(parents: &[(usize, Option<usize>)]) -> Self {
            let mut children: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
            for &(v, p) in parents {
                if let Some(p) = p {
                    children.entry(p).or_default().push(v);
                }
            }
            let nodes = parents
                .iter()
                .map(|&(v, p)| {
                    let kids = children.get(&v).map_or(&[][..], Vec::as_slice);
                    (NodeId(v), Node::new(p, kids))
                })
                .collect();
            Harness {
                nodes,
                inbox: Vec::new(),
                registered: BTreeSet::new(),
                freed: Vec::new(),
                messages: 0,
            }
        }

        fn apply(&mut self, node: NodeId, actions: Vec<RegAction>) {
            for a in actions {
                match a {
                    RegAction::Send { to, msg } => {
                        self.messages += 1;
                        self.inbox.push((node, to, msg));
                    }
                    RegAction::Registered => {
                        self.registered.insert(node);
                    }
                    RegAction::Free => self.freed.push(node),
                }
            }
        }

        fn register(&mut self, v: usize) {
            let actions = self.nodes.get_mut(&NodeId(v)).unwrap().register();
            self.apply(NodeId(v), actions);
        }

        fn deregister(&mut self, v: usize) {
            let actions = self.nodes.get_mut(&NodeId(v)).unwrap().deregister();
            self.apply(NodeId(v), actions);
        }

        /// Delivers queued messages until quiescence.
        fn drain(&mut self) {
            while !self.inbox.is_empty() {
                let (from, to, msg) = self.inbox.remove(0);
                let actions = self.nodes.get_mut(&to).unwrap().deliver(from.index(), msg);
                self.apply(to, actions);
            }
        }
    }

    /// Path tree 0 (root) - 1 - 2 - 3.
    fn path_tree() -> Harness {
        Harness::new(&[(0, None), (1, Some(0)), (2, Some(1)), (3, Some(2))])
    }

    #[test]
    fn single_registration_roundtrip() {
        let mut h = path_tree();
        h.register(3);
        h.drain();
        assert!(h.registered.contains(&NodeId(3)));
        assert!(h.freed.is_empty());
        h.deregister(3);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(3)]);
    }

    #[test]
    fn root_registration_is_immediate() {
        let mut h = path_tree();
        h.register(0);
        assert!(h.registered.contains(&NodeId(0)));
        h.deregister(0);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(0)]);
    }

    #[test]
    fn go_ahead_waits_for_all_registered_nodes() {
        let mut h = path_tree();
        h.register(2);
        h.register(3);
        h.drain();
        assert!(h.registered.contains(&NodeId(2)) && h.registered.contains(&NodeId(3)));
        // Deregister only node 3: node 2's registration keeps the path dirty, so no
        // Go-Ahead may be issued (register guarantee 1).
        h.deregister(3);
        h.drain();
        assert!(h.freed.is_empty());
        h.deregister(2);
        h.drain();
        let mut freed = h.freed.clone();
        freed.sort();
        assert_eq!(freed, vec![NodeId(2), NodeId(3)]);
    }

    #[test]
    fn registration_after_goahead_starts_a_new_wave() {
        let mut h = path_tree();
        h.register(3);
        h.drain();
        h.deregister(3);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(3)]);
        // A different node registers afterwards; it must get its own confirmation and
        // (after deregistering) its own Go-Ahead.
        h.register(2);
        h.drain();
        assert!(h.registered.contains(&NodeId(2)));
        h.deregister(2);
        h.drain();
        assert_eq!(h.freed, vec![NodeId(3), NodeId(2)]);
    }

    #[test]
    fn overlapping_registrations_on_a_star() {
        // Root 0 with children 1, 2, 3.
        let mut h = Harness::new(&[(0, None), (1, Some(0)), (2, Some(0)), (3, Some(0))]);
        h.register(1);
        h.register(2);
        h.register(3);
        h.drain();
        h.deregister(2);
        h.drain();
        assert!(h.freed.is_empty(), "nodes 1 and 3 are still registered");
        h.deregister(1);
        h.deregister(3);
        h.drain();
        let mut freed = h.freed.clone();
        freed.sort();
        assert_eq!(freed, vec![NodeId(1), NodeId(2), NodeId(3)]);
    }

    /// A star's centre has `n − 1` tree children: the per-child marks must not be
    /// capped by any fixed-width encoding.
    #[test]
    fn a_root_with_200_children_tracks_every_child_edge() {
        let mut parents = vec![(0, None)];
        parents.extend((1..=200).map(|v| (v, Some(0))));
        let mut h = Harness::new(&parents);
        let registrants: Vec<usize> = (1..=200).filter(|v| v % 2 == 0).collect();
        for &v in &registrants {
            h.register(v);
        }
        h.drain();
        assert_eq!(h.registered.len(), registrants.len());
        // One RegisterUp and one RegisterDone per registrant.
        assert_eq!(h.messages, 2 * registrants.len());
        for &v in &registrants[..registrants.len() - 1] {
            h.deregister(v);
        }
        h.drain();
        assert!(h.freed.is_empty(), "node 200 is still registered");
        h.deregister(200);
        h.drain();
        // One DeregisterUp and one GoAheadDown per registrant on top.
        assert_eq!(h.messages, 4 * registrants.len());
        let mut freed: Vec<usize> = h.freed.iter().map(|v| v.index()).collect();
        freed.sort_unstable();
        assert_eq!(freed, registrants);
    }

    #[test]
    fn message_cost_is_proportional_to_path_length() {
        // Register guarantee 1: registration and deregistration of a node at depth h
        // cost O(h) messages; with a single registrant on a path of depth 3 the whole
        // cycle (register, deregister, go-ahead) uses at most 3 messages per phase.
        let mut h = path_tree();
        h.register(3);
        h.drain();
        let after_register = h.messages;
        assert!(after_register <= 2 * 3, "registration used {after_register} messages");
        h.deregister(3);
        h.drain();
        assert!(h.messages - after_register <= 2 * 3);
    }

    #[test]
    fn intermediate_nodes_piggyback_on_existing_dirty_paths() {
        let mut h = path_tree();
        h.register(3);
        h.drain();
        let before = h.messages;
        // Node 1 lies on the already-dirty path, so its registration completes with no
        // additional messages up the tree.
        h.register(1);
        assert!(h.registered.contains(&NodeId(1)));
        assert_eq!(h.messages, before);
        h.deregister(1);
        h.deregister(3);
        h.drain();
        let mut freed = h.freed.clone();
        freed.sort();
        assert_eq!(freed, vec![NodeId(1), NodeId(3)]);
    }

    #[test]
    #[should_panic(expected = "confirmed registration")]
    fn deregister_without_registration_panics() {
        let mut h = path_tree();
        h.deregister(2);
    }

    /// Regression test: a Go-Ahead still in flight from a finished wave must not
    /// wipe a parent edge that a newer registration wave has re-dirtied. (Observed
    /// as a cluster-wide deadlock on stage 14 of an 8x8-grid BFS run: the relay's
    /// parent edge was reset to Clean, so the second wave's deregistration never
    /// propagated and the root's child edge stayed Dirty forever.)
    #[test]
    fn stale_goahead_does_not_wipe_a_redirtied_parent_edge() {
        // Root 0 — relay 1 — leaves 2 and 3. Messages are delivered by hand so the
        // stale Go-Ahead can be held back and reordered after the new RegisterUp.
        let mut n0 = Node::new(None, &[1]);
        let mut n1 = Node::new(Some(0), &[2, 3]);
        let mut n2 = Node::new(Some(1), &[]);
        let mut n3 = Node::new(Some(1), &[]);

        // Wave 1: node 2 registers through the relay and deregisters.
        let a = n2.register();
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterUp }]);
        let a = n1.deliver(2, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::RegisterUp }]);
        let a = n0.deliver(1, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterDone }]);
        let a = n1.deliver(0, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(2), msg: RegMsg::RegisterDone }]);
        let a = n2.deliver(1, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Registered]);
        let a = n2.deregister();
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::DeregisterUp }]);
        let a = n1.deliver(2, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::DeregisterUp }]);
        // The root issues the wave-1 Go-Ahead — hold it in flight.
        let a = n0.deliver(1, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::GoAheadDown }]);

        // Wave 2: node 3 registers; the relay re-dirties its parent edge.
        let a = n3.register();
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterUp }]);
        let a = n1.deliver(3, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::RegisterUp }]);

        // The stale wave-1 Go-Ahead now lands: it must free node 2 without clearing
        // the re-dirtied parent edge.
        let a = n1.deliver(0, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(2), msg: RegMsg::GoAheadDown }]);
        let a = n2.deliver(1, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Free]);

        // Wave 2 completes: registration confirms, then deregistration must still
        // propagate up (this is the step the bug broke) and the Go-Ahead must return.
        let a = n0.deliver(1, RegMsg::RegisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::RegisterDone }]);
        let a = n1.deliver(0, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(3), msg: RegMsg::RegisterDone }]);
        let a = n3.deliver(1, RegMsg::RegisterDone);
        assert_eq!(a, vec![RegAction::Registered]);
        let a = n3.deregister();
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::DeregisterUp }]);
        let a = n1.deliver(3, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(0), msg: RegMsg::DeregisterUp }]);
        let a = n0.deliver(1, RegMsg::DeregisterUp);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(1), msg: RegMsg::GoAheadDown }]);
        let a = n1.deliver(0, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Send { to: NodeId(3), msg: RegMsg::GoAheadDown }]);
        let a = n3.deliver(1, RegMsg::GoAheadDown);
        assert_eq!(a, vec![RegAction::Free]);
    }
}
