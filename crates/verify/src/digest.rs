//! A test algorithm whose output depends on every message it receives.
//!
//! BFS, flooding, leader election and MST decide once and then ignore what
//! arrives later, so a synchronizer that hands a node one pulse's messages
//! twice, drops one, or mixes two pulses' inboxes can still produce the right
//! outputs under them. [`DigestFlood`] cannot be fooled that way: for `K`
//! pulses every node folds each received `(pulse, sender, message)` triple
//! into a running digest and sends the digest to all its neighbours, so each
//! message's content depends on every message its sender has received.
//!
//! The fold is a wrapping sum of a 64-bit hash of each triple, which counts
//! multiplicity: a message delivered twice adds its hash twice. A logical
//! clock would not do — Lamport and vector clocks merge by `max`, and
//! `max(c, c) = c`, so a clock cannot tell a re-delivered message from the
//! first copy, which is exactly the fault this algorithm is here to expose.
//!
//! Every node is an initiator and stays active for all `K` pulses, so the
//! algorithm also keeps a synchronizer's per-pulse bookkeeping busy on every
//! node at once, where a BFS front touches each node for one pulse only.

use ds_graph::{Graph, NodeId};
use ds_netsim::event_driven::{EventDriven, PulseCtx};

/// The SplitMix64 finalizer: a bijective 64-bit mix.
fn mix(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The hash one received message adds to the digest.
fn triple_hash(pulse: u64, sender: NodeId, msg: u64) -> u64 {
    mix(mix(mix(pulse) ^ sender.index() as u64) ^ msg)
}

/// Per-node state of the digest flood. The neighbour list is borrowed from the
/// graph.
#[derive(Clone, Debug)]
pub struct DigestFlood<'g> {
    neighbors: &'g [NodeId],
    /// `K`: the node sends at pulses `0 .. K` and outputs at pulse `K`.
    pulses: u64,
    /// Pulses evaluated so far. Every node sends at every pulse below `K`, so
    /// it is triggered at every pulse and this is the current pulse number.
    pulse: u64,
    digest: u64,
    output: Option<u64>,
}

impl<'g> DigestFlood<'g> {
    /// Creates the instance for node `me`, running for `pulses` (`K ≥ 1`) pulses.
    ///
    /// # Panics
    ///
    /// Panics if `pulses == 0`.
    pub fn new(graph: &'g Graph, me: NodeId, pulses: u64) -> Self {
        assert!(pulses > 0, "the digest flood runs for at least one pulse");
        DigestFlood {
            neighbors: graph.neighbors(me),
            pulses,
            pulse: 0,
            digest: mix(me.index() as u64),
            output: None,
        }
    }

    fn send_digest(&self, ctx: &mut PulseCtx<u64>) {
        for &u in self.neighbors {
            ctx.send(u, self.digest);
        }
    }
}

impl EventDriven for DigestFlood<'_> {
    /// The sender's digest after its last pulse.
    type Msg = u64;
    /// The node's digest after pulse `K`.
    type Output = u64;

    fn on_init(&mut self, ctx: &mut PulseCtx<u64>) {
        self.send_digest(ctx);
    }

    fn on_pulse(&mut self, received: &[(NodeId, u64)], ctx: &mut PulseCtx<u64>) {
        if self.output.is_some() {
            return;
        }
        self.pulse += 1;
        for &(sender, msg) in received {
            self.digest = self.digest.wrapping_add(triple_hash(self.pulse, sender, msg));
        }
        if self.pulse == self.pulses {
            self.output = Some(self.digest);
        } else {
            self.send_digest(ctx);
        }
    }

    fn output(&self) -> Option<u64> {
        self.output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ds_netsim::sync_engine::run_sync;

    #[test]
    fn runs_for_exactly_k_pulses_and_every_node_outputs() {
        let graph = Graph::grid(4, 4);
        let report = run_sync(&graph, |v| DigestFlood::new(&graph, v, 6), 100).unwrap();
        assert_eq!(report.rounds_to_output, Some(6));
        assert_eq!(report.messages, 2 * graph.edge_count() as u64 * 6);
        assert!(report.outputs().iter().all(Option::is_some));
    }

    #[test]
    fn a_repeated_message_changes_the_digest() {
        // The failure a max-merging clock cannot see: the same message twice.
        let graph = Graph::path(2);
        let once = |dup: bool| {
            let mut node = DigestFlood::new(&graph, NodeId(0), 1);
            let batch = vec![(NodeId(1), 7); 1 + usize::from(dup)];
            node.on_pulse(&batch, &mut PulseCtx::new(NodeId(0)));
            node.output().unwrap()
        };
        assert_ne!(once(false), once(true));
    }

    #[test]
    fn the_digest_depends_on_the_pulse_of_each_message() {
        let graph = Graph::path(2);
        let mut a = DigestFlood::new(&graph, NodeId(0), 3);
        let mut b = DigestFlood::new(&graph, NodeId(0), 3);
        let mut ctx = PulseCtx::new(NodeId(0));
        // The same message, at pulse 1 for `a` and at pulse 2 for `b`.
        a.on_pulse(&[(NodeId(1), 5)], &mut ctx);
        a.on_pulse(&[], &mut ctx);
        b.on_pulse(&[], &mut ctx);
        b.on_pulse(&[(NodeId(1), 5)], &mut ctx);
        a.on_pulse(&[], &mut ctx);
        b.on_pulse(&[], &mut ctx);
        assert_ne!(a.output(), b.output());
    }
}
