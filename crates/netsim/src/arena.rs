//! Recycled event arena: payload slots behind `u32` handles.
//!
//! The delivery hot path used to move an owned `Pending<M>` struct — link id
//! plus an inline message — through wheel slot, link queue and outbox, one
//! event at a time. The arena splits the message off:
//!
//! * [`PayloadArena`]: a free-list slab owning every in-flight message.
//!   `alloc` hands out a `u32` handle (recycling freed slots, so steady state
//!   never allocates), `take` moves the message back out. Everything else —
//!   wheel slots, link queues — stores the 4-byte handle instead of
//!   the message. A live-handle counter makes leaks checkable: a finished run
//!   must return `live()` to zero.
//! * [`EvRef`]: the two packed `u32`s (link, payload handle) the serial
//!   engine's scheduler stores per event.
//!
//! Both asynchronous engines keep one arena. The sharded engine's dense ticks
//! `lend` a delivery's payload to the worker that runs its activation and
//! `reclaim` the slot when the delivery's effects replay, so the arena sees
//! the serial engine's exact sequence of frees and allocations (same
//! handles, same peak, same bytes).

/// Reserved handle meaning "no payload" (acknowledgment events carry none).
pub const NONE: u32 = u32::MAX;

/// A scheduled event as the event schedulers store it: the directed link the
/// event travels on and the payload handle ([`NONE`] for acknowledgments,
/// which carry no message). Two packed `u32`s — the `(tick, seq)` columns are
/// supplied by the scheduler itself — so a wheel slot entry is 16 bytes
/// regardless of the protocol's message type.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EvRef {
    /// Directed-edge index of the link the event belongs to.
    pub link: u32,
    /// Payload handle into the engine's [`PayloadArena`], or [`NONE`].
    pub payload: u32,
}

impl EvRef {
    /// A delivery event carrying the message behind `payload`.
    pub fn deliver(link: u32, payload: u32) -> Self {
        debug_assert_ne!(payload, NONE, "deliveries carry a payload");
        EvRef { link, payload }
    }

    /// An acknowledgment event (no payload).
    pub fn ack(link: u32) -> Self {
        EvRef { link, payload: NONE }
    }

    /// Whether this is an acknowledgment (no payload handle).
    pub fn is_ack(&self) -> bool {
        self.payload == NONE
    }
}

/// One slot of the payload arena: a live message, a live handle whose
/// message is out on loan, or a link in the free list.
#[derive(Debug)]
enum Slot<M> {
    Occupied(M),
    /// The message was [lent](PayloadArena::lend) out; the handle stays live
    /// until [`PayloadArena::reclaim`].
    Lent,
    /// Next free slot index, or [`NONE`] for the list tail.
    Free(u32),
}

/// Free-list slab of in-flight message payloads, indexed by `u32` handles.
///
/// `alloc` pops the free list (growing the slot vector only when it is
/// empty), `take` pushes the freed slot back, so a steady-state run allocates
/// exactly once per distinct high-water mark of simultaneously in-flight
/// messages. The `live`/`peak_live` counters feed both the engines' leak
/// assertions (a finished run must return every handle) and the bench
/// artifact's arena statistics.
#[derive(Debug)]
pub struct PayloadArena<M> {
    slots: Vec<Slot<M>>,
    /// Head of the free list ([`NONE`] when every slot is occupied).
    free_head: u32,
    /// Currently outstanding handles.
    live: usize,
    /// High-water mark of `live` over the arena's lifetime.
    peak_live: usize,
}

impl<M> PayloadArena<M> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        PayloadArena { slots: Vec::new(), free_head: NONE, live: 0, peak_live: 0 }
    }

    /// Stores `msg` and returns its handle.
    ///
    /// # Panics
    ///
    /// Panics if more than `u32::MAX` payloads are simultaneously live.
    pub fn alloc(&mut self, msg: M) -> u32 {
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        if self.free_head != NONE {
            let h = self.free_head;
            let slot = &mut self.slots[h as usize];
            let Slot::Free(next) = *slot else {
                unreachable!("free list points at an occupied slot");
            };
            self.free_head = next;
            *slot = Slot::Occupied(msg);
            h
        } else {
            let h = u32::try_from(self.slots.len()).expect("fewer than u32::MAX live payloads");
            assert_ne!(h, NONE, "arena handle space exhausted");
            self.slots.push(Slot::Occupied(msg));
            h
        }
    }

    /// Moves the message behind `handle` out, freeing the slot for reuse.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not a live handle from this arena (stale, freed,
    /// or foreign handles are a bug in the caller).
    pub fn take(&mut self, handle: u32) -> M {
        let slot = &mut self.slots[handle as usize];
        let prev = std::mem::replace(slot, Slot::Free(self.free_head));
        let Slot::Occupied(msg) = prev else {
            panic!("double free or stale arena handle {handle}");
        };
        self.free_head = handle;
        self.live -= 1;
        msg
    }

    /// Moves the message behind `handle` out but keeps the handle live: the
    /// slot is neither reused nor counted free until [`PayloadArena::reclaim`].
    ///
    /// # Panics
    ///
    /// Panics if `handle` does not hold a message.
    pub(crate) fn lend(&mut self, handle: u32) -> M {
        match std::mem::replace(&mut self.slots[handle as usize], Slot::Lent) {
            Slot::Occupied(msg) => msg,
            _ => panic!("lending a stale or lent arena handle {handle}"),
        }
    }

    /// Frees a [lent](PayloadArena::lend) handle's slot — the second half of
    /// a [`PayloadArena::take`].
    ///
    /// # Panics
    ///
    /// Panics if `handle` is not out on loan.
    pub(crate) fn reclaim(&mut self, handle: u32) {
        let slot = &mut self.slots[handle as usize];
        assert!(matches!(slot, Slot::Lent), "reclaiming arena handle {handle}, which is not lent");
        *slot = Slot::Free(self.free_head);
        self.free_head = handle;
        self.live -= 1;
    }

    /// Currently outstanding handles.
    pub fn live(&self) -> usize {
        self.live
    }

    /// High-water mark of simultaneously live handles.
    pub fn peak_live(&self) -> usize {
        self.peak_live
    }

    /// Resets the high-water mark to the current live count. Engine recycling
    /// calls this between runs so `peak_live` reports a per-run watermark —
    /// identical to a cold arena's — rather than a lifetime one.
    pub fn reset_peak(&mut self) {
        self.peak_live = self.live;
    }

    /// Bytes backing the slot vector (capacity, not just live slots) — the
    /// arena's memory footprint as reported in the bench artifact.
    pub fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot<M>>()
    }
}

impl<M> Default for PayloadArena<M> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arena_roundtrips_and_recycles_slots() {
        let mut a: PayloadArena<String> = PayloadArena::new();
        let h1 = a.alloc("one".into());
        let h2 = a.alloc("two".into());
        assert_ne!(h1, h2);
        assert_eq!(a.live(), 2);
        assert_eq!(a.take(h1), "one");
        assert_eq!(a.live(), 1);
        // The freed slot is reused before the slab grows.
        let h3 = a.alloc("three".into());
        assert_eq!(h3, h1, "freed slot must be recycled");
        assert_eq!(a.take(h3), "three");
        assert_eq!(a.take(h2), "two");
        assert_eq!(a.live(), 0);
        assert_eq!(a.peak_live(), 2);
    }

    #[test]
    fn arena_free_list_is_lifo_across_many_handles() {
        let mut a: PayloadArena<u64> = PayloadArena::new();
        let handles: Vec<u32> = (0..100).map(|i| a.alloc(i)).collect();
        assert_eq!(a.live(), 100);
        for &h in handles.iter().rev() {
            a.take(h);
        }
        assert_eq!(a.live(), 0);
        // Refilling reuses all 100 slots without growing the slab.
        let bytes = a.bytes();
        let again: Vec<u32> = (0..100).map(|i| a.alloc(i + 1000)).collect();
        assert_eq!(a.bytes(), bytes, "steady-state alloc must not grow the slab");
        let mut seen: Vec<u32> = again.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 100, "handles must be distinct");
        for &h in &again {
            a.take(h);
        }
        assert_eq!(a.peak_live(), 100);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn taking_a_freed_handle_panics() {
        let mut a: PayloadArena<u8> = PayloadArena::new();
        let h = a.alloc(1);
        a.take(h);
        let _ = a.take(h);
    }

    #[test]
    fn lend_then_reclaim_frees_exactly_like_take() {
        // The same alloc/free sequence, once with take and once with
        // lend + reclaim at the take's position: identical handles and peak.
        let mut by_take: PayloadArena<u64> = PayloadArena::new();
        let mut by_loan: PayloadArena<u64> = PayloadArena::new();
        let (a, b) = (by_take.alloc(1), by_take.alloc(2));
        assert_eq!((by_loan.alloc(1), by_loan.alloc(2)), (a, b));
        let lent = by_loan.lend(a);
        assert_eq!(lent, 1);
        assert_eq!(by_loan.live(), 2, "a lent handle stays live");
        assert_eq!(by_loan.alloc(3), 2, "a lent slot is not reused");
        by_take.alloc(3);
        assert_eq!(by_take.take(a), 1);
        by_loan.reclaim(a);
        assert_eq!(by_loan.alloc(4), by_take.alloc(4));
        assert_eq!((by_loan.live(), by_loan.peak_live()), (by_take.live(), by_take.peak_live()));
    }

    #[test]
    #[should_panic(expected = "not lent")]
    fn reclaiming_an_occupied_handle_panics() {
        let mut a: PayloadArena<u8> = PayloadArena::new();
        let h = a.alloc(1);
        a.reclaim(h);
    }

    #[test]
    fn evref_packs_acks_without_a_payload() {
        let d = EvRef::deliver(4, 9);
        assert!(!d.is_ack());
        let a = EvRef::ack(4);
        assert!(a.is_ack());
        assert_eq!(a.link, 4);
        assert_eq!(std::mem::size_of::<EvRef>(), 8, "scheduler payloads stay two packed u32s");
    }
}
