//! Retired slab-indexed binary min-heap event queue, kept as a reference
//! implementation for the lane-plus-heap queue in [`crate::event`].
//!
//! The production queue is faster on simulated-flow traffic (per-link
//! FIFO lanes, lazy cancellation with compaction), but this heap's
//! ordering behaviour is trivial to audit: a strict
//! `(firing time, insertion sequence)` comparator.
//! That makes it the oracle for the standing differential proptest
//! (`tests/queue_differential.rs`), which feeds randomized
//! schedule/cancel/pop interleavings through both queues and asserts
//! identical pop streams and identical [`EventId`] assignments. The
//! criterion microbenches (`queue_churn_heap` vs `queue_churn_lane_heap`)
//! also build against it to keep the perf delta measured, not remembered.
//!
//! Compiled only for tests and under the `heap-reference` feature — it is
//! not part of the production simulator.

use crate::event::{Event, EventId};
use crate::time::SimTime;

/// Compact heap entry: the ordering key plus the slab address.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    at: SimTime,
    seq: u64,
    slot: u32,
    gen: u32,
}

impl HeapEntry {
    /// Strict total order: earlier time first, then insertion sequence.
    #[inline]
    fn before(&self, other: &HeapEntry) -> bool {
        (self.at, self.seq) < (other.at, other.seq)
    }
}

/// One slab slot: the event payload plus the generation that validates
/// heap entries pointing at it.
#[derive(Debug)]
struct Slot {
    gen: u32,
    event: Option<Event>,
}

/// The retired binary-heap future event list (reference oracle).
///
/// API-compatible with the core operations of
/// [`EventQueue`](crate::event::EventQueue): `schedule`, `cancel`,
/// `is_pending`, `peek_time`, `pop`, `pop_before`, `len`, `is_empty`,
/// `reset` — and it issues bit-identical [`EventId`]s for identical
/// operation histories, which the differential test checks.
#[derive(Debug, Default)]
pub struct HeapEventQueue {
    heap: Vec<HeapEntry>,
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    /// Firing time of the most recently popped event; see the queue's
    /// monotonicity invariant — the oracle enforces the same one.
    #[cfg(any(debug_assertions, test))]
    last_popped: SimTime,
}

impl HeapEventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Schedules `event` and returns its cancellation handle.
    pub fn schedule(&mut self, event: Event) -> EventId {
        let at = event.at;
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize].event = Some(event);
                slot
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                slot
            }
        };
        let gen = self.slots[slot as usize].gen;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.push_heap(HeapEntry { at, seq, slot, gen });
        EventId::new(slot, gen)
    }

    /// Schedule/cancel counters (zeroed stub for engine A/B swaps).
    pub fn stats(&self) -> crate::event::QueueStats {
        crate::event::QueueStats::default()
    }

    /// Clears the queue for reuse, keeping every allocation.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.slots.clear();
        self.free.clear();
        self.live = 0;
        self.next_seq = 0;
        #[cfg(any(debug_assertions, test))]
        {
            self.last_popped = SimTime::ZERO;
        }
    }

    /// Cancels a previously scheduled event; the heap entry is left
    /// behind and skipped lazily when it reaches the top.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get_mut(id.slot()) {
            Some(slot) if slot.gen == id.gen() && slot.event.is_some() => {
                slot.event = None;
                slot.gen = slot.gen.wrapping_add(1);
                self.free.push(id.slot() as u32);
                self.live -= 1;
                true
            }
            _ => false,
        }
    }

    /// True if `id` has been scheduled and has neither fired nor been
    /// cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slots
            .get(id.slot())
            .is_some_and(|s| s.gen == id.gen() && s.event.is_some())
    }

    /// Firing time of the next live event, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_stale();
        self.heap.first().map(|e| e.at)
    }

    /// Pops the next live event.
    pub fn pop(&mut self) -> Option<(EventId, Event)> {
        self.pop_before(SimTime::MAX)
    }

    /// Drains all live events sharing the next firing instant (if at or
    /// before `deadline`) into `out`, mirroring
    /// [`EventQueue::pop_batch_before`](crate::event::EventQueue::pop_batch_before)
    /// so benches and the differential suite can drive both queues
    /// through the engine's batch-dispatch access pattern.
    pub fn pop_batch_before(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(EventId, Event)>,
    ) -> usize {
        let Some(first) = self.pop_before(deadline) else {
            return 0;
        };
        let t = first.1.at;
        out.push(first);
        let mut n = 1;
        while self.peek_time() == Some(t) {
            out.push(self.pop().expect("peeked live entry"));
            n += 1;
        }
        n
    }

    /// Pops the next live event if it fires at or before `deadline`.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(EventId, Event)> {
        loop {
            let entry = *self.heap.first()?;
            let slot = &mut self.slots[entry.slot as usize];
            if slot.gen != entry.gen || slot.event.is_none() {
                // Stale (cancelled) entry: discard and keep looking.
                self.pop_heap();
                continue;
            }
            if entry.at > deadline {
                return None;
            }
            let event = slot.event.take().expect("checked live above");
            slot.gen = slot.gen.wrapping_add(1);
            self.pop_heap();
            self.free.push(entry.slot);
            self.live -= 1;
            #[cfg(any(debug_assertions, test))]
            {
                assert!(
                    entry.at >= self.last_popped,
                    "event-queue time monotonicity violated: popping event at {:?} \
                     after already firing one at {:?}",
                    entry.at,
                    self.last_popped,
                );
                self.last_popped = entry.at;
            }
            return Some((EventId::new(entry.slot, entry.gen), event));
        }
    }

    /// Drops stale (cancelled) entries off the top of the heap.
    fn skip_stale(&mut self) {
        while let Some(top) = self.heap.first() {
            let slot = &self.slots[top.slot as usize];
            if slot.gen == top.gen && slot.event.is_some() {
                return;
            }
            self.pop_heap();
        }
    }

    /// Standard binary-heap sift-up insertion.
    fn push_heap(&mut self, entry: HeapEntry) {
        let mut i = self.heap.len();
        self.heap.push(entry);
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[i].before(&self.heap[parent]) {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Removes the heap root (swap-remove + sift-down).
    fn pop_heap(&mut self) {
        let last = self.heap.len() - 1;
        self.heap.swap(0, last);
        self.heap.truncate(last);
        let len = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= len {
                break;
            }
            let r = l + 1;
            let mut child = l;
            if r < len && self.heap[r].before(&self.heap[l]) {
                child = r;
            }
            if self.heap[child].before(&self.heap[i]) {
                self.heap.swap(i, child);
                i = child;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agent::AgentId;
    use crate::event::EventKind;

    fn ev(at_us: u64, tag: u64) -> Event {
        Event {
            at: SimTime::from_micros(at_us),
            dst: AgentId::from_raw(0),
            kind: EventKind::Timer { tag },
        }
    }

    fn tag_of(e: &Event) -> u64 {
        match e.kind {
            EventKind::Timer { tag } => tag,
            _ => panic!("not a timer"),
        }
    }

    #[test]
    fn heap_reference_pops_time_then_fifo_order() {
        let mut q = HeapEventQueue::new();
        q.schedule(ev(30, 3));
        q.schedule(ev(10, 1));
        q.schedule(ev(10, 2));
        let dead = q.schedule(ev(20, 9));
        assert!(q.cancel(dead));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn heap_reference_issues_same_ids_as_wheel() {
        // The differential contract includes EventId equality; spot-check
        // it here so a drift fails fast even without the proptest.
        let mut heap = HeapEventQueue::new();
        let mut wheel = crate::event::EventQueue::new();
        for t in [40u64, 10, 10, 700_000] {
            assert_eq!(heap.schedule(ev(t, t)), wheel.schedule(ev(t, t)));
        }
        for _ in 0..4 {
            let (hid, he) = heap.pop().unwrap();
            let (wid, we) = wheel.pop().unwrap();
            assert_eq!(hid, wid);
            assert_eq!(he.at, we.at);
            assert_eq!(tag_of(&he), tag_of(&we));
        }
        assert!(heap.pop().is_none() && wheel.pop().is_none());
    }
}
