//! Future event list.
//!
//! Shaped for the traffic a simulated flow actually produces: a shallow
//! queue (tens of pending events) where most schedules are per-link
//! `Deliver` and `LinkReady` events, each stream monotone in time, and
//! most timers are cancelled before they fire.
//!
//! * **Lanes.** Each `(link, Deliver)` and `(link, LinkReady)` pair owns
//!   a FIFO lane of compact `(time, sequence, slot, generation)` entries.
//!   [`EventQueue::schedule`] appends to the lane when the firing time is
//!   at or after the lane's tail, an `O(1)` push with no comparison
//!   against anything else.
//! * **Heap.** Timers, and any lane event that would arrive out of
//!   order, go into one binary min-heap. Cancellation is lazy; when stale
//!   entries outnumber live ones by more than a constant, the queue
//!   compacts, so timer churn cannot grow memory.
//! * **Pop.** [`EventQueue::pop`] takes the least `(time, sequence)` key
//!   among the non-empty lane fronts (found through a 64-bit occupancy
//!   mask) and the heap top.
//!
//! Event payloads live in a slab of reusable slots addressed by a
//! `(slot, generation)` pair packed into the [`EventId`], so scheduling
//! and popping never touch a hash map.
//!
//! # Ordering contract
//!
//! Events fire strictly ordered by `(firing time, insertion sequence)`:
//! earlier times first, and among events scheduled for the **same
//! instant**, strictly in the order `schedule` was called (FIFO). The
//! insertion sequence is a queue-global monotonic counter, so this
//! ordering is total, deterministic, and independent of cancellation
//! history — the property every bit-identical-replay test in the
//! workspace leans on.
//!
//! ## Proof sketch (see DESIGN.md §15 for the long form)
//!
//! Every lane is sorted by `(time, sequence)`: an entry is appended only
//! when its time is at or after the tail's, and its sequence is the
//! largest yet issued, so the key strictly rises along the lane. Removals
//! (pops, scrubs, compaction) only drop entries and keep that order. The
//! heap orders its own entries by the same key. Each source's front is
//! therefore its minimum, and the least front over all sources is the
//! global minimum. Stale entries never decide: the queue keeps every
//! lane front and the heap top live (a cancel that hits a front, and
//! every pop, scrubs stale entries off that source). The retired
//! binary-heap queue is kept, feature-gated, as
//! `event_heap::HeapEventQueue`, and a standing differential proptest
//! (`tests/queue_differential.rs`) pops randomized schedule/cancel
//! interleavings, over lanes and heap alike, through both queues and
//! asserts identical `(time, seq)` streams — the contract is proven, not
//! assumed.

use crate::agent::AgentId;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Unique handle of a scheduled event, usable for cancellation.
///
/// Internally packs the slab slot index and its generation; the raw value
/// is only meaningful for debugging/logging.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId(u64);

impl EventId {
    /// Raw numeric value (mostly for debugging/logging).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    pub(crate) fn new(slot: u32, gen: u32) -> EventId {
        EventId((u64::from(slot) << 32) | u64::from(gen))
    }

    pub(crate) fn slot(self) -> usize {
        (self.0 >> 32) as usize
    }

    pub(crate) fn gen(self) -> u32 {
        self.0 as u32
    }
}

/// What a fired event means to the destination agent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A packet finished traversing a link and arrives at the agent.
    Deliver {
        /// Arena id of the arriving packet; the engine materializes the
        /// full [`Packet`](crate::packet::Packet) from its
        /// [`PacketArena`](crate::arena::PacketArena) at delivery time.
        packet: crate::packet::PacketId,
        /// The link it traversed — used for observer reporting and for the
        /// per-link packet-conservation invariant.
        link: crate::link::LinkId,
    },
    /// A timer set by the agent expired.
    Timer {
        /// Agent-defined tag passed back verbatim.
        tag: u64,
    },
    /// A link that was busy transmitting is ready for the next packet.
    LinkReady(crate::link::LinkId),
}

/// A scheduled event: at `at`, deliver `kind` to `dst`.
///
/// `Copy` by design: every payload is a compact handle (timer tag, link
/// id, packet arena id), so the slab stores and returns events without
/// moving heap data.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    /// Firing time.
    pub at: SimTime,
    /// Destination agent (ignored for [`EventKind::LinkReady`]).
    pub dst: AgentId,
    /// Payload.
    pub kind: EventKind,
}

/// Cheap per-queue telemetry: schedule/cancel volume and live depth,
/// maintained with two adds and a compare per schedule.
///
/// Campaign runners aggregate these across flows into `BENCH_simnet.json`
/// so the queue's design is justified by measured timer churn and depth,
/// and regressions in them stay visible.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct QueueStats {
    /// Events scheduled.
    pub schedules: u64,
    /// Events cancelled before firing.
    pub cancels: u64,
    /// Peak number of live (pending) events.
    pub max_depth: usize,
    /// Sum of the live depth sampled after every schedule; divide by
    /// `schedules` for the mean depth the queue operated at.
    pub depth_sum: u64,
}

impl QueueStats {
    /// Mean live depth over all schedules (0 when nothing was scheduled).
    pub fn mean_depth(&self) -> f64 {
        if self.schedules == 0 {
            0.0
        } else {
            self.depth_sum as f64 / self.schedules as f64
        }
    }

    /// Fraction of scheduled events that were cancelled before firing —
    /// the retransmission-timer churn ratio the heap's lazy cancellation
    /// and compaction are designed around.
    pub fn cancel_ratio(&self) -> f64 {
        if self.schedules == 0 {
            0.0
        } else {
            self.cancels as f64 / self.schedules as f64
        }
    }

    /// Folds another queue's counters into this one (campaign
    /// aggregation across flows).
    pub fn merge(&mut self, other: &QueueStats) {
        self.schedules += other.schedules;
        self.cancels += other.cancels;
        self.max_depth = self.max_depth.max(other.max_depth);
        self.depth_sum += other.depth_sum;
    }
}

/// A queued entry: `(firing µs, insertion seq, slab slot, generation)`.
/// Tuple order is the pop order, so lanes and the heap compare entries
/// directly (the seq is unique, so slot and generation never decide).
type Entry = (u64, u64, u32, u32);

/// Lane count: one `Deliver` and one `LinkReady` lane for each of the
/// first 32 links, so lane occupancy fits one `u64`. Events on higher
/// links take the heap, which orders them just as well.
const LANES: usize = 64;

/// Lane of an event: `Deliver` and `LinkReady` get one lane per link;
/// timers (and links past the lane range) get none.
#[inline]
fn lane_of(kind: &EventKind) -> Option<usize> {
    let lane = match *kind {
        EventKind::Deliver { link, .. } => 2 * link.as_usize(),
        EventKind::LinkReady(link) => 2 * link.as_usize() + 1,
        EventKind::Timer { .. } => return None,
    };
    (lane < LANES).then_some(lane)
}

/// One slab slot: the event payload plus the generation that validates
/// the queued entries pointing at it.
#[derive(Debug)]
struct Slot {
    gen: u32,
    event: Option<Event>,
}

/// True if `e` still points at the event it was queued for (not fired,
/// not cancelled).
#[inline]
fn is_live(slab: &[Slot], e: &Entry) -> bool {
    let s = &slab[e.2 as usize];
    s.gen == e.3 && s.event.is_some()
}

/// The future event list.
#[derive(Debug)]
pub struct EventQueue {
    /// Per-link FIFO lanes, indexed by [`lane_of`]; each sorted by
    /// `(at, seq)` because `schedule` only appends at or after the tail.
    lanes: Box<[VecDeque<Entry>]>,
    /// Bit *i* set iff `lanes[i]` is non-empty.
    occ: u64,
    /// Timers and lane fallbacks. Cancelled entries stay until they
    /// surface at the top or a compaction drops them.
    heap: BinaryHeap<Reverse<Entry>>,
    /// Entries physically queued in lanes and heap, live or stale.
    queued: usize,
    slab: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    next_seq: u64,
    stats: QueueStats,
    /// Firing time of the most recently popped event. Simulated time must
    /// never run backwards: every pop checks the invariant in debug/test
    /// builds. A violation means someone scheduled an event in the past
    /// (relative to events already fired) — a logic bug that would silently
    /// corrupt every downstream timing statistic if allowed through.
    #[cfg(any(debug_assertions, test))]
    last_popped: SimTime,
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            lanes: (0..LANES).map(|_| VecDeque::new()).collect(),
            occ: 0,
            heap: BinaryHeap::new(),
            queued: 0,
            slab: Vec::new(),
            free: Vec::new(),
            live: 0,
            next_seq: 0,
            stats: QueueStats::default(),
            #[cfg(any(debug_assertions, test))]
            last_popped: SimTime::ZERO,
        }
    }
}

impl EventQueue {
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

    /// Schedule/cancel/depth counters since construction or [`reset`].
    ///
    /// [`reset`]: EventQueue::reset
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Schedules `event` and returns its cancellation handle.
    pub fn schedule(&mut self, event: Event) -> EventId {
        #[cfg(any(debug_assertions, test))]
        assert!(
            event.at >= self.last_popped,
            "event-queue time monotonicity violated: scheduling an event at \
             {:?} after already firing one at {:?}",
            event.at,
            self.last_popped,
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize].event = Some(event);
                slot
            }
            None => {
                let slot = self.slab.len() as u32;
                self.slab.push(Slot {
                    gen: 0,
                    event: Some(event),
                });
                slot
            }
        };
        let gen = self.slab[slot as usize].gen;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.live += 1;
        self.queued += 1;
        self.stats.schedules += 1;
        self.stats.depth_sum += self.live as u64;
        if self.live > self.stats.max_depth {
            self.stats.max_depth = self.live;
        }
        let entry = (event.at.as_micros(), seq, slot, gen);
        match lane_of(&event.kind) {
            // Append only in order, so the lane stays sorted whatever the
            // caller does; an out-of-order event falls back to the heap.
            Some(i) if self.lanes[i].back().is_none_or(|b| b.0 <= entry.0) => {
                self.lanes[i].push_back(entry);
                self.occ |= 1 << i;
            }
            _ => self.heap.push(Reverse(entry)),
        }
        EventId::new(slot, gen)
    }

    /// Clears the queue for reuse, keeping every allocation (lane deques,
    /// heap, slab and free list capacity) so a recycled engine schedules
    /// its first events without touching the allocator.
    ///
    /// After `reset` the queue is indistinguishable from a freshly
    /// constructed one: the insertion sequence restarts at zero, all slots
    /// are forgotten, and previously issued [`EventId`]s are dead.
    pub fn reset(&mut self) {
        for lane in self.lanes.iter_mut() {
            lane.clear();
        }
        self.occ = 0;
        self.heap.clear();
        self.queued = 0;
        self.slab.clear();
        self.free.clear();
        self.live = 0;
        self.next_seq = 0;
        self.stats = QueueStats::default();
        #[cfg(any(debug_assertions, test))]
        {
            self.last_popped = SimTime::ZERO;
        }
    }

    /// Cancels a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending, `false` if it already
    /// fired or was already cancelled. An entry at the front of its lane
    /// or the top of the heap is removed at once; any other is left behind
    /// and dropped when it surfaces or when stale entries outnumber live
    /// ones and the queue compacts.
    pub fn cancel(&mut self, id: EventId) -> bool {
        let Some(s) = self.slab.get_mut(id.slot()) else {
            return false;
        };
        if s.gen != id.gen() {
            return false;
        }
        let Some(event) = s.event.take() else {
            return false;
        };
        s.gen = s.gen.wrapping_add(1);
        self.free.push(id.slot() as u32);
        self.live -= 1;
        self.stats.cancels += 1;
        // Fronts were live before this cancel, so only this entry can have
        // gone stale there.
        let key = (id.slot() as u32, id.gen());
        let is_key = |e: &Entry| (e.2, e.3) == key;
        if let Some(i) = lane_of(&event.kind) {
            if self.lanes[i].front().is_some_and(is_key) {
                self.scrub_lane(i);
            }
        }
        if self.heap.peek().is_some_and(|Reverse(e)| is_key(e)) {
            self.scrub_heap();
        }
        if self.queued > 2 * self.live + 32 {
            self.compact();
        }
        true
    }

    /// True if `id` has been scheduled and has neither fired nor been
    /// cancelled.
    pub fn is_pending(&self, id: EventId) -> bool {
        self.slab
            .get(id.slot())
            .is_some_and(|s| s.gen == id.gen() && s.event.is_some())
    }

    /// Firing time of the next live event, if any.
    ///
    /// Lane fronts and the heap top are always live, so this is a plain
    /// read; it keeps `&mut self` for API stability.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.next_fire_time()
    }

    /// Non-mutating sibling of [`peek_time`](EventQueue::peek_time), for
    /// read-only bounds from shared contexts.
    pub fn next_fire_time(&self) -> Option<SimTime> {
        self.next_source().map(|(_, at)| SimTime::from_micros(at))
    }

    /// Pops the next live event.
    ///
    /// # Panics
    ///
    /// In debug/test builds, panics if the popped event fires earlier than
    /// a previously popped one (time monotonicity violation — an event was
    /// scheduled in the simulated past).
    pub fn pop(&mut self) -> Option<(EventId, Event)> {
        self.pop_before(SimTime::MAX)
    }

    /// Pops the next live event if it fires at or before `deadline`;
    /// returns `None` (leaving the event queued) otherwise.
    ///
    /// # Panics
    ///
    /// Same monotonicity check as [`EventQueue::pop`] (debug/test builds).
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(EventId, Event)> {
        let (src, at) = self.next_source()?;
        (at <= deadline.as_micros()).then(|| self.take(src))
    }

    /// Drains **all** live events sharing the next firing instant (if it
    /// is at or before `deadline`) into `out`, in FIFO order, and returns
    /// how many were appended. The engine's batch-dispatch loop uses this
    /// to pay the clock update and dispatch setup once per instant.
    ///
    /// `out` is appended to, not cleared — callers reuse one scratch
    /// buffer across batches.
    ///
    /// # Panics
    ///
    /// Same monotonicity check as [`EventQueue::pop`] (debug/test builds).
    pub fn pop_batch_before(
        &mut self,
        deadline: SimTime,
        out: &mut Vec<(EventId, Event)>,
    ) -> usize {
        let Some((mut src, t)) = self.next_source() else {
            return 0;
        };
        if t > deadline.as_micros() {
            return 0;
        }
        let mut n = 0;
        loop {
            out.push(self.take(src));
            n += 1;
            match self.next_source() {
                Some((next, at)) if at == t => src = next,
                _ => return n,
            }
        }
    }

    /// Where the next live event sits — a lane index, or [`LANES`] for
    /// the heap — and its firing µs. Lane fronts and the heap top are
    /// always live, so this only compares keys: the global `(at, seq)`
    /// minimum is the least of the per-source minima.
    #[inline]
    fn next_source(&self) -> Option<(usize, u64)> {
        let mut best = self.heap.peek().map(|Reverse(e)| (LANES, e.0, e.1));
        let mut occ = self.occ;
        while occ != 0 {
            let i = occ.trailing_zeros() as usize;
            occ &= occ - 1;
            let e = self.lanes[i].front().expect("occupied lane");
            if best.is_none_or(|(_, at, seq)| (e.0, e.1) < (at, seq)) {
                best = Some((i, e.0, e.1));
            }
        }
        best.map(|(src, at, _)| (src, at))
    }

    /// Removes the live front of `src` (a lane index or [`LANES`]) and
    /// fires it.
    #[inline]
    fn take(&mut self, src: usize) -> (EventId, Event) {
        self.queued -= 1;
        let entry = if src == LANES {
            let Reverse(e) = self.heap.pop().expect("live heap top");
            self.scrub_heap();
            e
        } else {
            let e = self.lanes[src].pop_front().expect("live lane front");
            self.scrub_lane(src);
            e
        };
        self.fire(entry)
    }

    /// Drops stale entries off the front of lane `i`, restoring the
    /// live-front invariant, and clears its occupancy bit once empty.
    fn scrub_lane(&mut self, i: usize) {
        while let Some(e) = self.lanes[i].front() {
            if is_live(&self.slab, e) {
                return;
            }
            self.lanes[i].pop_front();
            self.queued -= 1;
        }
        self.occ &= !(1 << i);
    }

    /// Drops stale entries off the top of the heap.
    fn scrub_heap(&mut self) {
        while let Some(Reverse(e)) = self.heap.peek() {
            if is_live(&self.slab, e) {
                return;
            }
            self.heap.pop();
            self.queued -= 1;
        }
    }

    /// Drops every stale entry from lanes and heap. Runs only when stale
    /// entries outnumber live ones by more than a constant, so its linear
    /// cost is paid for by the cancels that made the garbage.
    fn compact(&mut self) {
        let slab = &self.slab;
        self.heap.retain(|Reverse(e)| is_live(slab, e));
        for lane in self.lanes.iter_mut() {
            lane.retain(|e| is_live(slab, e));
        }
        self.queued = self.live;
    }

    /// Extracts a popped entry's payload from the slab and retires the slot.
    #[inline]
    fn fire(&mut self, (_, _, slot, gen): Entry) -> (EventId, Event) {
        let s = &mut self.slab[slot as usize];
        let event = s.event.take().expect("popped entries are live");
        s.gen = s.gen.wrapping_add(1);
        self.free.push(slot);
        self.live -= 1;
        #[cfg(any(debug_assertions, test))]
        {
            assert!(
                event.at >= self.last_popped,
                "event-queue time monotonicity violated: popping event at {:?} \
                 after already firing one at {:?}",
                event.at,
                self.last_popped,
            );
            self.last_popped = event.at;
        }
        (EventId::new(slot, gen), event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(ev(30, 3));
        q.schedule(ev(10, 1));
        q.schedule(ev(20, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        for tag in 0..100 {
            q.schedule(ev(500, tag));
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn cancellation_skips_event() {
        let mut q = EventQueue::new();
        let a = q.schedule(ev(10, 1));
        q.schedule(ev(20, 2));
        assert!(q.is_pending(a));
        assert!(q.cancel(a));
        assert!(!q.is_pending(a));
        assert!(!q.cancel(a), "double-cancel reports false");
        let (_, e) = q.pop().unwrap();
        assert_eq!(tag_of(&e), 2);
        assert!(q.pop().is_none());
    }

    #[test]
    fn peek_time_skips_cancelled_head() {
        let mut q = EventQueue::new();
        let a = q.schedule(ev(10, 1));
        q.schedule(ev(20, 2));
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(20)));
    }

    #[test]
    fn next_fire_time_matches_peek_without_mutating() {
        let mut q = EventQueue::new();
        assert_eq!(q.next_fire_time(), None);
        let a = q.schedule(ev(90_000, 1)); // level ≥ 1
        q.schedule(ev(200_000, 2));
        q.schedule(ev(150, 3));
        assert_eq!(q.next_fire_time(), Some(SimTime::from_micros(150)));
        q.pop().unwrap();
        q.cancel(a);
        assert_eq!(q.next_fire_time(), Some(SimTime::from_micros(200_000)));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(200_000)));
    }

    #[test]
    fn slot_reuse_does_not_resurrect_cancelled_events() {
        // Cancel an event, then schedule new ones until the freed slot is
        // reused: the stale queued entry must not fire the new occupant, and
        // the old id must stay dead.
        let mut q = EventQueue::new();
        let dead = q.schedule(ev(10, 1));
        assert!(q.cancel(dead));
        let alive = q.schedule(ev(20, 2)); // reuses the freed slot
        assert!(!q.is_pending(dead));
        assert!(q.is_pending(alive));
        assert!(!q.cancel(dead), "stale id must not cancel the reused slot");
        let (popped, e) = q.pop().unwrap();
        assert_eq!(tag_of(&e), 2);
        assert_eq!(popped, alive);
        assert!(q.pop().is_none());
    }

    #[test]
    fn fired_ids_are_not_pending_and_not_cancellable() {
        let mut q = EventQueue::new();
        let a = q.schedule(ev(10, 1));
        q.pop().unwrap();
        assert!(!q.is_pending(a));
        assert!(!q.cancel(a), "fired event must not cancel");
    }

    #[test]
    #[should_panic(expected = "time monotonicity")]
    fn scheduling_into_the_fired_past_trips_the_invariant() {
        // Violation injection: fire an event at t=10, then schedule one at
        // t=5. The queue itself cannot reorder history, so the monotonicity
        // check must refuse to pop it.
        let mut q = EventQueue::new();
        q.schedule(ev(10, 1));
        q.pop().unwrap();
        q.schedule(ev(5, 2));
        q.pop();
    }

    #[test]
    fn monotonicity_allows_equal_times() {
        // Back-to-back events at the same instant are legal (FIFO order).
        let mut q = EventQueue::new();
        q.schedule(ev(10, 1));
        q.pop().unwrap();
        q.schedule(ev(10, 2));
        assert!(q.pop().is_some());
    }

    #[test]
    fn len_tracks_live_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let a = q.schedule(ev(10, 1));
        q.schedule(ev(20, 2));
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    fn reset_queue_behaves_like_fresh() {
        // Fill, pop, cancel, then reset: the recycled queue must replay a
        // fresh queue's behaviour exactly (ids, FIFO order, monotonicity).
        let drive = |q: &mut EventQueue| -> Vec<(u64, u64)> {
            q.schedule(ev(10, 1));
            let b = q.schedule(ev(10, 2));
            q.schedule(ev(5, 0));
            assert!(q.cancel(b));
            std::iter::from_fn(|| q.pop())
                .map(|(id, e)| (id.as_u64(), tag_of(&e)))
                .collect()
        };

        let mut fresh = EventQueue::new();
        let fresh_run = drive(&mut fresh);

        let mut recycled = EventQueue::new();
        // Dirty it thoroughly: fired events, cancelled events, live leftovers.
        let dead = recycled.schedule(ev(7, 9));
        recycled.schedule(ev(1, 8));
        recycled.pop().unwrap();
        recycled.cancel(dead);
        recycled.schedule(ev(99, 7)); // still live at reset time
        recycled.reset();
        assert!(recycled.is_empty());
        assert!(!recycled.is_pending(dead), "pre-reset ids must be dead");
        assert_eq!(recycled.stats(), QueueStats::default());
        assert_eq!(drive(&mut recycled), fresh_run);
    }

    #[test]
    fn interleaved_same_time_schedules_and_cancels_keep_fifo() {
        // FIFO among same-instant events must survive arbitrary cancel
        // patterns and slot reuse.
        let mut q = EventQueue::new();
        let ids: Vec<EventId> = (0..50).map(|tag| q.schedule(ev(100, tag))).collect();
        for (i, id) in ids.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*id));
            }
        }
        for tag in 50..80 {
            q.schedule(ev(100, tag)); // reuses freed slots
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        let expected: Vec<u64> = (0..50u64).filter(|t| t % 3 != 0).chain(50..80).collect();
        assert_eq!(order, expected);
    }

    #[test]
    fn same_instant_fifo_across_schedule_horizons() {
        // An event scheduled far ahead of its instant must still fire
        // before a same-instant event scheduled later, close to it.
        let mut q = EventQueue::new();
        q.schedule(ev(0, 0));
        q.schedule(ev(64, 1)); // 64 µs ahead
        q.pop().unwrap(); // fires t=0… then schedule again
        q.schedule(ev(1, 2));
        q.pop().unwrap(); // now at t=1; t=64 is 63 µs away
        q.schedule(ev(64, 3)); // same instant, scheduled close
        q.schedule(ev(64, 4));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| tag_of(&e))
            .collect();
        assert_eq!(
            order,
            vec![1, 3, 4],
            "early-scheduled event must keep seq order"
        );
    }

    #[test]
    fn far_future_events_pop_in_order() {
        // Events microseconds-to-hours apart: order and payloads must
        // survive the whole range.
        let mut q = EventQueue::new();
        let times: &[u64] = &[
            3_600_000_000, // 1 h
            1_000_000,     // 1 s
            64,
            5,
            1_000_001,
            1_000_000, // same instant as the earlier 1 s event
        ];
        for (tag, &t) in times.iter().enumerate() {
            q.schedule(ev(t, tag as u64));
        }
        let order: Vec<(u64, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(_, e)| (e.at.as_micros(), tag_of(&e)))
            .collect();
        assert_eq!(
            order,
            vec![
                (5, 3),
                (64, 2),
                (1_000_000, 1),
                (1_000_000, 5),
                (1_000_001, 4),
                (3_600_000_000, 0),
            ]
        );
    }

    #[test]
    fn sentinel_max_time_events_survive() {
        // SimTime::MAX is the "effectively disabled" timer sentinel; it
        // must queue, cancel cleanly, and even pop.
        let mut q = EventQueue::new();
        let far = q.schedule(ev(u64::MAX, 1));
        q.schedule(ev(10, 2));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(10)));
        q.pop().unwrap();
        assert!(q.cancel(far));
        assert!(q.pop().is_none());
        let again = q.schedule(ev(u64::MAX, 3));
        assert!(q.is_pending(again));
        let (_, e) = q.pop().unwrap();
        assert_eq!(tag_of(&e), 3);
    }

    #[test]
    fn pop_batch_drains_exactly_one_instant() {
        let mut q = EventQueue::new();
        for tag in 0..5 {
            q.schedule(ev(100, tag));
        }
        let dead = q.schedule(ev(100, 99));
        q.schedule(ev(200, 7));
        q.schedule(ev(100, 5));
        q.cancel(dead);
        let mut batch = Vec::new();
        let n = q.pop_batch_before(SimTime::MAX, &mut batch);
        assert_eq!(n, 6);
        let tags: Vec<u64> = batch.iter().map(|(_, e)| tag_of(e)).collect();
        assert_eq!(tags, vec![0, 1, 2, 3, 4, 5]);
        assert_eq!(q.len(), 1);
        batch.clear();
        assert_eq!(
            q.pop_batch_before(SimTime::from_micros(150), &mut batch),
            0,
            "next instant is past the deadline"
        );
        assert_eq!(q.pop_batch_before(SimTime::MAX, &mut batch), 1);
        assert_eq!(tag_of(&batch[0].1), 7);
        assert_eq!(q.pop_batch_before(SimTime::MAX, &mut batch), 0);
    }

    #[test]
    fn cancel_churn_garbage_stays_bounded() {
        // The RTO pattern: schedule then cancel, thousands of times,
        // behind live fronts so no cancel hits a lane front or the heap
        // top. Compaction must bound the stale entries, `SimTime::MAX`
        // sentinels included, and the queue must end empty.
        let deliver = |at_us: u64| Event {
            at: SimTime::from_micros(at_us),
            dst: AgentId::from_raw(0),
            kind: EventKind::Deliver {
                packet: crate::packet::PacketId(0),
                link: crate::link::LinkId::from_raw(0),
            },
        };
        let mut q = EventQueue::new();
        let timer_front = q.schedule(ev(1, 0));
        let lane_front = q.schedule(deliver(1));
        for i in 0..10_000u64 {
            let at = if i % 4 == 0 {
                u64::MAX
            } else {
                1_000_000 + i % 3
            };
            let timer = q.schedule(ev(at, i));
            let packet = q.schedule(deliver(1_000 + i));
            assert!(q.cancel(timer));
            assert!(q.cancel(packet));
            assert!(
                q.queued <= 2 * q.len() + 33,
                "stale entries must stay bounded"
            );
        }
        assert!(q.cancel(timer_front) && q.cancel(lane_front));
        assert!(q.is_empty());
        assert_eq!(q.queued, 0, "no stale entry may outlive the last live one");
        assert!(
            q.heap.is_empty() && q.heap.capacity() <= 64,
            "heap stays small"
        );
        assert_eq!(q.occ, 0, "empty lanes must clear occupancy");
        assert_eq!(q.stats().cancels, 20_002);
        assert_eq!(q.stats().cancel_ratio(), 1.0);
    }

    #[test]
    fn stats_track_depth_and_churn() {
        let mut q = EventQueue::new();
        let a = q.schedule(ev(10, 1));
        q.schedule(ev(20, 2));
        q.schedule(ev(30, 3));
        q.cancel(a);
        q.pop().unwrap();
        let s = q.stats();
        assert_eq!(s.schedules, 3);
        assert_eq!(s.cancels, 1);
        assert_eq!(s.max_depth, 3);
        assert_eq!(s.depth_sum, 1 + 2 + 3);
        assert!((s.mean_depth() - 2.0).abs() < 1e-12);
        assert!((s.cancel_ratio() - 1.0 / 3.0).abs() < 1e-12);
        let mut agg = QueueStats::default();
        agg.merge(&s);
        agg.merge(&s);
        assert_eq!(agg.schedules, 6);
        assert_eq!(agg.max_depth, 3);
    }
}
