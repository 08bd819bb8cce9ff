//! Differential proptest: the lane-plus-heap `EventQueue` against the
//! retired binary-heap `HeapEventQueue` (compiled back in via the
//! `heap-reference` feature).
//!
//! The queue's `(firing time, insertion sequence)` total FIFO order is a
//! contract every bit-identical-replay suite in the workspace leans on,
//! and its proof (DESIGN.md §15) rests on invariants that are easy to
//! break silently — in-order lane appends, the heap fallback, live lane
//! fronts, lazy cancellation and compaction. The reference heap's
//! ordering, by contrast, is one comparator. So: feed randomized
//! schedule/cancel/pop interleavings, over timers and per-link lane
//! events alike, to both queues and assert they agree on **everything
//! observable** — pop order, event payloads, issued and popped
//! `EventId`s, cancel return values, peeked times, batch contents and
//! live counts. Any divergence is a queue bug by definition.

use hsm_simnet::agent::AgentId;
use hsm_simnet::event::{Event, EventId, EventKind, EventQueue};
use hsm_simnet::event_heap::HeapEventQueue;
use hsm_simnet::link::LinkId;
use hsm_simnet::packet::PacketId;
use hsm_simnet::time::SimTime;
use proptest::prelude::*;

/// Links the scripts schedule lane events on.
const LINKS: u8 = 3;

/// One scripted queue operation. Times are deltas so the generator can
/// never violate the monotonicity invariant (schedules land at or after
/// the last fired instant in both queues alike).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Schedule a timer at `last_fired + dt`.
    Schedule { dt: u64 },
    /// Schedule a `Deliver` (`ready == false`) or `LinkReady` event on
    /// `link`. A `monotone` one lands `dt` after the latest time already
    /// scheduled on that stream, so it appends to the lane; any other
    /// lands at `last_fired + dt` and usually takes the heap fallback.
    ScheduleLink {
        link: u8,
        ready: bool,
        dt: u64,
        monotone: bool,
    },
    /// Cancel the k-th currently-live id (no-op when none are live) —
    /// and, every other time, re-cancel an already-dead id to check the
    /// `false` path agrees too.
    Cancel { k: usize, dead: bool },
    /// Pop one event from both queues and compare everything.
    Pop,
    /// Pop with a deadline `last_fired + dt` (exercises the "leave it
    /// queued" path).
    PopBefore { dt: u64 },
    /// Drain one instant with `pop_batch_before(last_fired + dt)`.
    PopBatch { dt: u64 },
    /// Compare `peek_time` and `next_fire_time`.
    Peek,
}

/// Time deltas from same-instant through RTO scale to far-future
/// instants.
fn arb_dt() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..64,
        0u64..4096,
        0u64..262_144,
        0u64..1_000_000_000,
        1_000_000_000_000u64..2_000_000_000_000,
    ]
}

/// A packet-event schedule: 3 in 4 append in order to their stream, the
/// rest land anywhere from the last fired instant on.
fn arb_link_schedule() -> impl Strategy<Value = Op> {
    (0..LINKS, 0u8..2, 0u64..40_000, 0u8..4).prop_map(|(link, r, dt, m)| Op::ScheduleLink {
        link,
        ready: r == 1,
        dt,
        monotone: m != 0,
    })
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        arb_dt().prop_map(|dt| Op::Schedule { dt }),
        arb_dt().prop_map(|dt| Op::Schedule { dt }),
        arb_link_schedule(),
        arb_link_schedule(),
        (0usize..64, 0u64..2).prop_map(|(k, d)| Op::Cancel { k, dead: d == 1 }),
        Just(Op::Pop),
        Just(Op::Pop),
        arb_dt().prop_map(|dt| Op::PopBefore { dt }),
        arb_dt().prop_map(|dt| Op::PopBatch { dt }),
        Just(Op::Peek),
    ]
}

/// An event whose `dst` carries `tag`, so every kind has a payload to
/// compare and a schedule-order tag to check the pop stream against.
fn ev(at_us: u64, tag: u64, kind: EventKind) -> Event {
    Event {
        at: SimTime::from_micros(at_us),
        dst: AgentId::from_raw(tag as u32),
        kind,
    }
}

fn tag_of(e: &Event) -> u64 {
    e.dst.as_usize() as u64
}

/// Drives both queues through one op script, asserting observable
/// equivalence after every step. Returns the popped `(time, seq-tag)`
/// stream for final whole-run comparison.
fn run_script(ops: &[Op]) {
    let mut queue = EventQueue::new();
    let mut heap = HeapEventQueue::new();
    // Live ids as issued (identical between queues, also asserted).
    let mut live: Vec<EventId> = Vec::new();
    let mut dead: Vec<EventId> = Vec::new();
    let mut last_fired: u64 = 0;
    let mut next_tag: u64 = 0;
    let mut popped: Vec<(u64, u64)> = Vec::new();
    // Latest time scheduled on each (link, kind) stream.
    let mut stream_tail = [0u64; 2 * LINKS as usize];
    let (mut batch_q, mut batch_h) = (Vec::new(), Vec::new());

    let check_pop = |live: &mut Vec<EventId>,
                     dead: &mut Vec<EventId>,
                     last_fired: &mut u64,
                     popped: &mut Vec<(u64, u64)>,
                     w: Option<(EventId, Event)>,
                     h: Option<(EventId, Event)>| {
        match (w, h) {
            (None, None) => {}
            (Some((qid, qe)), Some((hid, he))) => {
                assert_eq!(qid, hid, "popped EventIds diverged");
                assert_eq!(qe.at, he.at, "popped times diverged");
                assert_eq!(tag_of(&qe), tag_of(&he), "popped payloads diverged");
                assert_eq!(qe.kind, he.kind, "popped kinds diverged");
                *last_fired = qe.at.as_micros();
                popped.push((qe.at.as_micros(), tag_of(&qe)));
                live.retain(|id| *id != qid);
                dead.push(qid);
            }
            (w, h) => panic!("one queue popped, the other did not: {w:?} vs {h:?}"),
        }
    };

    for op in ops {
        match *op {
            Op::Schedule { .. } | Op::ScheduleLink { .. } => {
                let e = match *op {
                    Op::ScheduleLink {
                        link,
                        ready,
                        dt,
                        monotone,
                    } => {
                        let stream = 2 * link as usize + ready as usize;
                        let base = if monotone {
                            stream_tail[stream].max(last_fired)
                        } else {
                            last_fired
                        };
                        let at = base.saturating_add(dt);
                        stream_tail[stream] = stream_tail[stream].max(at);
                        let link = LinkId::from_raw(link.into());
                        let kind = if ready {
                            EventKind::LinkReady(link)
                        } else {
                            EventKind::Deliver {
                                packet: PacketId(next_tag),
                                link,
                            }
                        };
                        ev(at, next_tag, kind)
                    }
                    Op::Schedule { dt } => ev(
                        last_fired.saturating_add(dt),
                        next_tag,
                        EventKind::Timer { tag: next_tag },
                    ),
                    _ => unreachable!("matched above"),
                };
                next_tag += 1;
                let qid = queue.schedule(e);
                let hid = heap.schedule(e);
                assert_eq!(qid, hid, "issued EventIds diverged");
                live.push(qid);
            }
            Op::Cancel { k, dead: use_dead } => {
                if use_dead && !dead.is_empty() {
                    let id = dead[k % dead.len()];
                    assert!(!queue.cancel(id), "queue revived a dead id");
                    assert!(!heap.cancel(id), "heap revived a dead id");
                } else if !live.is_empty() {
                    let id = live.remove(k % live.len());
                    assert!(queue.cancel(id), "queue lost a live id");
                    assert!(heap.cancel(id), "heap lost a live id");
                    dead.push(id);
                }
            }
            Op::Pop => {
                let q = queue.pop();
                let h = heap.pop();
                check_pop(&mut live, &mut dead, &mut last_fired, &mut popped, q, h);
            }
            Op::PopBefore { dt } => {
                let deadline = SimTime::from_micros(last_fired.saturating_add(dt));
                let q = queue.pop_before(deadline);
                let h = heap.pop_before(deadline);
                check_pop(&mut live, &mut dead, &mut last_fired, &mut popped, q, h);
            }
            Op::PopBatch { dt } => {
                let deadline = SimTime::from_micros(last_fired.saturating_add(dt));
                let nq = queue.pop_batch_before(deadline, &mut batch_q);
                let nh = heap.pop_batch_before(deadline, &mut batch_h);
                assert_eq!(nq, nh, "batch sizes diverged");
                assert_eq!(nq, batch_q.len(), "batch count must match appended entries");
                let instant = batch_q.first().map(|(_, e)| e.at);
                for (q, h) in batch_q.drain(..).zip(batch_h.drain(..)) {
                    assert_eq!(Some(q.1.at), instant, "a batch spans one instant");
                    check_pop(
                        &mut live,
                        &mut dead,
                        &mut last_fired,
                        &mut popped,
                        Some(q),
                        Some(h),
                    );
                }
            }
            Op::Peek => {
                assert_eq!(queue.peek_time(), heap.peek_time(), "peek diverged");
                assert_eq!(
                    queue.next_fire_time(),
                    heap.peek_time(),
                    "non-mutating peek diverged"
                );
            }
        }
        assert_eq!(queue.len(), heap.len(), "live counts diverged");
        for id in &live {
            assert!(queue.is_pending(*id) && heap.is_pending(*id));
        }
    }
    // Drain to empty: the tail order must agree too.
    loop {
        let q = queue.pop();
        let h = heap.pop();
        let done = q.is_none();
        check_pop(&mut live, &mut dead, &mut last_fired, &mut popped, q, h);
        if done {
            break;
        }
    }
    assert!(queue.is_empty() && heap.is_empty());
    // The popped stream must be sorted by (time, schedule order): tags
    // are issued in schedule order, so within one instant they ascend.
    for pair in popped.windows(2) {
        assert!(
            pair[0].0 < pair[1].0 || (pair[0].0 == pair[1].0 && pair[0].1 < pair[1].1),
            "pop stream violates (time, seq) order: {pair:?}"
        );
    }
}

proptest! {
    #[test]
    fn wheel_and_heap_pop_identically(ops in proptest::collection::vec(arb_op(), 1..300)) {
        run_script(&ops);
    }
}

/// Same-instant events scheduled far ahead and close by, split between
/// the heap and two lanes, must interleave by seq.
#[test]
fn cross_level_same_instant_script() {
    let link = |link, ready, dt| Op::ScheduleLink {
        link,
        ready,
        dt,
        monotone: false,
    };
    let ops = [
        Op::Schedule { dt: 0 },   // t=0, tag 0
        Op::Schedule { dt: 100 }, // t=100, scheduled far ahead, tag 1
        link(0, false, 100),      // t=100, lane, tag 2
        Op::Pop,                  // fires tag 0
        Op::Schedule { dt: 60 },  // t=60, tag 3
        Op::Pop,                  // fires tag 3
        Op::Schedule { dt: 40 },  // t=100, scheduled close, tag 4
        link(1, true, 40),        // t=100, another lane, tag 5
        link(0, false, 40),       // t=100, appends to tag 2's lane, tag 6
        Op::Schedule { dt: 40 },  // t=100, tag 7
        Op::Peek,
        Op::PopBatch { dt: 40 },
        Op::Peek,
    ];
    run_script(&ops);
}

/// One link's packet stream the way the engine drives it: monotone
/// `Deliver`s behind monotone `LinkReady`s, a late out-of-order `Deliver`
/// that must take the heap fallback, cancels of lane fronts and of
/// entries behind them, and batch drains.
#[test]
fn lane_fallback_and_cancel_script() {
    let mut ops = Vec::new();
    for i in 0..150u64 {
        let lane = |ready, dt, monotone| Op::ScheduleLink {
            link: (i % 2) as u8,
            ready,
            dt,
            monotone,
        };
        ops.push(lane(true, 300, true));
        ops.push(lane(false, 27_000 + i % 7, true));
        if i % 5 == 0 {
            ops.push(lane(false, 10, false)); // below the lane tail
        }
        if i % 4 == 0 {
            ops.push(Op::Cancel {
                k: i as usize,
                dead: false,
            });
        }
        ops.push(if i % 3 == 0 {
            Op::PopBatch { dt: 1_000_000 }
        } else {
            Op::Pop
        });
    }
    run_script(&ops);
}

/// Schedule-then-cancel churn (the RTO pattern) mixed with pops, at
/// RTO-scale and near horizons.
#[test]
fn rto_churn_script() {
    let mut ops = Vec::new();
    for i in 0..200 {
        ops.push(Op::Schedule { dt: 200_000 + i });
        ops.push(Op::Cancel { k: 0, dead: false });
        ops.push(Op::Schedule { dt: 63 });
        if i % 3 == 0 {
            ops.push(Op::Pop);
        }
    }
    run_script(&ops);
}
