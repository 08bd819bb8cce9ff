//! Building [`FlowTrace`]s from a simulator run.
//!
//! A capture is the equivalent of wireshark on both endpoints: every
//! packet's send and its delivery (or not). Every simulated flow is folded
//! by [`trace_from_arena_with`] from the engine's packet arena, which
//! already holds every `Sent`-side fact, plus a compact delivery log.
//! [`traces_from_events`] folds a raw [`PacketEvent`] stream instead; it
//! is the reference the arena fold is tested against.

use crate::record::{FlowMeta, FlowTrace, PacketRecord};
use hsm_simnet::arena::PacketArena;
use hsm_simnet::link::LinkId;
use hsm_simnet::observer::{PacketEvent, PacketEventKind};
use hsm_simnet::packet::{PacketId, PacketKind};
use hsm_simnet::time::SimTime;
use std::collections::HashMap;

/// Folds a raw event stream into one trace per flow, sorted by flow id.
///
/// Each packet's `Sent` event is matched with its terminal
/// `Delivered`/`Dropped` event. `meta_for` supplies the [`FlowMeta`] for
/// each flow id encountered. Packets with a `Sent` event but no terminal
/// event by the end of the stream (still in flight when the simulation
/// stopped) are treated as lost, which matches how a finite capture is
/// analyzed.
pub fn traces_from_events(
    events: &[PacketEvent],
    mut meta_for: impl FnMut(u32) -> FlowMeta,
) -> Vec<FlowTrace> {
    let mut flows: Vec<FlowTrace> = Vec::new();
    let mut flow_slots: HashMap<u32, usize> = HashMap::new();
    // Open records by packet id: (flow slot, record index).
    let mut open: HashMap<u64, (usize, usize)> = HashMap::new();
    for ev in events {
        let flow_id = ev.packet.flow.0;
        let pkt_id = ev.packet.id.0;
        match ev.kind {
            PacketEventKind::Sent => {
                let slot = *flow_slots.entry(flow_id).or_insert_with(|| {
                    flows.push(FlowTrace::new(flow_id, meta_for(flow_id)));
                    flows.len() - 1
                });
                let trace = &mut flows[slot];
                let (seq, is_ack, retransmit, acked_count) = match ev.packet.kind {
                    PacketKind::Data { seq, retransmit } => (seq.as_u64(), false, retransmit, 0),
                    PacketKind::Ack { cum, acked_count } => {
                        (cum.as_u64(), true, false, acked_count)
                    }
                };
                trace.records.push(PacketRecord {
                    id: pkt_id,
                    seq,
                    is_ack,
                    retransmit,
                    acked_count,
                    size_bytes: ev.packet.size_bytes,
                    sent_at: ev.time,
                    arrived_at: None,
                });
                open.insert(pkt_id, (slot, trace.records.len() - 1));
            }
            PacketEventKind::Delivered => {
                if let Some((slot, idx)) = open.remove(&pkt_id) {
                    flows[slot].records[idx].arrived_at = Some(ev.time);
                }
            }
            PacketEventKind::Dropped(_) => {
                // Terminal: the record stays `arrived_at: None`.
                open.remove(&pkt_id);
            }
        }
    }

    flows.sort_by_key(|t| t.flow);
    for t in &mut flows {
        t.sort_by_send_time();
    }
    flows
}

/// Reusable working memory for the arena fold.
///
/// The fold's dominant allocation is the delivery-time slab (one entry
/// per engine packet id). Holding a `CaptureScratch` across flows — as the
/// campaign workers do — lets every capture after the first run
/// allocation-free once the slab has grown to the largest flow seen.
#[derive(Debug, Default)]
pub struct CaptureScratch {
    /// Delivery-time slab for the arena fold (index == packet id).
    arrived: Vec<Option<SimTime>>,
}

impl CaptureScratch {
    /// Creates an empty scratch.
    pub fn new() -> CaptureScratch {
        CaptureScratch::default()
    }
}

/// Builds one flow's trace straight from the engine's packet arena plus a
/// compact delivery log — the struct-of-arrays capture path.
///
/// The arena's columns already hold every `Sent`-side fact (flow, kind,
/// size, send time, sending link), and ids are minted in send order, so
/// walking rows `0..len` filtered by the flow column reproduces the event
/// fold's record order exactly. The delivery log supplies the only new
/// information: a `(packet id, delivered-at)` pair per arrival, recorded
/// by a [`DeliveryLog`](hsm_simnet::observer::DeliveryLog) observer. A row
/// with no delivery entry was dropped or still in flight — both fold to
/// `arrived_at: None`, exactly as [`traces_from_events`] treats them.
///
/// Rows sent on a link in `skip_links` are left out: multi-hop wirings
/// (the shared-radio MPTCP demux) forward each packet over an auxiliary
/// link as a fresh packet, and those per-hop copies must not appear as
/// extra records. Single-flow runs pass an empty slice.
///
/// Returns `None` if the arena holds no (unskipped) packets for `flow`.
pub fn trace_from_arena_with(
    scratch: &mut CaptureScratch,
    arena: &PacketArena,
    deliveries: &[(PacketId, SimTime)],
    flow: u32,
    meta: FlowMeta,
    skip_links: &[LinkId],
) -> Option<FlowTrace> {
    // Scatter deliveries into a dense id-indexed slab (clear + resize so
    // stale entries from a previous, larger capture cannot leak through).
    scratch.arrived.clear();
    scratch.arrived.resize(arena.len(), None);
    for &(id, at) in deliveries {
        // Ignore ids the arena does not know — a shared log can carry
        // stale deliveries from a previous, larger run (the event fold is
        // equally tolerant of a Delivered with no matching Sent).
        if let Some(slot) = scratch.arrived.get_mut(id.0 as usize) {
            *slot = Some(at);
        }
    }

    let flows = arena.flows();
    let sizes = arena.sizes();
    let sent_ats = arena.sent_ats();
    let links = arena.links();
    let mut trace = FlowTrace::new(flow, meta);
    for id in 0..arena.len() {
        if flows[id] != flow || (!skip_links.is_empty() && skip_links.contains(&links[id])) {
            continue;
        }
        let (seq, is_ack, retransmit, acked_count) = match arena.get(PacketId(id as u64)).kind {
            PacketKind::Data { seq, retransmit } => (seq.as_u64(), false, retransmit, 0),
            PacketKind::Ack { cum, acked_count } => (cum.as_u64(), true, false, acked_count),
        };
        trace.records.push(PacketRecord {
            id: id as u64,
            seq,
            is_ack,
            retransmit,
            acked_count,
            size_bytes: sizes[id],
            sent_at: sent_ats[id],
            arrived_at: scratch.arrived[id],
        });
    }
    if trace.records.is_empty() {
        return None;
    }
    trace.sort_by_send_time();
    Some(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_simnet::observer::DropCause;
    use hsm_simnet::packet::{FlowId, Packet, PacketId, SeqNo};
    use hsm_simnet::time::SimTime;

    fn ev(kind: PacketEventKind, time_ms: u64, id: u64, flow: u32, pkt: Packet) -> PacketEvent {
        let mut p = pkt;
        p.id = PacketId(id);
        p.flow = FlowId(flow);
        p.sent_at = SimTime::from_millis(time_ms);
        PacketEvent {
            time: SimTime::from_millis(time_ms),
            link: 0,
            link_label: "dl".into(),
            kind,
            packet: p,
        }
    }

    /// The event fold's trace for `flow`, if any.
    fn event_trace(events: &[PacketEvent], flow: u32, meta: FlowMeta) -> Option<FlowTrace> {
        traces_from_events(events, |_| meta.clone())
            .into_iter()
            .find(|t| t.flow == flow)
    }

    #[test]
    fn matches_sent_with_delivered_and_dropped() {
        let data = Packet::data(FlowId(0), SeqNo(0), false);
        let ack = Packet::ack(FlowId(0), SeqNo(1), 1);
        let events = vec![
            ev(PacketEventKind::Sent, 0, 1, 0, data.clone()),
            ev(PacketEventKind::Delivered, 30, 1, 0, data.clone()),
            ev(PacketEventKind::Sent, 35, 2, 0, ack.clone()),
            ev(PacketEventKind::Dropped(DropCause::Channel), 36, 2, 0, ack),
            ev(
                PacketEventKind::Sent,
                40,
                3,
                0,
                Packet::data(FlowId(0), SeqNo(1), true),
            ),
        ];
        let traces = traces_from_events(&events, |_| FlowMeta::default());
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.records.len(), 3);
        assert_eq!(t.records[0].arrived_at, Some(SimTime::from_millis(30)));
        assert!(t.records[1].is_ack && t.records[1].lost());
        assert!(t.records[2].retransmit);
        assert!(
            t.records[2].lost(),
            "in-flight at end of capture counts as lost"
        );
    }

    /// The auxiliary link of [`mixed_fate_run`]: it carries a forwarded
    /// copy of a flow-5 packet, like a shared-radio demux hop.
    const HOP: u32 = 2;

    /// Builds the same tiny mixed-fate history twice: as an arena +
    /// delivery log, and as the equivalent full `PacketEvent` stream.
    fn mixed_fate_run() -> (PacketArena, Vec<(PacketId, SimTime)>, Vec<PacketEvent>) {
        let mut arena = PacketArena::new();
        let mut deliveries = Vec::new();
        let mut events = Vec::new();
        // (flow, link, packet, sent_ms, fate)
        enum Fate {
            Delivered(u64),
            Dropped(u64),
            InFlight,
        }
        let history = vec![
            (
                5,
                0,
                Packet::data(FlowId(5), SeqNo(0), false),
                0,
                Fate::Delivered(30),
            ),
            (
                9,
                0,
                Packet::data(FlowId(9), SeqNo(0), false),
                1,
                Fate::Delivered(28),
            ),
            (
                5,
                HOP,
                Packet::data(FlowId(5), SeqNo(0), false),
                30,
                Fate::Delivered(31),
            ),
            (
                5,
                0,
                Packet::data(FlowId(5), SeqNo(1), false),
                2,
                Fate::Dropped(3),
            ),
            (
                5,
                1,
                Packet::ack(FlowId(5), SeqNo(1), 1),
                31,
                Fate::Delivered(45),
            ),
            (
                5,
                0,
                Packet::data(FlowId(5), SeqNo(1), true),
                50,
                Fate::InFlight,
            ),
        ];
        for (i, (flow, link, pkt, sent_ms, fate)) in history.into_iter().enumerate() {
            let id = i as u64;
            let mut p = pkt;
            p.id = PacketId(id);
            p.sent_at = SimTime::from_millis(sent_ms);
            assert_eq!(arena.push(&p, LinkId::from_raw(link)), PacketId(id));
            let mut sent = ev(PacketEventKind::Sent, sent_ms, id, flow, p.clone());
            sent.link = link;
            events.push(sent);
            match fate {
                Fate::Delivered(at_ms) => {
                    deliveries.push((PacketId(id), SimTime::from_millis(at_ms)));
                    events.push(ev(PacketEventKind::Delivered, at_ms, id, flow, p));
                }
                Fate::Dropped(at_ms) => {
                    events.push(ev(
                        PacketEventKind::Dropped(DropCause::Channel),
                        at_ms,
                        id,
                        flow,
                        p,
                    ));
                }
                Fate::InFlight => {}
            }
        }
        // `ev` re-stamps sent_at from the event time; keep the Delivered /
        // Dropped copies consistent with the Sent copy, as the engine does.
        let sent_at: Vec<SimTime> = (0..arena.len())
            .map(|i| arena.sent_at(PacketId(i as u64)))
            .collect();
        for e in &mut events {
            e.packet.sent_at = sent_at[e.packet.id.0 as usize];
        }
        (arena, deliveries, events)
    }

    #[test]
    fn arena_fold_matches_event_fold_bit_for_bit() {
        let (arena, deliveries, events) = mixed_fate_run();
        let mut scratch = CaptureScratch::new();
        for flow in [5u32, 9] {
            let meta = FlowMeta {
                provider: format!("p{flow}"),
                ..Default::default()
            };
            let from_arena =
                trace_from_arena_with(&mut scratch, &arena, &deliveries, flow, meta.clone(), &[]);
            let from_events = event_trace(&events, flow, meta);
            assert_eq!(from_arena, from_events, "flow {flow}");
            assert!(from_arena.is_some());
        }
        assert!(
            trace_from_arena_with(
                &mut scratch,
                &arena,
                &deliveries,
                77,
                FlowMeta::default(),
                &[]
            )
            .is_none(),
            "unknown flow folds to None, like the event path"
        );
    }

    #[test]
    fn arena_fold_skipping_a_link_matches_the_event_fold_without_its_sends() {
        let (arena, deliveries, events) = mixed_fate_run();
        let without_hop: Vec<PacketEvent> = events
            .iter()
            .filter(|e| !(e.kind == PacketEventKind::Sent && e.link == HOP))
            .cloned()
            .collect();
        assert_eq!(without_hop.len(), events.len() - 1);
        let mut scratch = CaptureScratch::new();
        for flow in [5u32, 9] {
            let skipped = trace_from_arena_with(
                &mut scratch,
                &arena,
                &deliveries,
                flow,
                FlowMeta::default(),
                &[LinkId::from_raw(HOP)],
            );
            assert_eq!(
                skipped,
                event_trace(&without_hop, flow, FlowMeta::default()),
                "flow {flow}"
            );
        }
        // The skip is what removes the hop: unskipped, flow 5 has one
        // record more.
        let mut count = |skip: &[LinkId]| {
            trace_from_arena_with(
                &mut scratch,
                &arena,
                &deliveries,
                5,
                FlowMeta::default(),
                skip,
            )
            .map(|t| t.records.len())
        };
        assert_eq!(count(&[]), Some(5));
        assert_eq!(count(&[LinkId::from_raw(HOP)]), Some(4));
    }

    #[test]
    fn arena_fold_reused_scratch_matches_fresh() {
        let (arena, deliveries, _) = mixed_fate_run();
        // Prime the slab with a larger arena, then refold the small one.
        let mut big = PacketArena::new();
        for i in 0..64u64 {
            let mut p = Packet::data(FlowId(5), SeqNo(i), false);
            p.id = PacketId(i);
            p.sent_at = SimTime::from_millis(i);
            big.push(&p, LinkId::from_raw(0));
        }
        let big_deliveries: Vec<_> = (0..64u64)
            .map(|i| (PacketId(i), SimTime::from_millis(i + 20)))
            .collect();
        let mut scratch = CaptureScratch::new();
        let fold = |scratch: &mut CaptureScratch, arena: &PacketArena, deliveries: &[_]| {
            trace_from_arena_with(scratch, arena, deliveries, 5, FlowMeta::default(), &[])
        };
        let _ = fold(&mut scratch, &big, &big_deliveries);
        let reused = fold(&mut scratch, &arena, &deliveries);
        let fresh = fold(&mut CaptureScratch::new(), &arena, &deliveries);
        assert_eq!(reused, fresh);
    }

    #[test]
    fn separates_flows() {
        let events = vec![
            ev(
                PacketEventKind::Sent,
                0,
                1,
                0,
                Packet::data(FlowId(0), SeqNo(0), false),
            ),
            ev(
                PacketEventKind::Sent,
                1,
                2,
                7,
                Packet::data(FlowId(7), SeqNo(0), false),
            ),
            ev(
                PacketEventKind::Delivered,
                30,
                2,
                7,
                Packet::data(FlowId(7), SeqNo(0), false),
            ),
        ];
        let traces = traces_from_events(&events, |f| FlowMeta {
            provider: format!("p{f}"),
            ..Default::default()
        });
        assert_eq!(traces.len(), 2);
        assert_eq!(traces[0].flow, 0);
        assert_eq!(traces[1].flow, 7);
        assert_eq!(traces[1].meta.provider, "p7");
        assert!(event_trace(&events, 9, FlowMeta::default()).is_none());
    }
}
