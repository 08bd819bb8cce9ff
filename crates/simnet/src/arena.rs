//! Arena-backed struct-of-arrays packet storage.
//!
//! The engine stamps every sent packet into a [`PacketArena`]: one dense
//! column per field, indexed by [`PacketId`]. Ids are minted sequentially,
//! so a packet's id **is** its arena index — nothing is ever freed within
//! a run, and [`PacketArena::clear`] recycles the columns (capacity kept)
//! when the engine resets.
//!
//! Everything downstream of the stamp then moves a 16-byte handle instead
//! of the full packet: link queues and in-flight slots hold
//! [`QueuedPacket`](crate::link::QueuedPacket)s, and `Deliver` events carry
//! a bare [`PacketId`]. The event loop walks dense arrays; the full
//! [`Packet`] is materialized from the columns only at the edges (observer
//! callbacks and [`Agent::on_packet`](crate::agent::Agent::on_packet)),
//! and analyzers that want bulk access can read the columns directly.

use crate::link::LinkId;
use crate::packet::{FlowId, Packet, PacketId, PacketKind, SeqNo};
use crate::time::SimTime;

/// Column tag: a first-transmission data segment.
const KIND_DATA: u8 = 0;
/// Column tag: a retransmitted data segment.
const KIND_DATA_RETX: u8 = 1;
/// Column tag: a cumulative ACK.
const KIND_ACK: u8 = 2;

/// Struct-of-arrays store of every packet stamped by an engine run.
///
/// Indexed by [`PacketId`]; see the module docs for the layout rationale.
#[derive(Debug, Default)]
pub struct PacketArena {
    flow: Vec<u32>,
    kind: Vec<u8>,
    /// `seq` for data segments, `cum` for ACKs.
    word: Vec<u64>,
    /// `acked_count` for ACKs, 0 for data segments.
    count: Vec<u32>,
    size: Vec<u32>,
    sent_at: Vec<SimTime>,
    tag: Vec<u64>,
    /// The link each packet was sent on.
    link: Vec<LinkId>,
}

impl PacketArena {
    /// Creates an empty arena.
    pub fn new() -> PacketArena {
        PacketArena::default()
    }

    /// Number of packets stamped so far (equals the next packet id).
    pub fn len(&self) -> usize {
        self.flow.len()
    }

    /// True before the first packet is stamped.
    pub fn is_empty(&self) -> bool {
        self.flow.is_empty()
    }

    /// Forgets every packet while keeping the column allocations, so a
    /// recycled engine stamps its first packet without touching the
    /// allocator.
    pub fn clear(&mut self) {
        self.flow.clear();
        self.kind.clear();
        self.word.clear();
        self.count.clear();
        self.size.clear();
        self.sent_at.clear();
        self.tag.clear();
        self.link.clear();
    }

    /// Stores `packet`'s fields and its sending `link` in the next arena
    /// row and returns the id (== row index) it must travel under. The
    /// caller stamps `id` and `sent_at` on the packet before pushing;
    /// `packet.id` is not read.
    pub fn push(&mut self, packet: &Packet, link: LinkId) -> PacketId {
        let id = PacketId(self.flow.len() as u64);
        let (kind, word, count) = match packet.kind {
            PacketKind::Data { seq, retransmit } => (
                if retransmit {
                    KIND_DATA_RETX
                } else {
                    KIND_DATA
                },
                seq.0,
                0,
            ),
            PacketKind::Ack { cum, acked_count } => (KIND_ACK, cum.0, acked_count),
        };
        self.flow.push(packet.flow.0);
        self.kind.push(kind);
        self.word.push(word);
        self.count.push(count);
        self.size.push(packet.size_bytes);
        self.sent_at.push(packet.sent_at);
        self.tag.push(packet.tag);
        self.link.push(link);
        id
    }

    /// Materializes the full [`Packet`] stored under `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` was not minted by this arena since the last clear.
    pub fn get(&self, id: PacketId) -> Packet {
        let i = id.0 as usize;
        let kind = match self.kind[i] {
            KIND_ACK => PacketKind::Ack {
                cum: SeqNo(self.word[i]),
                acked_count: self.count[i],
            },
            retx => PacketKind::Data {
                seq: SeqNo(self.word[i]),
                retransmit: retx == KIND_DATA_RETX,
            },
        };
        Packet {
            id,
            flow: FlowId(self.flow[i]),
            kind,
            size_bytes: self.size[i],
            sent_at: self.sent_at[i],
            tag: self.tag[i],
        }
    }

    /// Send time of packet `id`.
    pub fn sent_at(&self, id: PacketId) -> SimTime {
        self.sent_at[id.0 as usize]
    }

    /// Dense per-packet flow column (index == packet id) for bulk readers.
    pub fn flows(&self) -> &[u32] {
        &self.flow
    }

    /// Dense per-packet size column (index == packet id) for bulk readers.
    pub fn sizes(&self) -> &[u32] {
        &self.size
    }

    /// Dense per-packet send-time column (index == packet id).
    pub fn sent_ats(&self) -> &[SimTime] {
        &self.sent_at
    }

    /// Dense per-packet sending-link column (index == packet id).
    pub fn links(&self) -> &[LinkId] {
        &self.link
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamped(mut p: Packet, id: u64, at_ms: u64) -> Packet {
        p.id = PacketId(id);
        p.sent_at = SimTime::from_millis(at_ms);
        p
    }

    #[test]
    fn ids_are_dense_row_indices() {
        let mut arena = PacketArena::new();
        for i in 0..10u64 {
            let p = stamped(Packet::data(FlowId(3), SeqNo(i), i % 2 == 1), i, i);
            assert_eq!(arena.push(&p, LinkId::from_raw(0)), PacketId(i));
        }
        assert_eq!(arena.len(), 10);
        assert!(!arena.is_empty());
    }

    #[test]
    fn round_trips_data_and_ack_packets() {
        let mut arena = PacketArena::new();
        let d = stamped(Packet::data(FlowId(1), SeqNo(41), true).with_tag(9), 0, 5);
        let a = stamped(Packet::ack(FlowId(2), SeqNo(7), 2), 1, 6);
        arena.push(&d, LinkId::from_raw(0));
        arena.push(&a, LinkId::from_raw(1));
        assert_eq!(arena.get(PacketId(0)), d);
        assert_eq!(arena.get(PacketId(1)), a);
        assert_eq!(arena.sent_at(PacketId(0)), SimTime::from_millis(5));
    }

    #[test]
    fn clear_recycles_rows_and_restarts_ids() {
        let mut arena = PacketArena::new();
        arena.push(
            &stamped(Packet::data(FlowId(0), SeqNo(0), false), 0, 0),
            LinkId::from_raw(0),
        );
        arena.clear();
        assert!(arena.is_empty());
        let p = stamped(Packet::ack(FlowId(5), SeqNo(3), 1), 0, 1);
        assert_eq!(arena.push(&p, LinkId::from_raw(2)), PacketId(0));
        assert_eq!(arena.links(), &[LinkId::from_raw(2)]);
        assert_eq!(arena.get(PacketId(0)), p);
    }

    #[test]
    fn bulk_columns_expose_the_same_rows() {
        let mut arena = PacketArena::new();
        arena.push(
            &stamped(Packet::data(FlowId(4), SeqNo(0), false), 0, 2),
            LinkId::from_raw(3),
        );
        arena.push(
            &stamped(Packet::ack(FlowId(6), SeqNo(1), 1), 1, 3),
            LinkId::from_raw(1),
        );
        assert_eq!(arena.flows(), &[4, 6]);
        assert_eq!(arena.sizes(), &[Packet::DATA_BYTES, Packet::ACK_BYTES]);
        assert_eq!(
            arena.sent_ats(),
            &[SimTime::from_millis(2), SimTime::from_millis(3)]
        );
        assert_eq!(arena.links(), &[LinkId::from_raw(3), LinkId::from_raw(1)]);
    }
}
