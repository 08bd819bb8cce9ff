//! Packet-event observation.
//!
//! Observers are the simulator's equivalent of running *wireshark on both
//! endpoints*: they see every packet enter a link, get destroyed by the
//! channel or queue, and get delivered. Trace capture needs only the
//! [`DeliveryLog`] (everything else lives in the packet arena); tests and
//! figure generators that want the raw stream use the bundled
//! [`VecRecorder`].
//!
//! # Dispatch fast path
//!
//! The engine stores observers in an [`ObserverSet`] — an enum with three
//! states (`None`, a single [`DeliveryLog`], or a mixed list). The two
//! configurations every simulated flow runs cost near zero per event:
//!
//! * **no observer** — one discriminant check, nothing else (the engine
//!   does not even resolve the link label);
//! * **single delivery log** — a discriminant check per `Sent`/`Dropped`
//!   event and a two-word push per delivery, with no virtual dispatch.
//!
//! Arbitrary boxed [`Observer`]s remain supported through
//! [`ObserverSet::Mixed`], which falls back to dynamic dispatch.

use crate::link::LinkId;
use crate::packet::{Packet, PacketId};
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Why a packet died.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DropCause {
    /// The channel's loss model destroyed it (wireless loss / outage).
    Channel,
    /// The link's drop-tail queue was full.
    QueueOverflow,
}

/// What happened to a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PacketEventKind {
    /// Entered a link (started transmission or was queued).
    Sent,
    /// Destroyed.
    Dropped(DropCause),
    /// Arrived at the link's destination agent.
    Delivered,
}

/// A recorded packet event.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PacketEvent {
    /// When it happened.
    pub time: SimTime,
    /// On which link.
    pub link: u32,
    /// Link label at the time of recording ("downlink", "uplink", …).
    /// Cloning an event bumps a refcount instead of copying the string.
    pub link_label: Arc<str>,
    /// What happened.
    pub kind: PacketEventKind,
    /// The packet (cloned at recording time).
    pub packet: Packet,
}

/// Receives packet events as the simulation runs.
pub trait Observer {
    /// A packet entered `link`.
    fn on_sent(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet);
    /// A packet was destroyed on `link`.
    fn on_dropped(
        &mut self,
        time: SimTime,
        link: LinkId,
        label: &str,
        packet: &Packet,
        cause: DropCause,
    );
    /// A packet exiting `link` was delivered to its destination.
    fn on_delivered(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet);
}

/// An observer that records every event into a shared `Vec`.
///
/// Cloning shares the underlying storage, so an experiment can keep a
/// handle while the engine owns the observer:
///
/// ```
/// use hsm_simnet::observer::VecRecorder;
///
/// let recorder = VecRecorder::new();
/// let handle = recorder.clone();
/// // engine.add_observer(Box::new(recorder));
/// // ... run ...
/// assert!(handle.events().is_empty());
/// ```
#[derive(Debug, Clone, Default)]
pub struct VecRecorder {
    events: Rc<RefCell<Vec<PacketEvent>>>,
}

impl VecRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshot of all events recorded so far (cloned).
    ///
    /// Prefer [`VecRecorder::take_events`] when the recorder is done: it
    /// drains the batch without copying it.
    pub fn events(&self) -> Vec<PacketEvent> {
        self.events.borrow().clone()
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.borrow().len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.borrow().is_empty()
    }

    /// Drains and returns all recorded events, leaving the recorder empty.
    pub fn take_events(&self) -> Vec<PacketEvent> {
        std::mem::take(&mut *self.events.borrow_mut())
    }

    fn push(&self, ev: PacketEvent) {
        self.events.borrow_mut().push(ev);
    }
}

impl Observer for VecRecorder {
    fn on_sent(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet) {
        self.push(PacketEvent {
            time,
            link: link.as_usize() as u32,
            link_label: label.into(),
            kind: PacketEventKind::Sent,
            packet: packet.clone(),
        });
    }

    fn on_dropped(
        &mut self,
        time: SimTime,
        link: LinkId,
        label: &str,
        packet: &Packet,
        cause: DropCause,
    ) {
        self.push(PacketEvent {
            time,
            link: link.as_usize() as u32,
            link_label: label.into(),
            kind: PacketEventKind::Dropped(cause),
            packet: packet.clone(),
        });
    }

    fn on_delivered(&mut self, time: SimTime, link: LinkId, label: &str, packet: &Packet) {
        self.push(PacketEvent {
            time,
            link: link.as_usize() as u32,
            link_label: label.into(),
            kind: PacketEventKind::Delivered,
            packet: packet.clone(),
        });
    }
}

/// The struct-of-arrays companion to [`VecRecorder`]: records only
/// *delivery* events, as compact `(packet id, time)` pairs.
///
/// Every other packet fact (flow, kind, size, send time) already lives in
/// the engine's [`PacketArena`](crate::arena::PacketArena) columns, so a
/// delivered-or-not slab plus the arena reconstructs the full capture —
/// the trace crate's arena fold does exactly that. Compared to recording
/// [`PacketEvent`]s this skips the per-event packet clone and label
/// refcount entirely, and `Sent`/`Dropped` events cost nothing at all.
///
/// Cloning shares the underlying storage, like [`VecRecorder`].
#[derive(Debug, Clone, Default)]
pub struct DeliveryLog {
    deliveries: Rc<RefCell<Vec<(PacketId, SimTime)>>>,
}

impl DeliveryLog {
    /// Creates an empty log.
    pub fn new() -> DeliveryLog {
        DeliveryLog::default()
    }

    /// Number of deliveries recorded.
    pub fn len(&self) -> usize {
        self.deliveries.borrow().len()
    }

    /// True when nothing was delivered yet.
    pub fn is_empty(&self) -> bool {
        self.deliveries.borrow().is_empty()
    }

    /// Forgets all recorded deliveries but keeps the buffer's capacity,
    /// so a log reused across simulation runs stops allocating once it
    /// has seen its largest run.
    pub fn clear(&self) {
        self.deliveries.borrow_mut().clear();
    }

    /// Runs `f` over a borrow of the recorded `(id, delivered-at)` pairs
    /// without copying or draining them.
    pub fn with_deliveries<R>(&self, f: impl FnOnce(&[(PacketId, SimTime)]) -> R) -> R {
        f(&self.deliveries.borrow())
    }

    /// Records one delivery.
    #[inline]
    pub fn record(&self, id: PacketId, time: SimTime) {
        self.deliveries.borrow_mut().push((id, time));
    }
}

/// One registered observer: either the delivery-log fast path or a boxed
/// trait object.
pub enum AnyObserver {
    /// A [`DeliveryLog`] — ignores everything but deliveries.
    Deliveries(DeliveryLog),
    /// Anything else, behind dynamic dispatch.
    Dyn(Box<dyn Observer>),
}

impl AnyObserver {
    #[inline]
    fn emit(
        &mut self,
        kind: PacketEventKind,
        time: SimTime,
        link: LinkId,
        label: &Arc<str>,
        packet: &Packet,
    ) {
        match self {
            AnyObserver::Deliveries(log) => {
                if kind == PacketEventKind::Delivered {
                    log.record(packet.id, time);
                }
            }
            AnyObserver::Dyn(obs) => match kind {
                PacketEventKind::Sent => obs.on_sent(time, link, label, packet),
                PacketEventKind::Dropped(cause) => obs.on_dropped(time, link, label, packet, cause),
                PacketEventKind::Delivered => obs.on_delivered(time, link, label, packet),
            },
        }
    }
}

/// The engine's observer registry (see the module docs for the dispatch
/// strategy).
#[derive(Default)]
pub enum ObserverSet {
    /// No observer registered: events are not materialized at all.
    #[default]
    None,
    /// Exactly one [`DeliveryLog`]: only `Delivered` events are stored,
    /// as two words each; `Sent`/`Dropped` cost a discriminant check.
    Deliveries(DeliveryLog),
    /// General case: any number of observers, dispatched in
    /// registration order.
    Mixed(Vec<AnyObserver>),
}

impl ObserverSet {
    /// True when no observer is registered (lets the engine skip label
    /// resolution and borrow juggling entirely).
    #[inline]
    pub fn is_none(&self) -> bool {
        matches!(self, ObserverSet::None)
    }

    /// Registers another observer, upgrading the set's shape as needed.
    pub fn push(&mut self, obs: AnyObserver) {
        match std::mem::take(self) {
            ObserverSet::None => {
                *self = match obs {
                    AnyObserver::Deliveries(log) => ObserverSet::Deliveries(log),
                    other => ObserverSet::Mixed(vec![other]),
                }
            }
            ObserverSet::Deliveries(log) => {
                *self = ObserverSet::Mixed(vec![AnyObserver::Deliveries(log), obs]);
            }
            ObserverSet::Mixed(mut list) => {
                list.push(obs);
                *self = ObserverSet::Mixed(list);
            }
        }
    }

    /// Emits one packet event to every registered observer.
    #[inline]
    pub fn emit(
        &mut self,
        kind: PacketEventKind,
        time: SimTime,
        link: LinkId,
        label: &Arc<str>,
        packet: &Packet,
    ) {
        match self {
            ObserverSet::None => {}
            ObserverSet::Deliveries(log) => {
                if kind == PacketEventKind::Delivered {
                    log.record(packet.id, time);
                }
            }
            ObserverSet::Mixed(list) => {
                for obs in list {
                    obs.emit(kind, time, link, label, packet);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, SeqNo};

    #[test]
    fn recorder_shares_storage_across_clones() {
        let rec = VecRecorder::new();
        let mut sink = rec.clone();
        let p = Packet::data(FlowId(0), SeqNo(1), false);
        sink.on_sent(SimTime::from_millis(1), LinkId::from_raw(0), "dl", &p);
        sink.on_dropped(
            SimTime::from_millis(2),
            LinkId::from_raw(0),
            "dl",
            &p,
            DropCause::Channel,
        );
        assert_eq!(rec.len(), 2);
        let evs = rec.events();
        assert_eq!(evs[0].kind, PacketEventKind::Sent);
        assert_eq!(evs[1].kind, PacketEventKind::Dropped(DropCause::Channel));
        assert_eq!(&*evs[1].link_label, "dl");
    }

    #[test]
    fn take_events_empties() {
        let rec = VecRecorder::new();
        let mut sink = rec.clone();
        let p = Packet::ack(FlowId(0), SeqNo(1), 1);
        sink.on_delivered(SimTime::ZERO, LinkId::from_raw(1), "ul", &p);
        let evs = rec.take_events();
        assert_eq!(evs.len(), 1);
        assert!(rec.is_empty());
    }

    #[test]
    fn delivery_log_stores_only_deliveries() {
        let mut set = ObserverSet::default();
        let log = DeliveryLog::new();
        set.push(AnyObserver::Deliveries(log.clone()));
        assert!(matches!(set, ObserverSet::Deliveries(_)));

        let label: Arc<str> = "wire".into();
        let mut p = Packet::data(FlowId(3), SeqNo(0), false);
        p.id = PacketId(42);
        set.emit(
            PacketEventKind::Sent,
            SimTime::ZERO,
            LinkId::from_raw(0),
            &label,
            &p,
        );
        assert!(log.is_empty(), "Sent events must not be stored");
        set.emit(
            PacketEventKind::Dropped(DropCause::Channel),
            SimTime::from_millis(1),
            LinkId::from_raw(0),
            &label,
            &p,
        );
        assert!(log.is_empty(), "Dropped events must not be stored");
        set.emit(
            PacketEventKind::Delivered,
            SimTime::from_millis(2),
            LinkId::from_raw(0),
            &label,
            &p,
        );
        assert_eq!(log.len(), 1);
        log.with_deliveries(|d| {
            assert_eq!(d, &[(PacketId(42), SimTime::from_millis(2))]);
        });
        log.clear();
        assert!(log.is_empty());

        // Pushing a second observer upgrades the set to Mixed; the log
        // keeps receiving deliveries through the list path.
        let rec = VecRecorder::new();
        set.push(AnyObserver::Dyn(Box::new(rec.clone())));
        assert!(matches!(set, ObserverSet::Mixed(_)));
        set.emit(
            PacketEventKind::Delivered,
            SimTime::from_millis(3),
            LinkId::from_raw(0),
            &label,
            &p,
        );
        assert_eq!(log.len(), 1);
        assert_eq!(rec.len(), 1);
    }

    #[test]
    fn observer_set_upgrades_shape_and_dispatches() {
        let mut set = ObserverSet::default();
        assert!(set.is_none());
        let a = VecRecorder::new();
        set.push(AnyObserver::Dyn(Box::new(a.clone())));
        assert!(matches!(set, ObserverSet::Mixed(_)));
        let b = VecRecorder::new();
        set.push(AnyObserver::Dyn(Box::new(b.clone())));
        assert!(matches!(set, ObserverSet::Mixed(_)));

        let label: Arc<str> = "wire".into();
        let p = Packet::data(FlowId(0), SeqNo(0), false);
        set.emit(
            PacketEventKind::Sent,
            SimTime::ZERO,
            LinkId::from_raw(0),
            &label,
            &p,
        );
        assert_eq!(a.len(), 1, "first dyn observer sees the event");
        assert_eq!(b.len(), 1, "dyn observer sees the event");
        assert_eq!(&*b.events()[0].link_label, "wire");
    }
}
