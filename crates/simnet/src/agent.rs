//! Agents: the active entities of a simulation.
//!
//! An [`Agent`] is anything that reacts to packets and timers — TCP
//! senders, receivers, channel processes. Agents are registered with the
//! [`Engine`](crate::engine::Engine) and interact with the world only
//! through the [`Ctx`] handed to their callbacks, which
//! keeps ownership simple and the simulation deterministic.

use crate::engine::Ctx;
use crate::packet::Packet;
use std::any::Any;

/// Identity of a registered agent.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(u32);

impl AgentId {
    /// Builds an id from a raw index. Only the engine should mint these;
    /// exposed for tests and wiring code.
    pub fn from_raw(raw: u32) -> AgentId {
        AgentId(raw)
    }

    /// Raw index.
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

/// An active simulation entity.
///
/// The `Any` supertrait allows the engine to hand back concrete agent types
/// after a run (see [`Engine::agent_mut`](crate::engine::Engine::agent_mut)),
/// which is how experiments extract final metrics.
pub trait Agent: Any {
    /// Called once when the simulation starts, before any event fires.
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let _ = ctx;
    }

    /// A packet addressed to this agent arrived.
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet);

    /// A timer previously scheduled by this agent fired.
    fn on_timer(&mut self, ctx: &mut Ctx<'_>, tag: u64) {
        let _ = (ctx, tag);
    }
}

/// An agent that drops every packet and ignores timers; useful as a sink
/// endpoint in link-level tests.
#[derive(Debug, Default)]
pub struct NullAgent {
    /// Number of packets that reached this sink.
    pub received: u64,
}

impl NullAgent {
    /// Creates a sink agent.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Agent for NullAgent {
    fn on_packet(&mut self, _ctx: &mut Ctx<'_>, _packet: Packet) {
        self.received += 1;
    }
}

/// An agent that forwards every packet onto another link — the building
/// block of multi-hop paths (server → internet → core → radio → phone).
#[derive(Debug)]
pub struct RelayAgent {
    /// The next hop. Set by wiring code (a placeholder is fine until the
    /// simulation starts).
    pub out: crate::link::LinkId,
    /// Packets forwarded.
    pub forwarded: u64,
}

impl RelayAgent {
    /// Creates a relay forwarding onto `out`.
    pub fn new(out: crate::link::LinkId) -> Self {
        RelayAgent { out, forwarded: 0 }
    }
}

impl Agent for RelayAgent {
    fn on_packet(&mut self, ctx: &mut Ctx<'_>, packet: Packet) {
        self.forwarded += 1;
        ctx.send(self.out, packet);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::packet::{FlowId, SeqNo};
    use crate::prelude::Engine;
    use crate::time::{SimDuration, SimTime};

    #[test]
    fn agent_id_round_trips() {
        let id = AgentId::from_raw(7);
        assert_eq!(id.as_usize(), 7);
        assert_eq!(id, AgentId::from_raw(7));
        assert!(AgentId::from_raw(1) < AgentId::from_raw(2));
    }

    #[test]
    fn relay_builds_a_two_hop_path() {
        // source --hop1--> relay --hop2--> sink: delivery time is the sum
        // of both hops' delays (plus transmission times).
        let mut eng = Engine::new(1);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let hop2 = eng.add_link(
            LinkSpec::new(sink, "hop2")
                .bandwidth_bps(12_000_000)
                .prop_delay(SimDuration::from_millis(20)),
        );
        let relay = eng.add_agent(Box::new(RelayAgent::new(hop2)));
        let hop1 = eng.add_link(
            LinkSpec::new(relay, "hop1")
                .bandwidth_bps(12_000_000)
                .prop_delay(SimDuration::from_millis(10)),
        );
        eng.inject(hop1, Packet::data(FlowId(0), SeqNo(0), false));
        eng.try_run_until(SimTime::MAX).unwrap();
        // 1 ms tx + 10 ms + 1 ms tx + 20 ms = 32 ms.
        assert_eq!(eng.now(), SimTime::from_millis(32));
        assert_eq!(eng.agent_mut::<RelayAgent>(relay).unwrap().forwarded, 1);
        assert_eq!(eng.agent_mut::<NullAgent>(sink).unwrap().received, 1);
    }
}
