//! Connection wiring: build an engine, a sender/receiver pair, the
//! two-directional cellular path, an optional mobility channel process —
//! run it — and hand back the dual-endpoint [`FlowTrace`] plus internal
//! metrics.
//!
//! This module is the equivalent of the paper's measurement rig: a phone
//! on the train talking to a dedicated server, with wireshark running on
//! both ends.

use crate::metrics::{ReceiverMetrics, SenderMetrics};
use crate::receiver::{Receiver, ReceiverConfig};
use crate::reno::{RenoSender, SenderConfig};
use hsm_simnet::agent::AgentId;
use hsm_simnet::cellular::{CellLayout, ChannelProcess, ChannelStats, HandoffParams};
use hsm_simnet::chaos::{StormInjector, StormPlan};
use hsm_simnet::error::SimError;
use hsm_simnet::event::QueueStats;
use hsm_simnet::link::{LinkId, LinkSpec};
use hsm_simnet::loss::{Bernoulli, ChannelLoss, GilbertElliott};
use hsm_simnet::mobility::Trajectory;
use hsm_simnet::observer::DeliveryLog;
use hsm_simnet::packet::FlowId;
use hsm_simnet::prelude::Engine;
use hsm_simnet::time::{SimDuration, SimTime};
use hsm_trace::capture::{trace_from_arena_with, CaptureScratch};
use hsm_trace::record::{FlowMeta, FlowTrace};
use serde::{Deserialize, Serialize};

/// Declarative loss-model description (buildable, serializable).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LossSpec {
    /// No channel loss.
    Lossless,
    /// Independent loss with the given probability.
    Bernoulli(f64),
    /// Two-state bursty loss.
    GilbertElliott {
        /// Loss probability in the good state.
        p_good: f64,
        /// Loss probability in the bad state.
        p_bad: f64,
        /// Good→bad transition probability per packet.
        g2b: f64,
        /// Bad→good transition probability per packet.
        b2g: f64,
    },
    /// Strictly periodic outage windows (scripted impairments for
    /// behavioural studies).
    PeriodicOutage {
        /// Window period, seconds.
        period_s: f64,
        /// Outage length within each period, seconds.
        outage_s: f64,
        /// Phase offset, seconds.
        offset_s: f64,
        /// Loss probability during the outage.
        loss: f64,
    },
}

impl LossSpec {
    /// Instantiates the channel-loss state.
    pub fn build(&self) -> ChannelLoss {
        match *self {
            LossSpec::Lossless => ChannelLoss::lossless(),
            LossSpec::Bernoulli(p) => ChannelLoss::new(Box::new(Bernoulli::new(p))),
            LossSpec::GilbertElliott {
                p_good,
                p_bad,
                g2b,
                b2g,
            } => ChannelLoss::new(Box::new(GilbertElliott::new(p_good, p_bad, g2b, b2g))),
            LossSpec::PeriodicOutage {
                period_s,
                outage_s,
                offset_s,
                loss,
            } => ChannelLoss::new(Box::new(hsm_simnet::loss_ext::PeriodicOutage::new(
                SimDuration::from_secs_f64(period_s),
                SimDuration::from_secs_f64(outage_s),
                SimDuration::from_secs_f64(offset_s),
                loss,
            ))),
        }
    }

    /// Long-run average loss rate of the spec.
    pub fn steady_state(&self) -> f64 {
        self.build().base_steady_state().unwrap_or(0.0)
    }
}

/// Description of the two-directional server↔phone path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PathSpec {
    /// Downlink (server→phone) bandwidth, bits/s.
    pub down_bandwidth_bps: u64,
    /// Uplink (phone→server) bandwidth, bits/s.
    pub up_bandwidth_bps: u64,
    /// Downlink one-way delay.
    pub down_delay: SimDuration,
    /// Uplink one-way delay.
    pub up_delay: SimDuration,
    /// Per-packet delay jitter (standard deviation) on both directions.
    pub jitter_sd: SimDuration,
    /// Queue capacity in packets on both directions.
    pub queue_capacity: usize,
    /// Downlink channel loss (affects data packets).
    pub down_loss: LossSpec,
    /// Uplink channel loss (affects ACKs).
    pub up_loss: LossSpec,
}

impl Default for PathSpec {
    /// A healthy LTE-ish path: RTT ≈ 55 ms, moderate bandwidth, lossless.
    fn default() -> Self {
        PathSpec {
            down_bandwidth_bps: 40_000_000,
            up_bandwidth_bps: 15_000_000,
            down_delay: SimDuration::from_millis(27),
            up_delay: SimDuration::from_millis(27),
            jitter_sd: SimDuration::from_millis(2),
            queue_capacity: 128,
            down_loss: LossSpec::Lossless,
            up_loss: LossSpec::Lossless,
        }
    }
}

impl PathSpec {
    /// Registers the path's two links: the downlink into `down_to`
    /// labelled `downlink{suffix}`, then the uplink into `up_to` labelled
    /// `uplink{suffix}`.
    pub(crate) fn add_links(
        &self,
        eng: &mut Engine,
        down_to: AgentId,
        up_to: AgentId,
        suffix: &str,
    ) -> (LinkId, LinkId) {
        let down = eng.add_link(
            LinkSpec::new(down_to, format!("downlink{suffix}"))
                .bandwidth_bps(self.down_bandwidth_bps)
                .prop_delay(self.down_delay)
                .jitter_sd(self.jitter_sd)
                .queue_capacity(self.queue_capacity)
                .loss(self.down_loss.build()),
        );
        let up = eng.add_link(
            LinkSpec::new(up_to, format!("uplink{suffix}"))
                .bandwidth_bps(self.up_bandwidth_bps)
                .prop_delay(self.up_delay)
                .jitter_sd(self.jitter_sd)
                .queue_capacity(self.queue_capacity)
                .loss(self.up_loss.build()),
        );
        (down, up)
    }
}

/// The mobility side of a scenario: train trajectory, cell layout and
/// handoff footprint, driven by a [`ChannelProcess`].
#[derive(Debug, Clone, PartialEq)]
pub struct MobilityScenario {
    /// Train trajectory along the line.
    pub trajectory: Trajectory,
    /// Base-station layout (and coverage holes).
    pub layout: CellLayout,
    /// Transport-layer handoff footprint.
    pub handoff: HandoffParams,
}

impl MobilityScenario {
    /// Registers the [`ChannelProcess`] that drives this scenario's
    /// handoffs and outages on one path.
    pub(crate) fn attach(&self, eng: &mut Engine, down: LinkId, up: LinkId) -> AgentId {
        eng.add_agent(Box::new(ChannelProcess::new(
            down,
            up,
            self.trajectory,
            self.layout.clone(),
            self.handoff,
        )))
    }
}

/// Everything needed to run one flow.
#[derive(Debug, Clone, PartialEq)]
pub struct ConnectionConfig {
    /// Flow id used in packets and the resulting trace.
    pub flow: u32,
    /// Sender tunables.
    pub sender: SenderConfig,
    /// Receiver tunables.
    pub receiver: ReceiverConfig,
    /// Provider label recorded in the trace meta.
    pub provider: String,
    /// Scenario label recorded in the trace meta.
    pub scenario: String,
    /// MSS recorded in the trace meta.
    pub mss_bytes: u32,
    /// Hard wall-clock (simulated) limit for the run.
    pub deadline: SimTime,
    /// Chaos-storm schedule replayed against the uplink: the rig for
    /// studying ACK-delay and ACK-burst impairments (paper §V) with the
    /// full trace/analysis pipeline attached. The empty default adds no
    /// injector agent, so the built world is bit-identical to a storm-free
    /// one. Only [`try_run_connection_with`] applies it.
    pub storm: StormPlan,
}

impl ConnectionConfig {
    /// The trace meta every flow run under this config records.
    fn meta(&self) -> FlowMeta {
        FlowMeta {
            provider: self.provider.clone(),
            scenario: self.scenario.clone(),
            w_m: self.sender.w_m,
            b: self.receiver.b,
            mss_bytes: self.mss_bytes,
        }
    }

    /// Registers a sender for `flow`; its data link is wired by
    /// [`connect`] once the links exist.
    pub(crate) fn add_sender(&self, eng: &mut Engine, flow: u32) -> AgentId {
        let placeholder = LinkId::from_raw(u32::MAX);
        eng.add_agent(Box::new(RenoSender::new(
            FlowId(flow),
            placeholder,
            self.sender,
        )))
    }

    /// Registers a receiver for `flow`; its uplink is wired by
    /// [`connect`] once the links exist.
    pub(crate) fn add_receiver(&self, eng: &mut Engine, flow: u32) -> AgentId {
        let placeholder = LinkId::from_raw(u32::MAX);
        eng.add_agent(Box::new(Receiver::new(
            FlowId(flow),
            placeholder,
            self.receiver,
        )))
    }
}

/// Points sender `tx` at data link `down` and receiver `rx` at `up`.
pub(crate) fn connect(eng: &mut Engine, tx: AgentId, rx: AgentId, down: LinkId, up: LinkId) {
    eng.agent_mut::<RenoSender>(tx).expect("sender").data_link = down;
    eng.agent_mut::<Receiver>(rx).expect("receiver").uplink = up;
}

impl Default for ConnectionConfig {
    fn default() -> Self {
        ConnectionConfig {
            flow: 0,
            sender: SenderConfig::default(),
            receiver: ReceiverConfig::default(),
            provider: String::from("synthetic"),
            scenario: String::from("unlabelled"),
            mss_bytes: 1460,
            deadline: SimTime::from_secs(3_600),
            storm: StormPlan::default(),
        }
    }
}

/// Results of a connection run.
#[derive(Debug, Clone)]
pub struct ConnectionOutcome {
    /// The dual-endpoint packet trace.
    pub trace: FlowTrace,
    /// Sender-internal ground truth.
    pub sender: SenderMetrics,
    /// Receiver-internal ground truth.
    pub receiver: ReceiverMetrics,
    /// Handoff statistics when a mobility scenario was attached.
    pub channel: Option<ChannelStats>,
    /// Simulated time at the end of the run.
    pub finished_at: SimTime,
    /// Discrete events the simulator processed for this run (campaign
    /// telemetry).
    pub events_processed: u64,
    /// Event-queue telemetry for this run: schedule/cancel volume and
    /// live depth, surfaced into the simnet bench baseline.
    pub queue: QueueStats,
}

/// Reusable per-worker state for running many flows through one engine.
///
/// Every buffer that a connection run grows — the simulator's event-queue
/// slab, link queue buffers, the delivery log, the capture slab — lives
/// here and is recycled between runs, so a worker that holds one
/// `ConnectionScratch` across a campaign stops allocating once it has seen
/// its largest flow. Results are bit-identical to fresh-engine runs
/// (`Engine::reset` re-derives every random stream from the new seed).
/// Every TCP runner — [`try_run_connection_with`] and the
/// [`mptcp`](crate::mptcp) runners — builds its world in a scratch.
///
/// The capture uses the struct-of-arrays path: the engine's packet arena
/// already stores every sent packet column-wise, so the only observer is a
/// compact [`DeliveryLog`] ((id, time) per arrival) and the trace is folded
/// straight from `arena + log` by [`trace_from_arena_with`].
#[derive(Debug)]
pub struct ConnectionScratch {
    engine: Engine,
    deliveries: DeliveryLog,
    capture: CaptureScratch,
}

impl Default for ConnectionScratch {
    fn default() -> Self {
        ConnectionScratch {
            // The seed is irrelevant: every run resets with its own seed.
            engine: Engine::new(0),
            deliveries: DeliveryLog::new(),
            capture: CaptureScratch::new(),
        }
    }
}

impl ConnectionScratch {
    /// Creates an empty scratch.
    pub fn new() -> ConnectionScratch {
        ConnectionScratch::default()
    }

    /// Deliberately dirties every component of the scratch — stale agents
    /// and links registered on the engine, a *partially executed* junk
    /// simulation (advanced clock, pending events, packets in flight,
    /// consumed random streams), junk deliveries in the shared log, and a
    /// used capture slab.
    ///
    /// This is the `hsm-chaos` scratch-poisoning fault: a subsequent
    /// [`try_run_connection_with`] through the poisoned scratch must
    /// produce a bit-identical result to a fresh run, because the
    /// per-run reset is specified to clear *all* of this state.
    pub fn poison(&mut self) {
        use hsm_simnet::agent::NullAgent;
        use hsm_simnet::packet::{Packet, SeqNo};

        let eng = &mut self.engine;
        eng.reset(0xBAD_5EED);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let junk = eng.add_link(LinkSpec::new(sink, "chaos-poison"));
        // Capture the junk traffic into the shared log so it holds stale
        // deliveries too.
        eng.add_delivery_log(self.deliveries.clone());
        for seq in 0..17u64 {
            eng.inject(junk, Packet::data(FlowId(u32::MAX), SeqNo(seq), false));
        }
        // Run only partway: packets stay queued/in flight and the clock
        // stops mid-simulation — the most adversarial state to hand the
        // next reset.
        let _ = eng.try_run_until(SimTime::ZERO + SimDuration::from_micros(10));
        // Dirty the capture slab by folding the junk run through it.
        let _ = self.trace(u32::MAX, &ConnectionConfig::default(), &[]);
    }

    /// Resets the engine under `seed` and registers the delivery log: the
    /// first step of every run built in this scratch.
    pub(crate) fn start(&mut self, seed: u64) -> &mut Engine {
        self.engine.reset(seed);
        self.deliveries.clear();
        self.engine.add_delivery_log(self.deliveries.clone());
        &mut self.engine
    }

    /// Folds the finished run's capture of `flow`, leaving out rows sent
    /// on `skip_links`; `None` if the flow sent nothing.
    pub(crate) fn trace(
        &mut self,
        flow: u32,
        cfg: &ConnectionConfig,
        skip_links: &[LinkId],
    ) -> Option<FlowTrace> {
        let capture = &mut self.capture;
        let arena = self.engine.arena();
        self.deliveries.with_deliveries(|deliveries| {
            trace_from_arena_with(capture, arena, deliveries, flow, cfg.meta(), skip_links)
        })
    }

    /// Sender-internal ground truth of agent `tx`.
    pub(crate) fn sender(&mut self, tx: AgentId) -> SenderMetrics {
        let sender = self.engine.agent_mut::<RenoSender>(tx).expect("sender");
        sender.metrics.clone()
    }

    /// Receiver-internal ground truth of agent `rx`.
    pub(crate) fn receiver(&mut self, rx: AgentId) -> ReceiverMetrics {
        self.engine
            .agent_mut::<Receiver>(rx)
            .expect("receiver")
            .metrics
    }

    /// Handoff statistics of channel-process agent `id`.
    pub(crate) fn channel(&mut self, id: AgentId) -> ChannelStats {
        let channel = self
            .engine
            .agent_mut::<ChannelProcess>(id)
            .expect("channel");
        channel.stats
    }

    /// Harvests a finished single-flow run: the capture of `cfg.flow`
    /// plus the endpoint, channel and engine telemetry.
    pub(crate) fn outcome(
        &mut self,
        cfg: &ConnectionConfig,
        tx: AgentId,
        rx: AgentId,
        channel: Option<AgentId>,
    ) -> ConnectionOutcome {
        let trace = self
            .trace(cfg.flow, cfg, &[])
            .unwrap_or_else(|| FlowTrace::new(cfg.flow, cfg.meta()));
        ConnectionOutcome {
            trace,
            sender: self.sender(tx),
            receiver: self.receiver(rx),
            channel: channel.map(|id| self.channel(id)),
            finished_at: self.engine.now(),
            events_processed: self.engine.events_processed(),
            queue: self.engine.queue_stats(),
        }
    }
}

/// Builds, runs and harvests a single TCP flow through a caller-held
/// [`ConnectionScratch`] — the allocation-recycling path campaign workers
/// use to run thousands of flows per engine.
///
/// The run ends when the sender finishes (`stop_after`/`max_segments`),
/// the event queue drains, or `cfg.deadline` passes — whichever comes
/// first.
///
/// # Errors
///
/// Returns the [`SimError`] reported by [`Engine::try_run_until`]:
/// engine bookkeeping corruption fails this one flow instead of the
/// process.
pub fn try_run_connection_with(
    scratch: &mut ConnectionScratch,
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<ConnectionOutcome, SimError> {
    let eng = scratch.start(seed);
    let tx = cfg.add_sender(eng, cfg.flow);
    let rx = cfg.add_receiver(eng, cfg.flow);
    let (down, up) = path.add_links(eng, rx, tx, "");
    connect(eng, tx, rx, down, up);
    let channel = mobility.map(|m| m.attach(eng, down, up));
    // The storm rides the uplink: delayed/lost ACK bursts are the §V
    // impairment under study. An empty plan adds no agent, so calm runs
    // build exactly the storm-free world.
    if !cfg.storm.episodes.is_empty() {
        eng.add_agent(Box::new(StormInjector::new(up, cfg.storm.clone())));
    }
    eng.try_run_until(cfg.deadline)?;
    Ok(scratch.outcome(cfg, tx, rx, channel))
}

#[cfg(test)]
mod tests {
    use super::*;
    use hsm_trace::prelude::*;

    fn run(
        seed: u64,
        path: &PathSpec,
        mobility: Option<&MobilityScenario>,
        cfg: &ConnectionConfig,
    ) -> ConnectionOutcome {
        try_run_connection_with(&mut ConnectionScratch::new(), seed, path, mobility, cfg)
            .expect("engine invariants hold")
    }

    #[test]
    fn lossless_run_produces_clean_trace() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                max_segments: Some(300),
                ..Default::default()
            },
            ..Default::default()
        };
        let out = run(1, &PathSpec::default(), None, &cfg);
        assert_eq!(out.sender.retransmissions, 0);
        assert_eq!(out.receiver.next_expected, 300);
        let a = analyze_flow(&out.trace, &TimeoutConfig::default());
        assert_eq!(a.summary.p_d, 0.0);
        assert_eq!(a.summary.timeouts, 0);
        assert!(a.summary.throughput_sps > 0.0);
        // RTT estimate close to configured 54 ms + tx times.
        assert!(
            (a.summary.rtt_s - 0.055).abs() < 0.02,
            "rtt {}",
            a.summary.rtt_s
        );
    }

    #[test]
    fn lossy_run_trace_matches_internal_ground_truth() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(60)),
                ..Default::default()
            },
            ..Default::default()
        };
        let path = PathSpec {
            down_loss: LossSpec::GilbertElliott {
                p_good: 0.002,
                p_bad: 0.7,
                g2b: 0.003,
                b2g: 0.08,
            },
            up_loss: LossSpec::Bernoulli(0.004),
            ..Default::default()
        };
        let out = run(7, &path, None, &cfg);
        let a = analyze_flow(&out.trace, &TimeoutConfig::default());
        // The trace-derived loss rate must match the sender's view.
        assert!(a.summary.p_d > 0.0);
        // Trace-inferred timeouts should be close to ground truth.
        let truth = out.sender.timeouts.len() as f64;
        let inferred = f64::from(a.summary.timeouts);
        assert!(
            (inferred - truth).abs() <= truth.max(4.0) * 0.5,
            "inferred {inferred} vs truth {truth}"
        );
    }

    #[test]
    fn mobility_scenario_attaches_channel_stats() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(120)),
                ..Default::default()
            },
            scenario: "high-speed".into(),
            ..Default::default()
        };
        let mob = MobilityScenario {
            trajectory: Trajectory::new(12.0, 300.0, 2.0),
            layout: CellLayout::rail_corridor(1_000.0, 0.02),
            handoff: HandoffParams::lte_rail(),
        };
        let out = run(21, &PathSpec::default(), Some(&mob), &cfg);
        let stats = out.channel.expect("channel stats");
        assert!(stats.handoffs >= 3, "handoffs {}", stats.handoffs);
        assert_eq!(out.trace.meta.scenario, "high-speed");
    }

    #[test]
    fn reused_scratch_reproduces_fresh_runs_bit_for_bit() {
        let cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(20)),
                ..Default::default()
            },
            ..Default::default()
        };
        let path = PathSpec {
            down_loss: LossSpec::Bernoulli(0.01),
            up_loss: LossSpec::Bernoulli(0.004),
            ..Default::default()
        };
        let mut scratch = ConnectionScratch::new();
        for seed in [3u64, 11, 3] {
            let reused = try_run_connection_with(&mut scratch, seed, &path, None, &cfg)
                .expect("scratch run succeeds");
            let fresh = run(seed, &path, None, &cfg);
            assert_eq!(reused.trace, fresh.trace, "seed {seed}");
            assert_eq!(reused.sender.retransmissions, fresh.sender.retransmissions);
            assert_eq!(reused.receiver, fresh.receiver);
            assert_eq!(reused.finished_at, fresh.finished_at);
            assert_eq!(reused.events_processed, fresh.events_processed);
        }
    }

    #[test]
    fn deadline_bounds_the_run() {
        let cfg = ConnectionConfig {
            deadline: SimTime::from_secs(5),
            ..Default::default() // endless sender
        };
        let out = run(3, &PathSpec::default(), None, &cfg);
        assert!(out.finished_at <= SimTime::from_secs(5));
        assert!(!out.trace.records.is_empty());
    }

    #[test]
    fn storm_runs_are_deterministic_and_empty_plans_are_identity() {
        use hsm_simnet::chaos::{StormEpisode, StormKind};

        let calm_cfg = ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(10)),
                ..Default::default()
            },
            ..Default::default()
        };
        let cfg = ConnectionConfig {
            storm: StormPlan {
                episodes: vec![StormEpisode {
                    at: SimTime::from_millis(500),
                    duration: SimDuration::from_millis(900),
                    kind: StormKind::Flap(SimDuration::from_millis(900)),
                }],
            },
            ..calm_cfg.clone()
        };
        let path = PathSpec::default();
        let mut scratch = ConnectionScratch::new();
        let stormy = try_run_connection_with(&mut scratch, 9, &path, None, &cfg)
            .expect("storm run succeeds");
        let replay = try_run_connection_with(&mut scratch, 9, &path, None, &cfg)
            .expect("storm replay succeeds");
        assert_eq!(stormy.trace, replay.trace, "storm runs must replay");

        // The delay flap must actually bite: timeouts appear that the
        // storm-free run does not have.
        let calm =
            try_run_connection_with(&mut scratch, 9, &path, None, &calm_cfg).expect("calm run");
        assert!(
            stormy.sender.timeouts.len() > calm.sender.timeouts.len(),
            "storm {} vs calm {} timeouts",
            stormy.sender.timeouts.len(),
            calm.sender.timeouts.len()
        );

        // The empty default plan adds no injector agent: a fresh-scratch
        // calm run is bit-identical to the one after the storm runs.
        let fresh = run(9, &path, None, &calm_cfg);
        assert_eq!(fresh.trace, calm.trace);
        assert_eq!(fresh.events_processed, calm.events_processed);
    }

    #[test]
    fn loss_spec_steady_state() {
        assert_eq!(LossSpec::Lossless.steady_state(), 0.0);
        assert!((LossSpec::Bernoulli(0.25).steady_state() - 0.25).abs() < 1e-12);
        let ge = LossSpec::GilbertElliott {
            p_good: 0.0,
            p_bad: 1.0,
            g2b: 0.1,
            b2g: 0.3,
        };
        assert!((ge.steady_state() - 0.25).abs() < 1e-12);
    }
}
