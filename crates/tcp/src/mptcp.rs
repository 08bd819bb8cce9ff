//! Multi-path TCP (paper §V-B).
//!
//! Two facilities, mirroring exactly how the paper evaluates MPTCP:
//!
//! * **Duplex mode** ([`run_mptcp_duplex`]) — the paper approximates MPTCP
//!   throughput by running *two independent TCP flows over disjoint paths
//!   and summing their throughput* ("the total throughput getting by these
//!   two flows can also be regarded as MPTCP throughput", §V-B). We do the
//!   same: two sender/receiver pairs in one engine, independent channel
//!   processes, aggregate throughput reported.
//!
//! * **Backup mode** — redundant timeout retransmission over a second
//!   path, which reduces the retransmission loss rate from `q` to about
//!   `q·q₂`; this is the `backup_link` option of
//!   [`RenoSender`] type, exercised by
//!   [`run_with_backup_path`].

use crate::connection::{ConnectionConfig, MobilityScenario, PathSpec};
use crate::demux::Demux;
use crate::metrics::{ReceiverMetrics, SenderMetrics};
use crate::receiver::Receiver;
use crate::reno::RenoSender;
use hsm_simnet::cellular::{ChannelProcess, ChannelStats};
use hsm_simnet::error::SimError;
use hsm_simnet::link::{LinkId, LinkSpec};
use hsm_simnet::observer::VecRecorder;
use hsm_simnet::packet::FlowId;
use hsm_simnet::prelude::Engine;
use hsm_simnet::time::SimDuration;
use hsm_trace::capture::{traces_from_events, traces_from_events_filtered};
use hsm_trace::record::{FlowMeta, FlowTrace};

/// Outcome of a duplex-mode MPTCP run: one trace per subflow.
#[derive(Debug, Clone)]
pub struct MptcpOutcome {
    /// Per-subflow traces (flow ids `base_flow` and `base_flow + 1`).
    pub subflows: Vec<FlowTrace>,
    /// Per-subflow sender metrics.
    pub senders: Vec<SenderMetrics>,
    /// Per-subflow receiver metrics.
    pub receivers: Vec<ReceiverMetrics>,
    /// Per-path channel statistics when mobility was attached.
    pub channels: Vec<ChannelStats>,
}

impl MptcpOutcome {
    /// Aggregate delivered segments per second across subflows, over the
    /// longest subflow duration (the paper's MPTCP throughput proxy).
    pub fn aggregate_throughput_sps(&self) -> f64 {
        let duration = self
            .subflows
            .iter()
            .map(|t| t.duration().as_secs_f64())
            .fold(0.0_f64, f64::max);
        if duration <= 0.0 {
            return 0.0;
        }
        let delivered: u64 = self
            .subflows
            .iter()
            .map(|t| t.data().filter(|r| r.arrived_at.is_some()).count() as u64)
            .sum();
        delivered as f64 / duration
    }
}

fn build_path(
    eng: &mut Engine,
    path: &PathSpec,
    rx: hsm_simnet::agent::AgentId,
    tx: hsm_simnet::agent::AgentId,
    tag: &str,
) -> (LinkId, LinkId) {
    let down = eng.add_link(
        LinkSpec::new(rx, format!("downlink.{tag}"))
            .bandwidth_bps(path.down_bandwidth_bps)
            .prop_delay(path.down_delay)
            .jitter_sd(path.jitter_sd)
            .queue_capacity(path.queue_capacity)
            .loss(path.down_loss.build()),
    );
    let up = eng.add_link(
        LinkSpec::new(tx, format!("uplink.{tag}"))
            .bandwidth_bps(path.up_bandwidth_bps)
            .prop_delay(path.up_delay)
            .jitter_sd(path.jitter_sd)
            .queue_capacity(path.queue_capacity)
            .loss(path.up_loss.build()),
    );
    (down, up)
}

/// Runs two independent subflows over two disjoint paths and reports the
/// aggregate (duplex-mode MPTCP, evaluated as the paper does in Fig. 12).
///
/// Each subflow uses `cfg` with flow ids `cfg.flow` and `cfg.flow + 1`.
/// When `mobility` is provided, each path gets its *own* channel process
/// (independent handoff randomness — disjoint carriers).
///
/// # Errors
///
/// Returns the [`SimError`] reported by [`Engine::try_run_until`].
pub fn run_mptcp_duplex(
    seed: u64,
    paths: [&PathSpec; 2],
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<MptcpOutcome, SimError> {
    let mut eng = Engine::new(seed);
    let placeholder = LinkId::from_raw(u32::MAX);
    let mut txs = Vec::new();
    let mut rxs = Vec::new();
    let mut chans = Vec::new();
    for (i, path) in paths.iter().enumerate() {
        let flow = FlowId(cfg.flow + i as u32);
        let tx = eng.add_agent(Box::new(RenoSender::new(flow, placeholder, cfg.sender)));
        let rx = eng.add_agent(Box::new(Receiver::new(flow, placeholder, cfg.receiver)));
        let (down, up) = build_path(&mut eng, path, rx, tx, &format!("sub{i}"));
        {
            let sender = eng.agent_mut::<RenoSender>(tx).expect("sender");
            sender.data_link = down;
            // One sender stopping must not truncate its sibling subflow.
            sender.halt_engine_on_stop = false;
        }
        eng.agent_mut::<Receiver>(rx).expect("receiver").uplink = up;
        if let Some(m) = mobility {
            chans.push(eng.add_agent(Box::new(ChannelProcess::new(
                down,
                up,
                m.trajectory,
                m.layout.clone(),
                m.handoff,
            ))));
        }
        txs.push(tx);
        rxs.push(rx);
    }
    let recorder = VecRecorder::new();
    eng.add_recorder(recorder.clone());
    eng.try_run_until(cfg.deadline)?;

    let base_meta = FlowMeta {
        provider: cfg.provider.clone(),
        scenario: cfg.scenario.clone(),
        w_m: cfg.sender.w_m,
        b: cfg.receiver.b,
        mss_bytes: cfg.mss_bytes,
    };
    let subflows = traces_from_events(&recorder.take_events(), |_| base_meta.clone());
    let senders = txs
        .iter()
        .map(|&t| {
            eng.agent_mut::<RenoSender>(t)
                .expect("sender")
                .metrics
                .clone()
        })
        .collect();
    let receivers = rxs
        .iter()
        .map(|&r| eng.agent_mut::<Receiver>(r).expect("receiver").metrics)
        .collect();
    let channels = chans
        .iter()
        .map(|&c| eng.agent_mut::<ChannelProcess>(c).expect("channel").stats)
        .collect();
    Ok(MptcpOutcome {
        subflows,
        senders,
        receivers,
        channels,
    })
}

/// Runs a single flow whose timeout retransmissions are duplicated over a
/// second (backup) downlink — MPTCP backup mode's recovery behaviour.
///
/// Returns the flow trace (which includes the redundant copies) and the
/// endpoint metrics.
///
/// # Errors
///
/// Returns the [`SimError`] reported by [`Engine::try_run_until`].
pub fn run_with_backup_path(
    seed: u64,
    primary: &PathSpec,
    backup: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<crate::connection::ConnectionOutcome, SimError> {
    let mut eng = Engine::new(seed);
    let placeholder = LinkId::from_raw(u32::MAX);
    let flow = FlowId(cfg.flow);
    let tx = eng.add_agent(Box::new(RenoSender::new(flow, placeholder, cfg.sender)));
    let rx = eng.add_agent(Box::new(Receiver::new(flow, placeholder, cfg.receiver)));
    let (down, up) = build_path(&mut eng, primary, rx, tx, "primary");
    let (backup_down, backup_up) = build_path(&mut eng, backup, rx, tx, "backup");
    {
        let sender = eng.agent_mut::<RenoSender>(tx).expect("sender");
        sender.data_link = down;
        sender.backup_link = Some(backup_down);
    }
    {
        let receiver = eng.agent_mut::<Receiver>(rx).expect("receiver");
        receiver.uplink = up;
        // Recovery-phase ACKs are mirrored over the backup carrier: the
        // redundant exchange must survive whenever *either* path works.
        receiver.backup_uplink = Some(backup_up);
    }
    // Mobility impairs only the primary path; the backup is assumed to be
    // a different carrier, modelled by its own PathSpec losses.
    let chan = mobility.map(|m| {
        eng.add_agent(Box::new(ChannelProcess::new(
            down,
            up,
            m.trajectory,
            m.layout.clone(),
            m.handoff,
        )))
    });
    let recorder = VecRecorder::new();
    eng.add_recorder(recorder.clone());
    eng.try_run_until(cfg.deadline)?;

    let meta = FlowMeta {
        provider: cfg.provider.clone(),
        scenario: cfg.scenario.clone(),
        w_m: cfg.sender.w_m,
        b: cfg.receiver.b,
        mss_bytes: cfg.mss_bytes,
    };
    let trace =
        hsm_trace::capture::single_flow_trace(&recorder.take_events(), cfg.flow, meta.clone())
            .unwrap_or_else(|| FlowTrace::new(cfg.flow, meta));
    Ok(crate::connection::ConnectionOutcome {
        trace,
        sender: eng
            .agent_mut::<RenoSender>(tx)
            .expect("sender")
            .metrics
            .clone(),
        receiver: eng.agent_mut::<Receiver>(rx).expect("receiver").metrics,
        channel: chan.map(|c| eng.agent_mut::<ChannelProcess>(c).expect("channel").stats),
        finished_at: eng.now(),
        events_processed: eng.events_processed(),
        queue: eng.queue_stats(),
    })
}

/// Runs two subflows through **one shared radio** (the single-handset
/// reality of the paper's measurements): both senders transmit over the
/// same downlink and both receivers acknowledge over the same uplink, with
/// [`Demux`] agents fanning packets out to their flow's endpoint over
/// zero-delay `internal.*` links (excluded from the captured traces).
///
/// Against a disjoint-path duplex run, this isolates how much of the
/// MPTCP gain comes from *extra capacity* versus from *filling the dead
/// time* a single flow spends in timeout recovery.
///
/// # Errors
///
/// Returns the [`SimError`] reported by [`Engine::try_run_until`].
pub fn run_mptcp_shared_radio(
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<MptcpOutcome, SimError> {
    let mut eng = Engine::new(seed);
    let placeholder = LinkId::from_raw(u32::MAX);
    let flows = [cfg.flow, cfg.flow + 1];
    let txs: Vec<_> = flows
        .iter()
        .map(|&f| {
            eng.add_agent(Box::new(RenoSender::new(
                FlowId(f),
                placeholder,
                cfg.sender,
            )))
        })
        .collect();
    let rxs: Vec<_> = flows
        .iter()
        .map(|&f| {
            eng.add_agent(Box::new(Receiver::new(
                FlowId(f),
                placeholder,
                cfg.receiver,
            )))
        })
        .collect();
    let demux_down = eng.add_agent(Box::new(Demux::new()));
    let demux_up = eng.add_agent(Box::new(Demux::new()));
    let (down, up) = {
        let down = eng.add_link(
            LinkSpec::new(demux_down, "downlink")
                .bandwidth_bps(path.down_bandwidth_bps)
                .prop_delay(path.down_delay)
                .jitter_sd(path.jitter_sd)
                .queue_capacity(path.queue_capacity)
                .loss(path.down_loss.build()),
        );
        let up = eng.add_link(
            LinkSpec::new(demux_up, "uplink")
                .bandwidth_bps(path.up_bandwidth_bps)
                .prop_delay(path.up_delay)
                .jitter_sd(path.jitter_sd)
                .queue_capacity(path.queue_capacity)
                .loss(path.up_loss.build()),
        );
        (down, up)
    };
    let internal = |eng: &mut Engine, to, tag: String| {
        eng.add_link(
            LinkSpec::new(to, tag)
                .bandwidth_bps(u64::MAX / 1024)
                .prop_delay(SimDuration::from_micros(1))
                .queue_capacity(4_096),
        )
    };
    for (i, (&tx, &rx)) in txs.iter().zip(&rxs).enumerate() {
        let to_rx = internal(&mut eng, rx, format!("internal.rx{i}"));
        let to_tx = internal(&mut eng, tx, format!("internal.tx{i}"));
        eng.agent_mut::<Demux>(demux_down)
            .expect("demux")
            .add_route(flows[i], to_rx);
        eng.agent_mut::<Demux>(demux_up)
            .expect("demux")
            .add_route(flows[i], to_tx);
        {
            let sender = eng.agent_mut::<RenoSender>(tx).expect("sender");
            sender.data_link = down;
            sender.halt_engine_on_stop = false;
        }
        eng.agent_mut::<Receiver>(rx).expect("receiver").uplink = up;
    }
    let chan = mobility.map(|m| {
        eng.add_agent(Box::new(ChannelProcess::new(
            down,
            up,
            m.trajectory,
            m.layout.clone(),
            m.handoff,
        )))
    });
    let recorder = VecRecorder::new();
    eng.add_recorder(recorder.clone());
    eng.try_run_until(cfg.deadline)?;

    let base_meta = FlowMeta {
        provider: cfg.provider.clone(),
        scenario: cfg.scenario.clone(),
        w_m: cfg.sender.w_m,
        b: cfg.receiver.b,
        mss_bytes: cfg.mss_bytes,
    };
    let subflows = traces_from_events_filtered(
        &recorder.take_events(),
        |_| base_meta.clone(),
        Some("internal"),
    );
    Ok(MptcpOutcome {
        subflows,
        senders: txs
            .iter()
            .map(|&t| {
                eng.agent_mut::<RenoSender>(t)
                    .expect("sender")
                    .metrics
                    .clone()
            })
            .collect(),
        receivers: rxs
            .iter()
            .map(|&r| eng.agent_mut::<Receiver>(r).expect("receiver").metrics)
            .collect(),
        channels: chan
            .map(|c| vec![eng.agent_mut::<ChannelProcess>(c).expect("channel").stats])
            .unwrap_or_default(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::connection::{try_run_connection_with, ConnectionScratch, LossSpec};
    use crate::reno::SenderConfig;
    use hsm_simnet::time::SimTime;

    fn lossy_path() -> PathSpec {
        PathSpec {
            down_loss: LossSpec::GilbertElliott {
                p_good: 0.003,
                p_bad: 0.8,
                g2b: 0.004,
                b2g: 0.05,
            },
            up_loss: LossSpec::GilbertElliott {
                p_good: 0.003,
                p_bad: 0.8,
                g2b: 0.004,
                b2g: 0.05,
            },
            ..Default::default()
        }
    }

    fn timed_cfg(secs: u64) -> ConnectionConfig {
        ConnectionConfig {
            sender: SenderConfig {
                stop_after: Some(SimDuration::from_secs(secs)),
                ..Default::default()
            },
            deadline: SimTime::from_secs(secs),
            ..Default::default()
        }
    }

    #[test]
    fn duplex_runs_two_subflows() {
        let cfg = timed_cfg(30);
        let p1 = lossy_path();
        let p2 = PathSpec::default();
        let out = run_mptcp_duplex(5, [&p1, &p2], None, &cfg).unwrap();
        assert_eq!(out.subflows.len(), 2);
        assert_eq!(out.senders.len(), 2);
        assert!(out.aggregate_throughput_sps() > 0.0);
        // Subflow flow ids are consecutive.
        assert_eq!(out.subflows[0].flow, 0);
        assert_eq!(out.subflows[1].flow, 1);
    }

    #[test]
    fn duplex_beats_single_flow_on_bad_paths() {
        let cfg = timed_cfg(60);
        let p = lossy_path();
        let single =
            try_run_connection_with(&mut ConnectionScratch::new(), 9, &p, None, &cfg).unwrap();
        let single_tp = {
            let a = hsm_trace::summary::analyze_flow(&single.trace, &Default::default());
            a.summary.throughput_sps
        };
        let duplex = run_mptcp_duplex(9, [&p, &p], None, &cfg).unwrap();
        let agg = duplex.aggregate_throughput_sps();
        assert!(
            agg > single_tp,
            "MPTCP aggregate {agg} should beat single-flow {single_tp}"
        );
    }

    #[test]
    fn shared_radio_runs_both_subflows_through_one_pipe() {
        let cfg = timed_cfg(30);
        let path = PathSpec::default();
        let out = run_mptcp_shared_radio(3, &path, None, &cfg).unwrap();
        assert_eq!(out.subflows.len(), 2);
        for (i, t) in out.subflows.iter().enumerate() {
            assert!(
                t.data().count() > 50,
                "subflow {i} starved: {} data records",
                t.data().count()
            );
            // No internal-hop pollution: every record crossed the shared
            // radio (latency >= the configured propagation delay).
            for r in t.records.iter().take(200) {
                if let Some(lat) = r.latency() {
                    assert!(
                        lat >= SimDuration::from_millis(20),
                        "internal hop leaked: {r:?}"
                    );
                }
            }
        }
        // Two flows share one pipe: aggregate within the link capacity
        // (~40 Mb/s / 1500 B ≈ 3300 seg/s).
        assert!(out.aggregate_throughput_sps() < 3_500.0);
    }

    #[test]
    fn shared_radio_aggregate_close_to_single_flow_when_pipe_bound() {
        // When the radio (not W_m) is the bottleneck, two flows split the
        // same capacity: the aggregate cannot approach 2x a single flow.
        let cfg = timed_cfg(30);
        let path = PathSpec {
            down_bandwidth_bps: 6_000_000, // ~500 seg/s, well under W_m/RTT
            ..Default::default()
        };
        let single =
            try_run_connection_with(&mut ConnectionScratch::new(), 4, &path, None, &cfg).unwrap();
        let single_tp = hsm_trace::summary::analyze_flow(&single.trace, &Default::default())
            .summary
            .throughput_sps;
        let shared = run_mptcp_shared_radio(4, &path, None, &cfg).unwrap();
        let agg = shared.aggregate_throughput_sps();
        assert!(
            agg < single_tp * 1.5,
            "shared radio cannot double capacity: {agg} vs single {single_tp}"
        );
        assert!(
            agg > single_tp * 0.7,
            "sharing should not collapse: {agg} vs {single_tp}"
        );
    }

    #[test]
    fn backup_path_reduces_recovery_losses() {
        // Primary path with brutal bursty loss; clean backup. With
        // redundant retransmission the flow should deliver more unique
        // segments than without.
        let cfg = timed_cfg(60);
        let bad = lossy_path();
        let clean = PathSpec::default();
        let without =
            try_run_connection_with(&mut ConnectionScratch::new(), 11, &bad, None, &cfg).unwrap();
        let with = run_with_backup_path(11, &bad, &clean, None, &cfg).unwrap();
        assert!(
            with.receiver.next_expected >= without.receiver.next_expected,
            "backup {} vs plain {}",
            with.receiver.next_expected,
            without.receiver.next_expected
        );
        // The redundant copies show up as extra sends in the trace.
        assert!(with.sender.segments_sent > with.sender.max_seq_sent);
    }
}
