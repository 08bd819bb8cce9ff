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
//!
//! Every runner builds its world in a caller-held [`ConnectionScratch`]
//! with the same wiring as
//! [`try_run_connection_with`](crate::connection::try_run_connection_with)
//! and captures each subflow through the same arena fold.

use crate::connection::{
    connect, ConnectionConfig, ConnectionOutcome, ConnectionScratch, MobilityScenario, PathSpec,
};
use crate::demux::Demux;
use crate::metrics::{ReceiverMetrics, SenderMetrics};
use crate::receiver::Receiver;
use crate::reno::RenoSender;
use hsm_simnet::agent::AgentId;
use hsm_simnet::cellular::ChannelStats;
use hsm_simnet::error::SimError;
use hsm_simnet::link::{LinkId, LinkSpec};
use hsm_simnet::prelude::Engine;
use hsm_simnet::time::SimDuration;
use hsm_trace::record::FlowTrace;

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

    /// Harvests a finished two-subflow run: one capture per subflow that
    /// sent anything (leaving out rows sent on `skip_links`), plus the
    /// endpoint and channel metrics in registration order.
    fn harvest(
        scratch: &mut ConnectionScratch,
        cfg: &ConnectionConfig,
        endpoints: &[(AgentId, AgentId); 2],
        channels: &[AgentId],
        skip_links: &[LinkId],
    ) -> MptcpOutcome {
        MptcpOutcome {
            subflows: (0..2)
                .filter_map(|i| scratch.trace(cfg.flow + i, cfg, skip_links))
                .collect(),
            senders: endpoints
                .iter()
                .map(|&(tx, _)| scratch.sender(tx))
                .collect(),
            receivers: endpoints
                .iter()
                .map(|&(_, rx)| scratch.receiver(rx))
                .collect(),
            channels: channels.iter().map(|&c| scratch.channel(c)).collect(),
        }
    }
}

/// Wires subflow sender `tx` and receiver `rx` to their links. One sender
/// stopping must not truncate its sibling subflow, so neither halts the
/// engine on stop.
fn connect_subflow(eng: &mut Engine, tx: AgentId, rx: AgentId, down: LinkId, up: LinkId) {
    connect(eng, tx, rx, down, up);
    eng.agent_mut::<RenoSender>(tx)
        .expect("sender")
        .halt_engine_on_stop = false;
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
    scratch: &mut ConnectionScratch,
    seed: u64,
    paths: [&PathSpec; 2],
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<MptcpOutcome, SimError> {
    let eng = scratch.start(seed);
    let mut channels = Vec::new();
    let endpoints: [(AgentId, AgentId); 2] = std::array::from_fn(|i| {
        let flow = cfg.flow + i as u32;
        let tx = cfg.add_sender(eng, flow);
        let rx = cfg.add_receiver(eng, flow);
        let (down, up) = paths[i].add_links(eng, rx, tx, &format!(".sub{i}"));
        connect_subflow(eng, tx, rx, down, up);
        channels.extend(mobility.map(|m| m.attach(eng, down, up)));
        (tx, rx)
    });
    eng.try_run_until(cfg.deadline)?;
    Ok(MptcpOutcome::harvest(
        scratch,
        cfg,
        &endpoints,
        &channels,
        &[],
    ))
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
    scratch: &mut ConnectionScratch,
    seed: u64,
    primary: &PathSpec,
    backup: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<ConnectionOutcome, SimError> {
    let eng = scratch.start(seed);
    let tx = cfg.add_sender(eng, cfg.flow);
    let rx = cfg.add_receiver(eng, cfg.flow);
    let (down, up) = primary.add_links(eng, rx, tx, ".primary");
    let (backup_down, backup_up) = backup.add_links(eng, rx, tx, ".backup");
    connect(eng, tx, rx, down, up);
    eng.agent_mut::<RenoSender>(tx).expect("sender").backup_link = Some(backup_down);
    // Recovery-phase ACKs are mirrored over the backup carrier: the
    // redundant exchange must survive whenever *either* path works.
    eng.agent_mut::<Receiver>(rx)
        .expect("receiver")
        .backup_uplink = Some(backup_up);
    // Mobility impairs only the primary path; the backup is assumed to be
    // a different carrier, modelled by its own PathSpec losses.
    let channel = mobility.map(|m| m.attach(eng, down, up));
    eng.try_run_until(cfg.deadline)?;
    Ok(scratch.outcome(cfg, tx, rx, channel))
}

/// Runs two subflows through **one shared radio** (the single-handset
/// reality of the paper's measurements): both senders transmit over the
/// same downlink and both receivers acknowledge over the same uplink, with
/// [`Demux`] agents fanning packets out to their flow's endpoint over
/// zero-delay `internal.*` links (left out of the captured traces).
///
/// Against a disjoint-path duplex run, this isolates how much of the
/// MPTCP gain comes from *extra capacity* versus from *filling the dead
/// time* a single flow spends in timeout recovery.
///
/// # Errors
///
/// Returns the [`SimError`] reported by [`Engine::try_run_until`].
pub fn run_mptcp_shared_radio(
    scratch: &mut ConnectionScratch,
    seed: u64,
    path: &PathSpec,
    mobility: Option<&MobilityScenario>,
    cfg: &ConnectionConfig,
) -> Result<MptcpOutcome, SimError> {
    let eng = scratch.start(seed);
    let flows = [cfg.flow, cfg.flow + 1];
    let txs = flows.map(|f| cfg.add_sender(eng, f));
    let rxs = flows.map(|f| cfg.add_receiver(eng, f));
    let demux_down = eng.add_agent(Box::new(Demux::new()));
    let demux_up = eng.add_agent(Box::new(Demux::new()));
    let (down, up) = path.add_links(eng, demux_down, demux_up, "");
    let internal = |eng: &mut Engine, to, tag: String| {
        eng.add_link(
            LinkSpec::new(to, tag)
                .bandwidth_bps(u64::MAX / 1024)
                .prop_delay(SimDuration::from_micros(1))
                .queue_capacity(4_096),
        )
    };
    let mut internal_links = Vec::with_capacity(4);
    for (i, (&tx, &rx)) in txs.iter().zip(&rxs).enumerate() {
        let to_rx = internal(eng, rx, format!("internal.rx{i}"));
        let to_tx = internal(eng, tx, format!("internal.tx{i}"));
        internal_links.extend([to_rx, to_tx]);
        eng.agent_mut::<Demux>(demux_down)
            .expect("demux")
            .add_route(flows[i], to_rx);
        eng.agent_mut::<Demux>(demux_up)
            .expect("demux")
            .add_route(flows[i], to_tx);
        connect_subflow(eng, tx, rx, down, up);
    }
    let channel = mobility.map(|m| m.attach(eng, down, up));
    eng.try_run_until(cfg.deadline)?;
    let endpoints = [(txs[0], rxs[0]), (txs[1], rxs[1])];
    Ok(MptcpOutcome::harvest(
        scratch,
        cfg,
        &endpoints,
        channel.as_slice(),
        &internal_links,
    ))
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
        let out =
            run_mptcp_duplex(&mut ConnectionScratch::new(), 5, [&p1, &p2], None, &cfg).unwrap();
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
        let duplex =
            run_mptcp_duplex(&mut ConnectionScratch::new(), 9, [&p, &p], None, &cfg).unwrap();
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
        let out =
            run_mptcp_shared_radio(&mut ConnectionScratch::new(), 3, &path, None, &cfg).unwrap();
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
        let shared =
            run_mptcp_shared_radio(&mut ConnectionScratch::new(), 4, &path, None, &cfg).unwrap();
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
        let with =
            run_with_backup_path(&mut ConnectionScratch::new(), 11, &bad, &clean, None, &cfg)
                .unwrap();
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
