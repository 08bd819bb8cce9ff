//! Kernel benches: the hot paths under every experiment — the event
//! engine, a full TCP flow, the trace analyses and the analytic models.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::time::Duration;

/// Short measurement windows keep `cargo bench` tractable: the slow
/// benches here simulate seconds of TCP per iteration.
fn tune(c: &mut Criterion) -> criterion::BenchmarkGroup<'_, criterion::measurement::WallTime> {
    let mut g = c.benchmark_group("kernels");
    g.sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(2));
    g
}
use hsm_core::enhanced::EnhancedModel;
use hsm_core::padhye;
use hsm_core::params::ModelParams;
use hsm_scenario::runner::{try_run_scenario_with, Motion, ScenarioConfig, ScenarioOutcome};
use hsm_simnet::loss::{GilbertElliott, LossModel};
use hsm_simnet::prelude::*;
use hsm_tcp::connection::ConnectionScratch;
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::summary::analyze_flow;

fn bench_engine(c: &mut Criterion) {
    const PACKETS: u64 = 10_000;
    /// One link whose queue holds every injected packet, so all of them
    /// are transmitted and delivered: a `LinkReady` and a `Deliver` each.
    fn run_10k() -> u64 {
        let mut eng = Engine::new(1);
        let sink = eng.add_agent(Box::new(NullAgent::new()));
        let link = eng.add_link(LinkSpec::new(sink, "wire").queue_capacity(PACKETS as usize));
        for seq in 0..PACKETS {
            eng.inject(link, Packet::data(FlowId(0), SeqNo(seq), false));
        }
        eng.try_run_until(SimTime::MAX)
            .expect("engine invariants hold");
        eng.events_processed()
    }
    assert_eq!(run_10k(), 2 * PACKETS, "drop-tail must not shed the load");
    let mut c = tune(c);
    c.bench_function("engine/10k_packet_events", |b| {
        b.iter(|| black_box(run_10k()));
    });
}

fn bench_event_queue(c: &mut Criterion) {
    use hsm_simnet::event::{Event, EventKind, EventQueue};
    let mut c = tune(c);
    // Schedule/pop churn at a steady queue depth — the engine's future
    // event list under load. Times mix so same-time FIFO paths get hit.
    c.bench_function("queue/schedule_pop_64k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let dst = AgentId::from_raw(0);
            for i in 0..1024u64 {
                q.schedule(Event {
                    at: SimTime::from_micros(i % 97),
                    dst,
                    kind: EventKind::Timer { tag: i },
                });
            }
            let mut popped = 0u64;
            for i in 0..64 * 1024u64 {
                let (_, ev) = q.pop().expect("queue kept full");
                popped += 1;
                q.schedule(Event {
                    at: ev.at + SimDuration::from_micros(i % 89),
                    dst,
                    kind: EventKind::Timer { tag: i },
                });
            }
            black_box(popped)
        });
    });
    // Schedule + cancel: the retransmission-timer pattern (most timers
    // never fire).
    c.bench_function("queue/schedule_cancel_64k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            let dst = AgentId::from_raw(0);
            let mut cancelled = 0u64;
            for i in 0..64 * 1024u64 {
                let id = q.schedule(Event {
                    at: SimTime::from_micros(i),
                    dst,
                    kind: EventKind::Timer { tag: i },
                });
                if q.cancel(id) {
                    cancelled += 1;
                }
            }
            black_box(cancelled)
        });
    });
}

/// The queue traffic of one high-speed flow, in the mix measured on the
/// `hsr_cold` campaign: two links (data down, ACKs up), each a monotone
/// `LinkReady` stream ~300 µs apart and a monotone `Deliver` stream
/// ~27 ms ± 2 ms behind it; a delayed-ACK timer scheduled and cancelled on
/// every data segment; an RTO re-armed on every ACK. 26 packets
/// circulate, which holds the pending depth at ~27.
fn bench_hsr_flow_mix(c: &mut Criterion) {
    use hsm_simnet::event::{Event, EventId, EventKind, EventQueue};

    /// Pops per criterion iteration; the flow carries over between them.
    const OPS: u64 = 4096;
    const WINDOW: u64 = 26;

    struct FlowMix {
        q: EventQueue,
        now: u64,
        tx_free: [u64; 2],
        last_deliver: [u64; 2],
        rng: u64,
        rto: EventId,
    }

    fn event(at_us: u64, kind: EventKind) -> Event {
        Event {
            at: SimTime::from_micros(at_us),
            dst: AgentId::from_raw(0),
            kind,
        }
    }

    impl FlowMix {
        /// Sends one packet on `link`: it finishes transmitting 300 µs
        /// after the link frees up.
        fn transmit(&mut self, link: usize) {
            let done = self.tx_free[link].max(self.now) + 300;
            self.tx_free[link] = done;
            let link = LinkId::from_raw(link as u32);
            self.q.schedule(event(done, EventKind::LinkReady(link)));
        }

        fn step(&mut self) {
            let (_, e) = self.q.pop().expect("packets keep circulating");
            self.now = e.at.as_micros();
            match e.kind {
                EventKind::LinkReady(link) => {
                    self.rng ^= self.rng << 13;
                    self.rng ^= self.rng >> 7;
                    self.rng ^= self.rng << 17;
                    let l = link.as_usize();
                    let at = (self.now + 25_000 + self.rng % 4_000).max(self.last_deliver[l]);
                    self.last_deliver[l] = at;
                    let packet = PacketId(0);
                    self.q
                        .schedule(event(at, EventKind::Deliver { packet, link }));
                }
                EventKind::Deliver { link, .. } if link.as_usize() == 0 => {
                    let delack = event(self.now + 100_000, EventKind::Timer { tag: 1 });
                    let delack = self.q.schedule(delack);
                    self.q.cancel(delack);
                    self.transmit(1);
                }
                EventKind::Deliver { .. } | EventKind::Timer { .. } => {
                    self.q.cancel(self.rto);
                    let rto = event(self.now + 200_000, EventKind::Timer { tag: 0 });
                    self.rto = self.q.schedule(rto);
                    if matches!(e.kind, EventKind::Deliver { .. }) {
                        self.transmit(0);
                    }
                }
            }
        }
    }

    let mut g = tune(c);
    g.bench_function("queue/hsr_flow_mix", |b| {
        let mut q = EventQueue::new();
        let rto = q.schedule(event(200_000, EventKind::Timer { tag: 0 }));
        let mut flow = FlowMix {
            q,
            now: 0,
            tx_free: [0; 2],
            last_deliver: [0; 2],
            rng: 0x9E37_79B9_7F4A_7C15,
            rto,
        };
        for _ in 0..WINDOW {
            flow.transmit(0);
        }
        b.iter(|| {
            for _ in 0..OPS {
                flow.step();
            }
            black_box(flow.q.len())
        });
    });
}

/// Head-to-head timer churn: the production queue vs the retired
/// binary-heap oracle (`heap-reference` feature), driven through the same
/// deterministic schedule/cancel/pop mix at steady pending depths of
/// 1k/10k/100k. Each op is the engine's dominant timer pattern: schedule
/// an RTO ~40ms out, cancel it immediately, then pop the next event and
/// schedule its successor a mixed horizon away (sub-64 µs, near,
/// RTO-scale, far). All of it is timer traffic, so the production queue
/// runs on its heap alone; `queue/hsr_flow_mix` covers the lanes.
fn bench_queue_churn(c: &mut Criterion) {
    use hsm_simnet::event::{Event, EventKind, EventQueue};
    use hsm_simnet::event_heap::HeapEventQueue;

    /// Ops per criterion iteration; depth stays constant across them, so
    /// the queue carries steady state between iterations.
    const CHURN_OPS: u64 = 4096;

    /// xorshift64 timer-horizon mix.
    fn dt(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        let r = *state;
        match r % 4 {
            0 => r % 64,
            1 => r % 4_000,
            2 => 30_000 + r % 20_000,
            _ => 200_000 + r % 100_000,
        }
    }

    macro_rules! churn_bench {
        ($group:expr, $name:expr, $qty:ty, $depth:expr) => {
            $group.bench_function($name, |b| {
                let dst = AgentId::from_raw(0);
                let mut q = <$qty>::default();
                let mut rng = 0x9E37_79B9_7F4A_7C15u64;
                let mut now = 0u64;
                for tag in 0..$depth {
                    q.schedule(Event {
                        at: SimTime::from_micros(now + dt(&mut rng)),
                        dst,
                        kind: EventKind::Timer { tag },
                    });
                }
                b.iter(|| {
                    let mut fired = 0u64;
                    for tag in 0..CHURN_OPS {
                        let rto = q.schedule(Event {
                            at: SimTime::from_micros(now + 40_000),
                            dst,
                            kind: EventKind::Timer { tag },
                        });
                        q.cancel(rto);
                        let (_, ev) = q.pop().expect("steady-state churn never empties");
                        now = ev.at.as_micros();
                        q.schedule(Event {
                            at: SimTime::from_micros(now + dt(&mut rng)),
                            dst,
                            kind: EventKind::Timer { tag },
                        });
                        fired += 1;
                    }
                    black_box(fired)
                });
            });
        };
    }

    let mut g = tune(c);
    for depth in [1_000u64, 10_000, 100_000] {
        churn_bench!(
            g,
            &format!("queue_churn_lane_heap/{depth}"),
            EventQueue,
            depth
        );
        churn_bench!(
            g,
            &format!("queue_churn_heap/{depth}"),
            HeapEventQueue,
            depth
        );
    }
}

fn bench_link_offer(c: &mut Criterion) {
    use hsm_simnet::link::Link;
    let mut c = tune(c);
    // offer → complete_tx churn: the dense-handle hand-off on a saturated
    // link (one in flight, one queued).
    c.bench_function("link/offer_complete_64k", |b| {
        b.iter(|| {
            let mut link = Link::from_spec(
                LinkSpec::new(AgentId::from_raw(0), "wire")
                    .bandwidth_bps(12_000_000)
                    .queue_capacity(32),
            );
            let mut delivered = 0u64;
            for id in 0..64 * 1024u64 {
                link.offer(QueuedPacket {
                    id: PacketId(id),
                    size_bytes: 1500,
                });
                if let Some((_done, _next)) = link.try_complete_tx() {
                    delivered += 1;
                }
            }
            black_box(delivered)
        });
    });
}

fn flow(config: ScenarioConfig) -> ScenarioOutcome {
    try_run_scenario_with(
        &mut ConnectionScratch::new(),
        &config,
        &StormPlan::default(),
    )
    .expect("bench flow runs")
}

fn bench_tcp_flow(c: &mut Criterion) {
    let mut c = tune(c);
    c.bench_function("tcp/stationary_flow_10s", |b| {
        b.iter(|| {
            let out = flow(ScenarioConfig {
                motion: Motion::Stationary,
                duration: SimDuration::from_secs(10),
                seed: 7,
                ..Default::default()
            });
            black_box(out.summary().throughput_sps)
        });
    });
    c.bench_function("tcp/high_speed_flow_10s", |b| {
        b.iter(|| {
            let out = flow(ScenarioConfig {
                duration: SimDuration::from_secs(10),
                seed: 7,
                ..Default::default()
            });
            black_box(out.summary().timeouts)
        });
    });
}

fn bench_analysis(c: &mut Criterion) {
    let out = flow(ScenarioConfig {
        duration: SimDuration::from_secs(30),
        seed: 11,
        ..Default::default()
    });
    let trace = out.outcome.trace;
    let mut c = tune(c);
    c.bench_function("trace/analyze_flow_30s_trace", |b| {
        b.iter(|| black_box(analyze_flow(&trace, &TimeoutConfig::default())));
    });
}

fn bench_models(c: &mut Criterion) {
    let params = ModelParams::high_speed_example();
    let mut c = tune(c);
    c.bench_function("model/enhanced_eval", |b| {
        b.iter(|| black_box(EnhancedModel::as_published().throughput(&params).unwrap()));
    });
    c.bench_function("model/padhye_full_eval", |b| {
        b.iter(|| black_box(padhye::full(&params).unwrap()));
    });
}

fn bench_loss_models(c: &mut Criterion) {
    let mut c = tune(c);
    c.bench_function("loss/gilbert_elliott_100k", |b| {
        b.iter(|| {
            let mut ge = GilbertElliott::new(0.001, 0.5, 0.01, 0.2);
            let mut rng = SimRng::seed_from_u64(3);
            let mut lost = 0u32;
            for _ in 0..100_000 {
                if ge.is_lost(SimTime::ZERO, &mut rng) {
                    lost += 1;
                }
            }
            black_box(lost)
        });
    });
}

criterion_group!(
    benches,
    bench_engine,
    bench_event_queue,
    bench_hsr_flow_mix,
    bench_queue_churn,
    bench_link_offer,
    bench_tcp_flow,
    bench_analysis,
    bench_models,
    bench_loss_models
);
criterion_main!(benches);
