//! The measurement loops. Untraced passes run the campaign through
//! `Campaign::run_with_cache`, the path `repro run --spec` takes, and give
//! the end-to-end metrics. Traced passes drive the same per-flow sequence
//! by calling each layer's public function inside a span, and give the
//! per-layer ledger.

use crate::check::{Checker, Counters, Fingerprint, Pin};
use crate::spans::{self_times, Layer, LayerTime, Span, Tracer};
use crate::stats::{ratio, Stats};
use crate::workload::{set_up, Size, Workload};
use hsm_core::estimate::EstimateConfig;
use hsm_core::eval::evaluate_flow;
use hsm_runtime::cache::{CacheConfig, CacheKey, CacheStats, FlowCache};
use hsm_runtime::engine::{Campaign, CampaignOutput};
use hsm_tcp::connection::{try_run_connection_with, ConnectionOutcome, ConnectionScratch};
use hsm_trace::analysis::timeout::TimeoutConfig;
use hsm_trace::record::PacketRecord;
use hsm_trace::summary::{analyze_flow, FlowSummary};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups of a cold workload timed before the first pass and again
/// before every timed pass (cheap: spec and build only), so that the
/// set-up sample spans the run as the pass samples do.
const COLD_SETUPS_PER_PASS: usize = 5;
/// Set-ups per untraced run of `warm_replay` (each fills a disk tier).
const WARM_SETUPS: usize = 3;
/// Spans kept for the span file; passes beyond it are still traced and
/// counted, but their spans are dropped once their self times are taken.
const KEPT_SPANS: usize = 50_000;

/// What one benchmark run does.
#[derive(Debug, Clone)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Workload seed.
    pub seed: u64,
    /// How long the timed passes run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of untraced (end to end).
    pub trace: bool,
    /// Campaign size.
    pub size: Size,
    /// Directory for disk tiers while the run goes.
    pub work_dir: PathBuf,
}

/// A reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The sample, in measurement order.
    pub values: Vec<f64>,
    /// Its summary; the median is the reported value.
    pub stats: Stats,
}

/// Everything a run measured and checked.
#[derive(Debug)]
pub struct RunReport {
    /// Correctness tally.
    pub checker: Checker,
    /// The metrics, in report order.
    pub metrics: Vec<Metric>,
    /// Result digest of the reference campaign.
    pub digest: Option<u64>,
    /// Exact counters of the reference campaign.
    pub counters: Option<Counters>,
    /// Expansion digest of the seeded spec.
    pub spec_digest: u64,
    /// Per-layer calls and self time summed over the timed traced
    /// passes (traced runs only).
    pub layers: BTreeMap<Layer, LayerTime>,
    /// The recorded spans, one recording per traced pass (traced runs
    /// only; capped at [`KEPT_SPANS`]).
    pub recordings: Vec<Vec<Span>>,
}

/// A disk tier directory, removed when dropped.
struct Tier {
    dir: PathBuf,
}

impl Tier {
    fn fresh(parent: &Path, n: usize) -> Result<Tier, String> {
        let dir = parent.join(format!("tier-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Tier { dir })
    }

    fn cache(&self) -> FlowCache {
        FlowCache::new(CacheConfig::with_disk(&self.dir))
    }

    fn bytes(&self) -> u64 {
        std::fs::read_dir(&self.dir)
            .map(|entries| {
                entries
                    .flatten()
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0)
    }
}

impl Drop for Tier {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Numbers the disk tiers of one run.
struct Tiers<'a> {
    parent: &'a Path,
    next: usize,
}

impl Tiers<'_> {
    fn fresh(&mut self) -> Result<Tier, String> {
        self.next += 1;
        Tier::fresh(self.parent, self.next)
    }
}

/// The fourth pipeline stage: fit both §IV models to every summary.
fn evaluate_models<'a>(summaries: impl Iterator<Item = &'a FlowSummary>) {
    let est = EstimateConfig::default();
    for summary in summaries {
        black_box(evaluate_flow(black_box(summary), &est));
    }
}

/// One untraced pass: the campaign engine plus model evaluation.
struct Untraced {
    out: CampaignOutput,
    wall_s: f64,
}

fn untraced_pass(campaign: &Campaign, cache: &FlowCache) -> Result<Untraced, String> {
    let t = Instant::now();
    let out = campaign.run_with_cache(cache).map_err(|e| e.to_string())?;
    evaluate_models(out.summaries());
    Ok(Untraced {
        wall_s: t.elapsed().as_secs_f64(),
        out,
    })
}

/// Counters of an untraced pass that simulated its flows.
fn engine_counters(out: &CampaignOutput, disk_bytes: u64) -> Counters {
    Counters {
        flows: out.runs.len() as u64,
        events: out.report.events_processed,
        schedules: out.report.queue.schedules,
        cancels: out.report.queue.cancels,
        timeouts: out.summaries().map(|s| u64::from(s.timeouts)).sum(),
        spurious_timeouts: out
            .summaries()
            .map(|s| u64::from(s.spurious_timeouts))
            .sum(),
        disk_bytes,
        ..Counters::default()
    }
}

/// Simulation-side totals of a traced pass, read off each
/// `ConnectionOutcome`.
#[derive(Debug, Clone, Copy, Default)]
struct SimTotals {
    simulated: u64,
    events: u64,
    schedules: u64,
    cancels: u64,
    max_depth: usize,
    depth_sum: u64,
    records: u64,
    handoffs: u64,
    failed_handoffs: u64,
    segments: u64,
    retransmissions: u64,
    sender_timeouts: u64,
    frto_probes: u64,
    spurious_undone: u64,
}

impl SimTotals {
    fn add(&mut self, o: &ConnectionOutcome) {
        self.simulated += 1;
        self.events += o.events_processed;
        self.schedules += o.queue.schedules;
        self.cancels += o.queue.cancels;
        self.max_depth = self.max_depth.max(o.queue.max_depth);
        self.depth_sum += o.queue.depth_sum;
        self.records += o.trace.records.len() as u64;
        if let Some(ch) = &o.channel {
            self.handoffs += ch.handoffs;
            self.failed_handoffs += ch.failed_handoffs;
        }
        self.segments += o.sender.segments_sent;
        self.retransmissions += o.sender.retransmissions;
        self.sender_timeouts += o.sender.timeouts.len() as u64;
        self.frto_probes += o.sender.frto_probes;
        self.spurious_undone += o.sender.spurious_rto_undone;
    }
}

/// One traced pass, reduced to its ledger.
#[derive(Debug)]
struct Ledger {
    /// False for the `warm_replay` set-up fill.
    timed: bool,
    /// Wall time of the pipeline loop (the check is not included).
    wall_s: f64,
    layers: BTreeMap<Layer, LayerTime>,
    sim: SimTotals,
    /// Timeouts and spurious timeouts the analysis found.
    timeouts: u64,
    spurious: u64,
    cache: CacheStats,
    disk_bytes: u64,
}

impl Ledger {
    fn layer(&self, layer: Layer) -> LayerTime {
        self.layers.get(&layer).copied().unwrap_or_default()
    }

    fn ns_per_call(&self, layer: Layer) -> f64 {
        let t = self.layer(layer);
        ratio(t.self_ns as f64, t.calls as f64)
    }

    /// Summed self time of the layers a flow's pipeline calls.
    fn busy_ns(&self) -> u64 {
        self.layers
            .iter()
            .filter(|(l, _)| l.in_pipeline())
            .map(|(_, t)| t.self_ns)
            .sum()
    }

    fn counters(&self, flows: u64) -> Option<Counters> {
        (self.sim.simulated > 0).then_some(Counters {
            flows,
            events: self.sim.events,
            schedules: self.sim.schedules,
            cancels: self.sim.cancels,
            timeouts: self.timeouts,
            spurious_timeouts: self.spurious,
            disk_bytes: self.disk_bytes,
            trace_records: Some(self.sim.records),
            handoffs: Some(self.sim.handoffs),
            retransmissions: Some(self.sim.retransmissions),
        })
    }
}

/// One flow through the traced pipeline, in the engine's order: key,
/// lookup, and on a miss build, simulate, analyse and insert; then the
/// models.
fn traced_flow(
    flow: u32,
    campaign: &Campaign,
    cache: &FlowCache,
    scratch: &mut ConnectionScratch,
    tracer: &mut Tracer,
    sim: &mut SimTotals,
) -> Result<FlowSummary, String> {
    let config = &campaign.configs()[flow as usize];
    let key = tracer.span(Layer::CacheKey, flow, || CacheKey::of(config));
    let summary = match tracer.span(Layer::CacheLookup, flow, || cache.lookup(key)) {
        Some(summary) => summary,
        None => {
            let (path, mobility, conn) = tracer
                .span(Layer::ScenarioBuild, flow, || {
                    config
                        .validate()
                        .map(|()| (config.path(), config.mobility(), config.connection()))
                })
                .map_err(|e| e.to_string())?;
            let outcome = tracer
                .span(Layer::Connection, flow, || {
                    try_run_connection_with(scratch, config.seed, &path, mobility.as_ref(), &conn)
                })
                .map_err(|e| e.to_string())?;
            let analysis = tracer.span(Layer::Analysis, flow, || {
                analyze_flow(&outcome.trace, &TimeoutConfig::default())
            });
            sim.add(&outcome);
            tracer
                .span(Layer::CacheInsert, flow, || {
                    cache.insert(key, &analysis.summary)
                })
                .map_err(|e| e.to_string())?;
            analysis.summary
        }
    };
    let est = EstimateConfig::default();
    black_box(tracer.span(Layer::Model, flow, || evaluate_flow(&summary, &est)));
    Ok(summary)
}

/// A traced pass against `tier`, then its traced result check.
fn traced_pass(
    campaign: &Campaign,
    tier: &Tier,
    timed: bool,
    scratch: &mut ConnectionScratch,
    tracer: &mut Tracer,
) -> Result<(Ledger, Fingerprint, Vec<Span>), String> {
    let cache = tier.cache();
    let mut sim = SimTotals::default();
    let n = campaign.configs().len();
    let mut summaries = Vec::with_capacity(n);
    let t = Instant::now();
    for i in 0..n {
        let flow = u32::try_from(i).expect("fewer than 2^32 flows");
        let root = tracer.open(Layer::Flow, flow);
        let summary = traced_flow(flow, campaign, &cache, scratch, tracer, &mut sim);
        tracer.close(root);
        match summary {
            Ok(summary) => summaries.push(summary),
            Err(e) => {
                tracer.take();
                return Err(format!("flow {i}: {e}"));
            }
        }
    }
    let wall_s = t.elapsed().as_secs_f64();
    let fp = Fingerprint::of(campaign.configs(), summaries.iter(), tracer);
    let spans = tracer.take();
    let ledger = Ledger {
        timed,
        wall_s,
        layers: self_times(&spans),
        sim,
        timeouts: summaries.iter().map(|s| u64::from(s.timeouts)).sum(),
        spurious: summaries
            .iter()
            .map(|s| u64::from(s.spurious_timeouts))
            .sum(),
        cache: cache.stats(),
        disk_bytes: if sim.simulated > 0 { tier.bytes() } else { 0 },
    };
    Ok((ledger, fp, spans))
}

/// Checks a warm pass whose flows were already observed: every flow a
/// disk hit, none corrupt. A flow not served from disk fails.
fn check_warm_pass(checker: &mut Checker, what: &str, flows: usize, stats: CacheStats) {
    let flows = flows as u64;
    if stats.disk_hits != flows || stats.corrupt_entries != 0 || stats.misses != 0 {
        checker.fail(
            what,
            0,
            flows.saturating_sub(stats.disk_hits),
            format!(
                "{} disk hits, {} misses, {} corrupt entries for {flows} flows",
                stats.disk_hits, stats.misses, stats.corrupt_entries
            ),
        );
    }
}

/// One untraced pass, checked: against a fresh tier on a cold workload,
/// against the filled tier `warm` on `warm_replay`. A failed campaign is
/// counted in `checker` and gives `None`.
fn checked_untraced_pass(
    campaign: &Campaign,
    tiers: &mut Tiers,
    warm: Option<&Tier>,
    checker: &mut Checker,
    what: &str,
) -> Result<Option<Untraced>, String> {
    let fresh;
    let tier = match warm {
        Some(tier) => tier,
        None => {
            fresh = tiers.fresh()?;
            &fresh
        }
    };
    let n = campaign.configs().len();
    let cache = tier.cache();
    let u = match untraced_pass(campaign, &cache) {
        Ok(u) => u,
        Err(e) => {
            checker.fail(what, n as u64, n as u64, e);
            return Ok(None);
        }
    };
    let fp = Fingerprint::of(campaign.configs(), u.out.summaries(), &mut Tracer::off());
    if warm.is_some() {
        checker.observe(what, &fp, None);
        check_warm_pass(checker, what, n, cache.stats());
    } else {
        checker.observe(what, &fp, Some(&engine_counters(&u.out, tier.bytes())));
    }
    Ok(Some(u))
}

/// Peak resident memory of this process so far (`VmHWM`), MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn metric(name: &'static str, unit: &'static str, values: &[f64]) -> Metric {
    Metric {
        name,
        unit,
        values: values.to_vec(),
        stats: Stats::of(values),
    }
}

/// The untraced run: set up several times, then time passes for the
/// run's seconds.
fn end_to_end(opts: &Options, checker: &mut Checker) -> Result<(Vec<Metric>, u64), String> {
    let mut tiers = Tiers {
        parent: &opts.work_dir,
        next: 0,
    };
    let cold = opts.workload.is_cold();
    let mut setup_s = Vec::new();
    let mut campaign = None;
    let mut spec_digest = 0;
    // warm_replay: the tier the last set-up filled, and the events its
    // flows took to simulate.
    let mut filled: Option<(Tier, u64)> = None;
    for k in 0..(if cold {
        COLD_SETUPS_PER_PASS
    } else {
        WARM_SETUPS
    }) {
        let t = Instant::now();
        let setup = set_up(opts.workload, opts.size, opts.seed, &mut Tracer::off())?;
        let c = setup.campaign;
        spec_digest = setup.spec_digest;
        if cold {
            setup_s.push(t.elapsed().as_secs_f64());
        } else {
            let tier = tiers.fresh()?;
            let fill = c.run_with_cache(&tier.cache());
            setup_s.push(t.elapsed().as_secs_f64());
            let what = format!("set-up fill {k}");
            match fill {
                Ok(out) => {
                    let fp = Fingerprint::of(c.configs(), out.summaries(), &mut Tracer::off());
                    checker.observe(&what, &fp, Some(&engine_counters(&out, tier.bytes())));
                    filled = Some((tier, out.report.events_processed));
                }
                Err(e) => {
                    let n = c.configs().len() as u64;
                    checker.fail(&what, n, n, e.to_string());
                }
            }
        }
        campaign = Some(c);
    }
    let campaign = campaign.expect("at least one set-up");
    let n = campaign.configs().len();
    if !cold && filled.is_none() {
        return Err("no set-up filled a disk tier".to_owned());
    }

    let warm = filled.as_ref().map(|(tier, _)| tier);
    if cold {
        // Untimed warm-up: the first pass in a process also pays the page
        // faults of growing the heap to the campaign's working set.
        checked_untraced_pass(&campaign, &mut tiers, warm, checker, "warm-up pass")?;
    }
    let mut flows_per_s = Vec::new();
    let mut events_per_s = Vec::new();
    let mut peak_rss = 0.0;
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut pass = 0;
    while started.elapsed() < budget {
        pass += 1;
        if cold {
            for _ in 0..COLD_SETUPS_PER_PASS {
                let t = Instant::now();
                black_box(set_up(
                    opts.workload,
                    opts.size,
                    opts.seed,
                    &mut Tracer::off(),
                )?);
                setup_s.push(t.elapsed().as_secs_f64());
            }
        }
        let what = format!("timed pass {pass}");
        let Some(u) = checked_untraced_pass(&campaign, &mut tiers, warm, checker, &what)? else {
            continue;
        };
        // A warm pass simulates nothing; its events are the ones the
        // served flows took to simulate when the tier was filled.
        let events = filled
            .as_ref()
            .map_or(u.out.report.events_processed, |(_, e)| *e);
        flows_per_s.push(n as f64 / u.wall_s);
        events_per_s.push(events as f64 / u.wall_s);
        if flows_per_s.len() == 1 {
            // Read after a fixed amount of work: later passes only add
            // allocator drift, and how many of them fit in the run
            // depends on the host's speed.
            peak_rss = peak_rss_mb();
        }
    }
    Ok((
        vec![
            metric("setup_s", "s", &setup_s),
            metric("flows_per_s", "1/s", &flows_per_s),
            metric("events_per_s", "1/s", &events_per_s),
            metric("peak_rss_mb", "MB", &[peak_rss]),
        ],
        spec_digest,
    ))
}

/// What the traced run collects besides its checks.
struct Traced {
    /// Set-up spans: spec load, expand and campaign build.
    setup: BTreeMap<Layer, LayerTime>,
    flows: u64,
    ledgers: Vec<Ledger>,
    /// Wall times of the untraced passes, each run just before the
    /// traced pass of the same index among the timed ledgers.
    untraced_wall_s: Vec<f64>,
    recordings: Vec<Vec<Span>>,
    spec_digest: u64,
}

/// The traced run: one traced set-up (and, on `warm_replay`, a traced
/// fill), then untraced and traced passes in turn for the run's seconds.
fn traced(opts: &Options, checker: &mut Checker) -> Result<Traced, String> {
    let mut tiers = Tiers {
        parent: &opts.work_dir,
        next: 0,
    };
    let cold = opts.workload.is_cold();
    let mut tracer = Tracer::new(Instant::now());
    let setup = set_up(opts.workload, opts.size, opts.seed, &mut tracer)?;
    let campaign = setup.campaign;
    let setup_spans = tracer.take();
    let n = campaign.configs().len();
    let mut scratch = ConnectionScratch::new();
    let mut out = Traced {
        setup: self_times(&setup_spans),
        flows: n as u64,
        ledgers: Vec::new(),
        untraced_wall_s: Vec::new(),
        recordings: vec![setup_spans],
        spec_digest: setup.spec_digest,
    };
    let mut kept = out.recordings[0].len();
    let mut keep = |out: &mut Traced, spans: Vec<Span>| {
        if kept + spans.len() <= KEPT_SPANS {
            kept += spans.len();
            out.recordings.push(spans);
        }
    };

    let filled = if cold {
        None
    } else {
        let tier = tiers.fresh()?;
        let (ledger, fp, spans) = traced_pass(&campaign, &tier, false, &mut scratch, &mut tracer)
            .map_err(|e| format!("traced set-up fill: {e}"))?;
        checker.observe(
            "traced set-up fill",
            &fp,
            ledger.counters(out.flows).as_ref(),
        );
        out.ledgers.push(ledger);
        keep(&mut out, spans);
        Some(tier)
    };

    if cold {
        checked_untraced_pass(&campaign, &mut tiers, None, checker, "warm-up pass")?;
    }
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut pass = 0;
    while started.elapsed() < budget {
        pass += 1;
        let what = format!("untraced pass {pass}");
        let Some(u) =
            checked_untraced_pass(&campaign, &mut tiers, filled.as_ref(), checker, &what)?
        else {
            continue;
        };

        let what = format!("traced pass {pass}");
        let fresh;
        let tier = match &filled {
            Some(tier) => tier,
            None => {
                fresh = tiers.fresh()?;
                &fresh
            }
        };
        let (ledger, fp, spans) =
            match traced_pass(&campaign, tier, true, &mut scratch, &mut tracer) {
                Ok(pass) => pass,
                Err(e) => {
                    checker.fail(&what, n as u64, n as u64, e);
                    continue;
                }
            };
        checker.observe(&what, &fp, ledger.counters(out.flows).as_ref());
        if !cold {
            check_warm_pass(checker, &what, n, ledger.cache);
        }
        out.untraced_wall_s.push(u.wall_s);
        out.ledgers.push(ledger);
        keep(&mut out, spans);
    }
    Ok(out)
}

/// The per-layer metrics of a traced run.
///
/// Each layer metric is the median over the timed traced passes that
/// reached the layer. A layer no timed pass reaches (on `warm_replay`,
/// every layer behind a cache miss) is reported from the traced set-up
/// fill instead.
fn per_layer(t: &Traced) -> Vec<Metric> {
    let timed: Vec<&Ledger> = t.ledgers.iter().filter(|l| l.timed).collect();
    let reaching = |layer: Layer| -> Vec<&Ledger> {
        let hit: Vec<&Ledger> = timed
            .iter()
            .copied()
            .filter(|l| l.layer(layer).calls > 0)
            .collect();
        if hit.is_empty() {
            t.ledgers
                .iter()
                .filter(|l| l.layer(layer).calls > 0)
                .collect()
        } else {
            hit
        }
    };
    let over = |name, unit, layer: Layer, f: &dyn Fn(&Ledger) -> f64| -> Metric {
        let values: Vec<f64> = reaching(layer).into_iter().map(f).collect();
        metric(name, unit, &values)
    };
    let over_timed = |name, unit, f: &dyn Fn(&Ledger) -> f64| -> Metric {
        let values: Vec<f64> = timed.iter().copied().map(f).collect();
        metric(name, unit, &values)
    };
    let setup_ms = |layer: Layer| {
        let lt = t.setup.get(&layer).copied().unwrap_or_default();
        lt.self_ns as f64 / 1e6
    };
    let sim = |l: &Ledger| l.sim;
    let per_sim = |x: u64, l: &Ledger| ratio(x as f64, l.sim.simulated as f64);
    let record_bytes = std::mem::size_of::<PacketRecord>() as f64;
    // Pairs each timed traced pass with the untraced pass run just
    // before it, so drift over the run cancels.
    let paired = |f: &dyn Fn(f64, &Ledger) -> f64| -> Vec<f64> {
        t.untraced_wall_s
            .iter()
            .zip(&timed)
            .map(|(&u, l)| f(u, l))
            .collect()
    };
    let engine_overhead = paired(&|u, l| ratio(u - l.busy_ns() as f64 / 1e9, u));
    let trace_overhead = paired(&|u, l| ratio(l.wall_s - u, u));
    vec![
        metric("spec.load_ms", "ms", &[setup_ms(Layer::SpecLoad)]),
        metric("spec.expand_ms", "ms", &[setup_ms(Layer::SpecExpand)]),
        metric("spec.configs", "count", &[t.flows as f64]),
        over(
            "scenario.build_ns_per_flow",
            "ns",
            Layer::ScenarioBuild,
            &|l| l.ns_per_call(Layer::ScenarioBuild),
        ),
        over("connection.ms_per_flow", "ms", Layer::Connection, &|l| {
            l.ns_per_call(Layer::Connection) / 1e6
        }),
        over("connection.ns_per_event", "ns", Layer::Connection, &|l| {
            ratio(
                l.layer(Layer::Connection).self_ns as f64,
                sim(l).events as f64,
            )
        }),
        over(
            "connection.events_per_flow",
            "count",
            Layer::Connection,
            &|l| per_sim(l.sim.events, l),
        ),
        over(
            "queue.schedules_per_flow",
            "count",
            Layer::Connection,
            &|l| per_sim(l.sim.schedules, l),
        ),
        over("queue.cancel_ratio", "ratio", Layer::Connection, &|l| {
            ratio(l.sim.cancels as f64, l.sim.schedules as f64)
        }),
        over("queue.max_depth", "count", Layer::Connection, &|l| {
            l.sim.max_depth as f64
        }),
        over("queue.mean_depth", "count", Layer::Connection, &|l| {
            ratio(l.sim.depth_sum as f64, l.sim.schedules as f64)
        }),
        over(
            "channel.handoffs_per_flow",
            "count",
            Layer::Connection,
            &|l| per_sim(l.sim.handoffs, l),
        ),
        over(
            "channel.failed_handoffs",
            "count",
            Layer::Connection,
            &|l| l.sim.failed_handoffs as f64,
        ),
        over("tcp.segments_per_flow", "count", Layer::Connection, &|l| {
            per_sim(l.sim.segments, l)
        }),
        over("tcp.retransmit_ratio", "ratio", Layer::Connection, &|l| {
            ratio(l.sim.retransmissions as f64, l.sim.segments as f64)
        }),
        over("tcp.timeouts_per_flow", "count", Layer::Connection, &|l| {
            per_sim(l.sim.sender_timeouts, l)
        }),
        over("tcp.frto_probes", "count", Layer::Connection, &|l| {
            l.sim.frto_probes as f64
        }),
        over(
            "tcp.spurious_rto_undone",
            "count",
            Layer::Connection,
            &|l| l.sim.spurious_undone as f64,
        ),
        over("trace.records_per_flow", "count", Layer::Connection, &|l| {
            per_sim(l.sim.records, l)
        }),
        over(
            "trace.record_bytes_per_flow",
            "B",
            Layer::Connection,
            &|l| per_sim(l.sim.records, l) * record_bytes,
        ),
        over("analysis.ms_per_flow", "ms", Layer::Analysis, &|l| {
            l.ns_per_call(Layer::Analysis) / 1e6
        }),
        over("analysis.ns_per_record", "ns", Layer::Analysis, &|l| {
            ratio(
                l.layer(Layer::Analysis).self_ns as f64,
                l.sim.records as f64,
            )
        }),
        over("analysis.spurious_share", "ratio", Layer::Analysis, &|l| {
            ratio(l.spurious as f64, l.timeouts as f64)
        }),
        over("model.ns_per_flow", "ns", Layer::Model, &|l| {
            l.ns_per_call(Layer::Model)
        }),
        over("cache.key_ns_per_flow", "ns", Layer::CacheKey, &|l| {
            l.ns_per_call(Layer::CacheKey)
        }),
        over_timed("cache.lookup_ns_per_flow", "ns", &|l| {
            l.ns_per_call(Layer::CacheLookup)
        }),
        over_timed("cache.hit_ratio", "ratio", &|l| {
            ratio(
                l.cache.hits() as f64,
                (l.cache.hits() + l.cache.misses) as f64,
            )
        }),
        over_timed("cache.corrupt_entries", "count", &|l| {
            l.cache.corrupt_entries as f64
        }),
        over("cache.insert_ns_per_flow", "ns", Layer::CacheInsert, &|l| {
            l.ns_per_call(Layer::CacheInsert)
        }),
        over("cache.disk_bytes_per_flow", "B", Layer::CacheInsert, &|l| {
            ratio(
                l.disk_bytes as f64,
                l.layer(Layer::CacheInsert).calls as f64,
            )
        }),
        over("codec.encode_ns_per_flow", "ns", Layer::CodecEncode, &|l| {
            l.ns_per_call(Layer::CodecEncode)
        }),
        over("codec.decode_ns_per_flow", "ns", Layer::CodecDecode, &|l| {
            l.ns_per_call(Layer::CodecDecode)
        }),
        metric("engine.overhead_share", "ratio", &engine_overhead),
        metric("trace_run.overhead_share", "ratio", &trace_overhead),
        over_timed("trace_run.unattributed_share", "ratio", &|l| {
            ratio(l.wall_s - l.busy_ns() as f64 / 1e9, l.wall_s)
        }),
    ]
}

fn pin_for(opts: &Options) -> Result<Option<Pin>, String> {
    if opts.size != Size::Full {
        return Ok(None);
    }
    crate::check::find_pin(Path::new(crate::check::PINS_PATH), opts.workload, opts.seed)
}

/// Runs the benchmark once.
///
/// # Errors
///
/// Returns a message when the benchmark itself cannot run (a spec that
/// does not load, a work directory that cannot be written). Failures of
/// the program under test are counted in the report's checker instead.
pub fn run(opts: &Options) -> Result<RunReport, String> {
    std::fs::create_dir_all(&opts.work_dir)
        .map_err(|e| format!("cannot create {}: {e}", opts.work_dir.display()))?;
    let mut checker = Checker::new(pin_for(opts)?);
    let (metrics, spec_digest, layers, recordings) = if opts.trace {
        let t = traced(opts, &mut checker)?;
        let mut layers: BTreeMap<Layer, LayerTime> = t.setup.clone();
        for ledger in t.ledgers.iter().filter(|l| l.timed) {
            for (layer, lt) in &ledger.layers {
                let sum = layers.entry(*layer).or_default();
                sum.calls += lt.calls;
                sum.self_ns += lt.self_ns;
            }
        }
        let metrics = per_layer(&t);
        (metrics, t.spec_digest, layers, t.recordings)
    } else {
        let (metrics, spec_digest) = end_to_end(opts, &mut checker)?;
        (metrics, spec_digest, BTreeMap::new(), Vec::new())
    };
    let (digest, counters) = match checker.reference() {
        Some((fp, c)) => (Some(fp.digest), Some(*c)),
        None => (None, None),
    };
    Ok(RunReport {
        checker,
        metrics,
        digest,
        counters,
        spec_digest,
        layers,
        recordings,
    })
}

/// Computes the pin of a full-size (workload, seed): a traced pass gives
/// the digest and every counter, and an untraced pass must agree.
///
/// # Errors
///
/// Returns a message when a pass fails or the two passes disagree.
pub fn pin(workload: Workload, seed: u64, work_dir: &Path) -> Result<Pin, String> {
    std::fs::create_dir_all(work_dir)
        .map_err(|e| format!("cannot create {}: {e}", work_dir.display()))?;
    let mut tiers = Tiers {
        parent: work_dir,
        next: 0,
    };
    let campaign = set_up(workload, Size::Full, seed, &mut Tracer::off())?.campaign;
    let tier = tiers.fresh()?;
    let (ledger, fp, _) = traced_pass(
        &campaign,
        &tier,
        false,
        &mut ConnectionScratch::new(),
        &mut Tracer::off(),
    )?;
    let flows = campaign.configs().len() as u64;
    let counters = ledger.counters(flows).ok_or("the pass simulated nothing")?;
    let mut checker = Checker::new(None);
    checker.observe("traced pass", &fp, Some(&counters));
    let tier = tiers.fresh()?;
    let u = untraced_pass(&campaign, &tier.cache())?;
    let fp = Fingerprint::of(campaign.configs(), u.out.summaries(), &mut Tracer::off());
    checker.observe(
        "untraced pass",
        &fp,
        Some(&engine_counters(&u.out, tier.bytes())),
    );
    if !checker.correct() {
        return Err(checker.problems.join("; "));
    }
    Ok(Pin {
        workload: workload.name().to_owned(),
        seed,
        digest: fp.digest,
        counters,
    })
}
