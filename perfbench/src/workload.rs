//! The named workloads and their set-up: load the workload's campaign
//! spec, point it at the seed, expand it and build the campaign.

use crate::spans::{Layer, Tracer, NO_FLOW};
use hsm_runtime::engine::Campaign;
use hsm_scenario::spec::{expansion_digest, load_spec};
use std::path::PathBuf;

/// Directory of the workload specs, fixed when the benchmark is built.
const SPEC_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/specs");

/// Distance between the `seed_start` of consecutive benchmark seeds. It
/// exceeds the flow count of every workload, so two seeds never share a
/// flow seed.
const SEED_STRIDE: u64 = 10_000;

/// Largest accepted `--seed`: keeps `seed_start` plus every flow offset
/// far from `u64` overflow.
pub const MAX_SEED: u64 = 1 << 40;

/// A named benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Table-I high-speed mix, with and without F-RTO, fresh disk tier.
    HsrCold,
    /// The same mix standing still: the bulk per-packet fast path.
    StationaryCold,
    /// Thousands of short flows served from a filled disk tier.
    WarmReplay,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 3] = [
        Workload::HsrCold,
        Workload::StationaryCold,
        Workload::WarmReplay,
    ];

    /// The workload's name on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HsrCold => "hsr_cold",
            Workload::StationaryCold => "stationary_cold",
            Workload::WarmReplay => "warm_replay",
        }
    }

    /// Looks a workload up by name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// True when every timed run simulates every flow.
    pub fn is_cold(self) -> bool {
        self != Workload::WarmReplay
    }

    /// The campaign spec file the workload loads.
    pub fn spec_path(self) -> PathBuf {
        PathBuf::from(SPEC_DIR).join(format!("{}.toml", self.name()))
    }
}

/// How much work one campaign of a workload holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The specs as written.
    Full,
    /// A few short flows per Table-I row, for the benchmark's own tests.
    Tiny,
}

impl Size {
    /// The size's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }

    /// Looks a size up by name.
    pub fn from_name(name: &str) -> Option<Size> {
        [Size::Full, Size::Tiny]
            .into_iter()
            .find(|s| s.name() == name)
    }
}

/// The `seed_start` a benchmark seed stands for.
///
/// # Errors
///
/// Rejects seeds above [`MAX_SEED`].
pub fn seed_start(seed: u64) -> Result<u64, String> {
    if seed > MAX_SEED {
        return Err(format!("--seed must be at most {MAX_SEED}, got {seed}"));
    }
    Ok(seed * SEED_STRIDE + 1)
}

/// A built campaign and the expansion digest of its spec.
#[derive(Debug)]
pub struct Setup {
    /// The campaign, at one worker.
    pub campaign: Campaign,
    /// `expansion_digest` of the seeded spec's configs.
    pub spec_digest: u64,
}

/// Loads, seeds, expands, digests and builds the workload's campaign at
/// one worker, the set-up `repro run --spec` does, recording a span
/// around each step.
///
/// # Errors
///
/// Returns the spec or engine error as text.
pub fn set_up(
    workload: Workload,
    size: Size,
    seed: u64,
    tracer: &mut Tracer,
) -> Result<Setup, String> {
    let start = seed_start(seed)?;
    let path = workload.spec_path();
    let mut spec = tracer
        .span(Layer::SpecLoad, NO_FLOW, || load_spec(&path))
        .map_err(|e| e.to_string())?;
    for scenario in &mut spec.scenarios {
        scenario.base.seed_start = start;
        if size == Size::Tiny {
            scenario.base.scale = if workload.is_cold() { 0.02 } else { 0.1 };
            scenario.base.duration_s = scenario.base.duration_s.min(20);
        }
    }
    let configs = tracer
        .span(Layer::SpecExpand, NO_FLOW, || spec.expand())
        .map_err(|e| e.to_string())?;
    let spec_digest = tracer.span(Layer::SpecDigest, NO_FLOW, || expansion_digest(&configs));
    let campaign = tracer
        .span(Layer::CampaignBuild, NO_FLOW, || {
            Campaign::builder().configs(configs).workers(1).build()
        })
        .map_err(|e| e.to_string())?;
    Ok(Setup {
        campaign,
        spec_digest,
    })
}
