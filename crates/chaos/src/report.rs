//! The JSON-serializable outcome of a chaos run: per-case oracle
//! violations (with their shrunk reproductions), fault-drill results and
//! the aggregate model-accuracy figures.

use hsm_scenario::runner::ScenarioConfig;
use serde::{Deserialize, Serialize};

/// One oracle violation, pinned to the case that produced it.
///
/// `config` reproduces the failure directly
/// (`check_case` on it fails the same check); `shrunk` is the greedy
/// local minimum the shrinker reached, the config to debug first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Violation {
    /// Case index within the run.
    pub case: u64,
    /// Which oracle check failed (stable machine-readable name).
    pub check: String,
    /// Human-readable specifics.
    pub detail: String,
    /// The config that failed.
    pub config: ScenarioConfig,
    /// The shrunk minimal config still failing the same check.
    pub shrunk: Option<ScenarioConfig>,
}

/// Outcome of one fault-injection drill.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DrillResult {
    /// Drill name (e.g. `worker-death`).
    pub name: String,
    /// Whether the stack handled the fault as specified.
    pub passed: bool,
    /// What happened.
    pub detail: String,
}

/// Aggregate model-accuracy oracle over the operating-region sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct AggregateOracle {
    /// Flows that landed in the operating region and evaluated.
    pub region_flows: usize,
    /// Mean deviation `D` of the enhanced model over the sample.
    pub mean_d_enhanced: f64,
    /// Mean deviation `D` of the Padhye baseline over the sample.
    pub mean_d_padhye: f64,
    /// The envelope the enhanced mean was held to.
    pub envelope: f64,
    /// `true` when the sample was big enough to judge and both aggregate
    /// assertions held (enhanced mean within the envelope and strictly
    /// below Padhye's mean).
    pub within_envelope: bool,
    /// `true` when re-evaluating the whole region sample through the
    /// batched model APIs (`EnhancedModel::eval_batch`,
    /// `padhye::full_batch`) reproduced every per-case scalar prediction
    /// bit-for-bit. A skipped judgement reports `true` vacuously.
    pub batch_parity: bool,
    /// `true` when the sample was too small to judge (skipped, not failed).
    pub skipped: bool,
}

/// Everything one `repro chaos` run produces.
///
/// Only deterministic results live here: the report is a pure function of
/// `(seed, cases)`, byte-identical for any worker count and host. The
/// host-dependent worker count and wall-clock are printed by `repro chaos`
/// instead.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChaosReport {
    /// Master seed of the run.
    pub seed: u64,
    /// Cases executed.
    pub cases: u64,
    /// Per-case oracle violations.
    pub violations: Vec<Violation>,
    /// Fault-drill outcomes.
    pub drills: Vec<DrillResult>,
    /// Aggregate accuracy oracle.
    pub aggregate: AggregateOracle,
}

impl ChaosReport {
    /// `true` when the run found nothing: no case violations, every drill
    /// passed, the aggregate envelope held (or was skipped for lack of
    /// sample), and the batched model re-evaluation agreed with the
    /// scalar per-case path bit-for-bit.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
            && self.drills.iter().all(|d| d.passed)
            && (self.aggregate.skipped || self.aggregate.within_envelope)
            && self.aggregate.batch_parity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_json() {
        let report = ChaosReport {
            seed: 42,
            cases: 3,
            violations: vec![Violation {
                case: 1,
                check: "determinism".into(),
                detail: "streams diverged".into(),
                config: ScenarioConfig::default(),
                shrunk: Some(ScenarioConfig::default()),
            }],
            drills: vec![DrillResult {
                name: "worker-death".into(),
                passed: true,
                detail: "WorkerLost surfaced".into(),
            }],
            aggregate: AggregateOracle {
                region_flows: 10,
                mean_d_enhanced: 0.1,
                mean_d_padhye: 0.3,
                envelope: 0.4,
                within_envelope: true,
                batch_parity: true,
                skipped: false,
            },
        };
        assert!(!report.ok(), "a violation must fail the report");
        let json = serde_json::to_string(&report).expect("serialize");
        let back: ChaosReport = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, report);
    }

    #[test]
    fn ok_requires_clean_drills_and_envelope() {
        let mut report = ChaosReport {
            seed: 0,
            cases: 0,
            violations: vec![],
            drills: vec![],
            aggregate: AggregateOracle {
                skipped: true,
                batch_parity: true,
                ..Default::default()
            },
        };
        assert!(report.ok());
        report.drills.push(DrillResult {
            name: "cache-corruption".into(),
            passed: false,
            detail: "served corrupt entry".into(),
        });
        assert!(!report.ok());
        report.drills.clear();
        report.aggregate.skipped = false;
        report.aggregate.within_envelope = false;
        assert!(!report.ok());
        report.aggregate.within_envelope = true;
        report.aggregate.batch_parity = false;
        assert!(!report.ok(), "batch/scalar divergence must fail the run");
    }
}
