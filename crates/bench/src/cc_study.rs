//! `repro cc-study` — sweep the congestion-control zoo through the
//! campaign engine and evaluate the paper's models against each member.
//!
//! The paper's enhanced model (and the Padhye baseline it improves on)
//! assumes Reno-style AIMD dynamics. The study quantifies how far each
//! non-Reno controller drifts from those assumptions: per controller, it
//! runs the Table-I campaign, estimates the model inputs (`P_a`, `q̂`,
//! RTT, losses) from the simulated traces, and compares measured
//! throughput against both predictions. The per-controller rows are
//! written as `CC_STUDY.json` and summarized in DESIGN.md §12.
//!
//! Model evaluation runs through the batched path: each controller's
//! summaries are fitted into one parameter slice and both models sweep
//! it in a single pass each (`EnhancedModel::eval_batch`,
//! `padhye::full_batch` via [`evaluate_labeled`]).

use crate::context::Scale;
use hsm_core::estimate::EstimateConfig;
use hsm_core::eval::{evaluate_labeled, LabeledAccuracy};
use hsm_runtime::cache::{CacheConfig, FlowCache};
use hsm_runtime::engine::Campaign;
use hsm_scenario::dataset::plan_dataset;
use hsm_scenario::runner::ScenarioConfig;
use hsm_tcp::cc::Algorithm;
use serde::Serialize;

/// The full study: one [`LabeledAccuracy`] row per zoo member.
#[derive(Debug, Clone, Serialize)]
pub struct CcStudyReport {
    /// Engine version that ran the campaigns.
    pub engine_version: String,
    /// Scale preset the campaigns ran at.
    pub scale: String,
    /// Flows simulated per controller.
    pub flows_per_cc: usize,
    /// Per-controller model-fit rows, in zoo order (Reno first).
    pub rows: Vec<LabeledAccuracy>,
}

impl CcStudyReport {
    /// True when every controller produced a non-empty evaluated slice.
    pub fn complete(&self) -> bool {
        self.rows.len() >= Algorithm::zoo().len() && self.rows.iter().all(|r| r.report.flows > 0)
    }
}

/// Runs the study at a scale preset: one Table-I campaign per zoo
/// member, then per-member model evaluation.
///
/// # Errors
///
/// Returns a displayable message when a campaign fails to build or run.
pub fn run_cc_study(scale: Scale, workers: Option<usize>) -> Result<CcStudyReport, String> {
    let configs: Vec<ScenarioConfig> = plan_dataset(&scale.dataset_config())
        .into_iter()
        .map(|(_, c)| c)
        .collect();
    run_cc_study_over(&configs, &format!("{scale:?}"), workers)
}

/// Runs the study over an arbitrary campaign — e.g. the expansion of a
/// declarative spec (`repro cc-study --spec FILE`). Each zoo member runs
/// the same `configs` with only the congestion-control field overridden,
/// so the rows are directly comparable.
///
/// All campaigns share one cache — keys embed the congestion control, so
/// controllers can never collide, and reruns of the same grid stay warm.
///
/// # Errors
///
/// Returns a displayable message when a campaign fails to build or run.
pub fn run_cc_study_over(
    configs: &[ScenarioConfig],
    scale_label: &str,
    workers: Option<usize>,
) -> Result<CcStudyReport, String> {
    let cache = FlowCache::new(CacheConfig::memory_only());
    let estimate = EstimateConfig::default();
    let mut rows = Vec::new();
    let mut flows_per_cc = 0;
    for cc in Algorithm::zoo() {
        let cc_configs = configs.iter().cloned().map(|mut c| {
            c.cc = cc;
            c
        });
        let mut builder = Campaign::builder().configs(cc_configs);
        if let Some(w) = workers {
            builder = builder.workers(w);
        }
        let campaign = builder.build().map_err(|e| e.to_string())?;
        let output = campaign.run_with_cache(&cache).map_err(|e| e.to_string())?;
        let summaries: Vec<_> = output.summaries().cloned().collect();
        flows_per_cc = summaries.len();
        rows.push(evaluate_labeled(cc.label(), &summaries, &estimate));
    }
    Ok(CcStudyReport {
        engine_version: hsm_runtime::cache::ENGINE_VERSION.to_owned(),
        scale: scale_label.to_owned(),
        flows_per_cc,
        rows,
    })
}

/// One printable line per controller (the `repro cc-study` stdout).
pub fn render_row(row: &LabeledAccuracy) -> String {
    format!(
        "{:9} P_a {:.4}  q {:.3}  measured {:8.2} sps  enhanced {:8.2} (D {:.3})  padhye {:8.2} (D {:.3})",
        row.label,
        row.mean_p_a,
        row.mean_q_hat,
        row.mean_measured_sps,
        row.mean_enhanced_sps,
        row.report.mean_d_enhanced,
        row.mean_padhye_sps,
        row.report.mean_d_padhye,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_study_covers_the_whole_zoo() {
        let report = run_cc_study(Scale::Smoke, Some(2)).expect("study runs");
        assert!(report.complete(), "incomplete study: {report:?}");
        assert_eq!(report.rows.len(), Algorithm::zoo().len());
        assert_eq!(report.rows[0].label, "Reno");
        let labels: Vec<&str> = report.rows.iter().map(|r| r.label.as_str()).collect();
        for member in Algorithm::zoo() {
            assert!(labels.contains(&member.label()), "{}", member.label());
        }
        for row in &report.rows {
            assert!(
                row.mean_measured_sps > 0.0,
                "{} measured nothing",
                row.label
            );
            assert!(row.report.flows > 0, "{} evaluated nothing", row.label);
        }
        // Different controllers must actually behave differently — if the
        // cc choice never reached the sender, every row would be Reno's.
        let reno = report.rows[0].mean_measured_sps;
        assert!(
            report
                .rows
                .iter()
                .any(|r| (r.mean_measured_sps - reno).abs() > 1e-9),
            "all controllers produced identical throughput"
        );
        let json = serde_json::to_string(&report).expect("report serializes");
        assert!(json.contains("\"rows\""));
    }
}
