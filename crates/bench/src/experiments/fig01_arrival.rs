//! Fig. 1 — one-way delays of every packet of one high-speed flow, with
//! lost packets plotted at −1 and the timeout events marked.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_scenario::runner::{try_run_scenario_with, ScenarioConfig};
use hsm_simnet::chaos::StormPlan;
use hsm_tcp::connection::ConnectionScratch;
use hsm_trace::analysis::latency::delay_scatter;
use hsm_trace::export::{fnum, Table};

/// Regenerates the Fig. 1 scatter for a single 300 km/h China Mobile flow.
/// The full point cloud goes to CSV; the printed table shows a sample plus
/// the timeout marks.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let cfg = ScenarioConfig {
        seed: 1706,
        duration: ctx.scale.flow_duration(),
        ..Default::default()
    };
    let out = try_run_scenario_with(&mut ConnectionScratch::new(), &cfg, &StormPlan::default())
        .expect("experiment flow runs");
    let points = delay_scatter(&out.outcome.trace);

    let mut scatter = Table::new(
        "Fig. 1 — packet send time vs one-way delay (lost = -1)",
        &["sent_s", "delay_s", "kind"],
    );
    for p in &points {
        scatter.push_row(vec![
            fnum(p.sent_s),
            fnum(p.delay_s),
            if p.is_ack {
                "ack".into()
            } else {
                "data".into()
            },
        ]);
    }

    let mut marks = Table::new("Timeout events (numbered as in Fig. 1)", &["#", "at_s"]);
    for (i, t) in out.outcome.sender.timeouts.iter().enumerate() {
        marks.push_row(vec![(i + 1).to_string(), fnum(t.as_secs_f64())]);
    }

    let delays: Vec<f64> = points
        .iter()
        .filter(|p| p.delay_s >= 0.0)
        .map(|p| p.delay_s)
        .collect();
    let typical = if delays.is_empty() {
        0.0
    } else {
        let mut d = delays.clone();
        d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        d[d.len() / 2]
    };
    let lost = points.iter().filter(|p| p.delay_s < 0.0).count();

    // Keep the printed scatter readable: thin it to ~40 rows (the CSV
    // export keeps everything).
    let mut thin = Table::new(scatter.title.clone(), &["sent_s", "delay_s", "kind"]);
    let step = (scatter.rows.len() / 40).max(1);
    for row in scatter.rows.iter().step_by(step) {
        thin.push_row(row.clone());
    }

    ExperimentResult::new(
        "fig1",
        "One-way delay scatter of one high-speed flow (Fig. 1)",
    )
    .with_table(thin)
    .with_table(marks)
    .with_table(scatter)
    .note(format!(
        "paper: most packets ≈ 30 ms one-way; ours: median {:.1} ms over {} packets ({} lost)",
        typical * 1e3,
        points.len(),
        lost
    ))
    .note(format!(
        "paper flow shows 10 timeout sequences; this flow has {} timeouts in {} sequences",
        out.outcome.sender.timeouts.len(),
        out.analysis.timeouts.sequences.len(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn scatter_has_both_directions_and_losses() {
        let r = run(&Ctx::new(Scale::Smoke));
        let full = &r.tables[2];
        assert!(full.rows.len() > 100);
        assert!(full.rows.iter().any(|row| row[2] == "ack"));
        assert!(full.rows.iter().any(|row| row[2] == "data"));
        assert!(
            full.rows.iter().any(|row| row[1] == "-1.000"),
            "lost packets at -1"
        );
    }
}
