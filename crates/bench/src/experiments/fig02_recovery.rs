//! Fig. 2 — the retransmission process inside a timeout recovery phase:
//! the exponential-backoff ladder (T, 2T, 4T, …) and the lone
//! retransmissions.

use crate::context::Ctx;
use crate::report::ExperimentResult;
use hsm_scenario::runner::{try_run_scenario_with, ScenarioConfig};
use hsm_simnet::chaos::StormPlan;
use hsm_tcp::connection::ConnectionScratch;
use hsm_trace::export::{fnum, Table};

/// Regenerates the Fig. 2 detail: picks the longest timeout sequence of a
/// high-speed flow and prints each rung of its ladder.
pub fn run(ctx: &Ctx) -> ExperimentResult {
    let cfg = ScenarioConfig {
        seed: 1706,
        duration: ctx.scale.flow_duration(),
        ..Default::default()
    };
    let out = try_run_scenario_with(&mut ConnectionScratch::new(), &cfg, &StormPlan::default())
        .expect("experiment flow runs");
    let trace = &out.outcome.trace;
    let Some(seq) = out
        .analysis
        .timeouts
        .sequences
        .iter()
        .max_by_key(|s| s.events.len())
    else {
        return ExperimentResult::new("fig2", "Timeout recovery detail (Fig. 2)")
            .note("no timeout sequence occurred at this scale — rerun at a larger scale");
    };

    let mut ladder = Table::new(
        "Fig. 2 — retransmissions inside the recovery phase",
        &[
            "rung",
            "sent_s",
            "gap_since_prev_s",
            "seq#",
            "arrived",
            "spurious_timeout",
        ],
    );
    let mut prev = seq.ca_end;
    for (i, ev) in seq.events.iter().enumerate() {
        let rec = &trace.records[ev.retx_idx];
        ladder.push_row(vec![
            (i + 1).to_string(),
            fnum(rec.sent_at.as_secs_f64()),
            fnum(rec.sent_at.saturating_since(prev).as_secs_f64()),
            rec.seq.to_string(),
            (!rec.lost()).to_string(),
            ev.spurious.to_string(),
        ]);
        prev = rec.sent_at;
    }

    let mut summary = Table::new("Recovery phase summary", &["quantity", "value"]);
    summary.push_row(vec![
        "CA phase end (s)".into(),
        fnum(seq.ca_end.as_secs_f64()),
    ]);
    summary.push_row(vec![
        "recovery end (s)".into(),
        fnum(seq.recovery_end.as_secs_f64()),
    ]);
    summary.push_row(vec![
        "duration (s)".into(),
        fnum(seq.recovery_duration().as_secs_f64()),
    ]);
    summary.push_row(vec!["timeouts (R)".into(), seq.timeouts().to_string()]);
    summary.push_row(vec![
        "first RTO estimate T (s)".into(),
        fnum(seq.first_rto().as_secs_f64()),
    ]);
    summary.push_row(vec![
        "retransmission loss rate".into(),
        fnum(seq.retrans_loss_rate()),
    ]);

    ExperimentResult::new("fig2", "Timeout recovery detail (Fig. 2)")
        .with_table(ladder)
        .with_table(summary)
        .note("paper: gaps double (T, 2T, … up to 64T) and only the lost packet is retransmitted per rung")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Scale;

    #[test]
    fn ladder_gaps_grow() {
        let r = run(&Ctx::new(Scale::Smoke));
        if r.tables.is_empty() {
            return; // no timeout at smoke scale is acceptable
        }
        let ladder = &r.tables[0];
        // Each rung's gap should not shrink by more than jitter allows
        // (the ladder doubles while the same sequence continues).
        let gaps: Vec<f64> = ladder
            .rows
            .iter()
            .map(|row| row[2].parse().unwrap())
            .collect();
        for pair in gaps.windows(2) {
            assert!(pair[1] > pair[0] * 1.5, "gaps {gaps:?}");
        }
    }
}
