//! Robustness experiment (not in the paper): full searches under
//! injected NDP faults, demonstrating the zero-accuracy-loss recovery
//! guarantee and reporting what recovery cost.

use ansmet_faults::{FaultPlan, FaultRates};
use ansmet_host::RetryPolicy;
use ansmet_vecdata::SynthSpec;

use super::Suite;
use crate::degraded::run_degraded;
use crate::report::{pct, Table};
use crate::workload::IndexKind;

/// Fault profiles swept by the experiment.
fn profiles() -> Vec<(&'static str, FaultRates)> {
    let heavy = FaultRates {
        drop_instruction: 0.05,
        stall: 0.10,
        hang: 0.03,
        corrupt_result: 0.08,
        lost_result: 0.05,
        poll_miss: 0.08,
    };
    vec![
        ("none", FaultRates::none()),
        ("mixed", FaultRates::mixed()),
        ("heavy", heavy),
    ]
}

/// Search under injected faults: for each fault profile, every query runs
/// through the degraded-mode NDP path and the resulting top-k is compared
/// against the fault-free run.
pub fn faults(suite: &Suite) -> String {
    let spec = suite.scale.spec(SynthSpec::sift());
    let wl = suite.workload(&spec, 10, None, IndexKind::Hnsw);
    let cfg = suite.config();
    let retry = RetryPolicy::default_ndp();
    let ops = wl
        .traces
        .iter()
        .map(|t| t.total_evals() as u64)
        .sum::<u64>()
        / cfg.ndp_units() as u64
        + 16;

    let clean = run_degraded(&wl, &cfg, FaultPlan::none(), retry);
    let mut t = Table::new(
        format!(
            "fault recovery — {} ({} queries)",
            wl.name,
            wl.queries.len()
        ),
        &[
            "profile",
            "injected",
            "timeouts",
            "crc-rej",
            "retries",
            "re-off",
            "fallback",
            "added-cycles",
            "recall",
            "identical",
        ],
    );
    let mut out = String::new();
    for (name, rates) in profiles() {
        let plan = FaultPlan::random(0xA45_5EED, cfg.ndp_units(), ops, rates);
        let run = run_degraded(&wl, &cfg, plan, retry);
        let identical = run.results == clean.results;
        t.row(vec![
            name.to_string(),
            run.report.injected.total().to_string(),
            run.report.timeouts.to_string(),
            run.report.crc_rejections.to_string(),
            run.report.retries.to_string(),
            run.report.reoffloads.to_string(),
            run.report.host_fallbacks.to_string(),
            run.report.added_latency_cycles.to_string(),
            pct(run.recall),
            if identical { "yes" } else { "NO" }.to_string(),
        ]);
        if name == "heavy" {
            out.push_str(&run.report.render("heavy-profile recovery detail"));
            out.push('\n');
        }
    }
    format!("{}\n{out}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    #[test]
    fn faults_experiment_reports_identical_results() {
        let s = faults(&Suite::new(Scale::Quick, 1));
        assert!(s.contains("fault recovery"));
        assert!(s.contains("yes"));
        assert!(!s.contains("NO"), "recovery must be lossless:\n{s}");
        assert!(s.contains("heavy-profile recovery detail"));
    }
}
