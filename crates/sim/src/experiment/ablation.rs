//! Ablation study over the design choices DESIGN.md calls out: each row
//! removes or swaps one mechanism of the full NDP-ETOpt system and
//! reports the impact on latency and traffic (DEEP dataset).

use ansmet_vecdata::SynthSpec;

use crate::design::Design;
use crate::experiment::Suite;
use crate::report::{speedup, Table};
use crate::workload::IndexKind;
use crate::SystemConfig;

/// Run the ablation table.
pub fn ablation(suite: &Suite) -> String {
    let spec = suite.scale.spec(SynthSpec::deep());
    let wl = suite.workload(&spec, 10, None, IndexKind::Hnsw);
    let full_cfg = suite.config();
    let full = suite.replay(Design::NdpEtOpt, &wl, &full_cfg);
    let norm = full.total_cycles as f64;
    let norm_lines = full.total_lines() as f64;

    let mut t = Table::new(
        format!("Ablation: NDP-ETOpt on {} (1.00 = full system)", wl.name),
        &["variant", "rel. latency", "rel. traffic", "what it shows"],
    );
    let mut row = |label: &str, design: Design, cfg: &SystemConfig, note: &str| {
        let r = suite.replay(design, &wl, cfg);
        t.row(vec![
            label.to_string(),
            speedup(r.total_cycles as f64 / norm),
            speedup(r.total_lines() as f64 / norm_lines),
            note.to_string(),
        ]);
    };

    row("full system", Design::NdpEtOpt, &full_cfg, "baseline");
    row(
        "no prefix elimination",
        Design::NdpEtDual,
        &full_cfg,
        "Fig.4 contribution",
    );
    row(
        "no dual granularity",
        Design::NdpEt,
        &full_cfg,
        "§4.2 dual-fetch contribution",
    );
    row(
        "no early termination",
        Design::NdpBase,
        &full_cfg,
        "§4 contribution",
    );
    row(
        "bit-serial steps",
        Design::NdpBitEt,
        &full_cfg,
        "vs BitNN-style fetch",
    );
    row(
        "dimension-only ET",
        Design::NdpDimEt,
        &full_cfg,
        "vs prior partial-dimension work",
    );
    let no_repl = SystemConfig {
        replicate_hot: false,
        ..suite.config()
    };
    row(
        "no hot replication",
        Design::NdpEtOpt,
        &no_repl,
        "§5.3 load balancing",
    );
    row(
        "conventional polling",
        Design::NdpEtOpt,
        &suite.config().with_conventional_polling(),
        "§5.4 adaptive polling",
    );
    t.render()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::Scale;

    #[test]
    fn ablation_has_all_rows() {
        let s = ablation(&Suite::new(Scale::Quick, 1));
        for label in [
            "full system",
            "no prefix elimination",
            "no early termination",
            "no hot replication",
            "conventional polling",
        ] {
            assert!(s.contains(label), "{label} missing");
        }
    }
}
