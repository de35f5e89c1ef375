//! Full pipelines under the per-batch driver check. With the
//! `dual-driver` feature on, every NDP batch is also replayed on the
//! per-cycle tick reference and must match the event-wheel driver on
//! every observable, sink events and the DRAM command stream included.
//! HNSW and IVF traversal, early termination on and off, and fault
//! recovery under serving each run once:
//!
//! `cargo test --release -p ansmet --features dual-driver --test dual_driver`
//!
//! Without the feature the pipelines run on the wheel alone.

use ansmet::obs::EventKind;
use ansmet::serve::{run_serve, FaultProfile, ServeConfig};
use ansmet::sim::workload::IndexKind;
use ansmet::sim::{run_design_traced, Design, SystemConfig, TraceOptions, Workload};
use ansmet::vecdata::SynthSpec;
use ansmet_faults::FaultRates;
use ansmet_host::RetryPolicy;

/// Traced runs (DRAM commands on), so the check covers the command log.
fn replay_checked(wl: &Workload, designs: &[Design]) {
    let cfg = SystemConfig::default();
    let opts = TraceOptions {
        dram_commands: true,
        ..TraceOptions::default()
    };
    for &design in designs {
        let (_, rec) = run_design_traced(design, wl, &cfg, &opts);
        let has_cmd = rec
            .queries
            .iter()
            .flat_map(|t| &t.events)
            .any(|e| matches!(e.kind, EventKind::DramCommand { .. }));
        assert!(has_cmd, "{design:?}: no DRAM commands traced");
    }
}

/// HNSW traversal, ET off (NdpBase) and on (NdpEtOpt, NdpEtDual).
#[test]
fn hnsw_pipeline_drivers_agree() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(700, 5), 10, Some(40));
    replay_checked(&wl, &[Design::NdpBase, Design::NdpEtOpt, Design::NdpEtDual]);
}

/// IVF traversal exercises centroid hops and a different offload shape.
#[test]
fn ivf_pipeline_drivers_agree() {
    let wl = Workload::prepare_with_index(
        &SynthSpec::gist().scaled(500, 4),
        10,
        Some(20),
        IndexKind::Ivf,
    );
    replay_checked(&wl, &[Design::NdpBase, Design::NdpEtOpt]);
}

/// The serving engine (wave model + fault recovery) sits on the same
/// batch driver.
#[test]
fn serving_with_faults_drivers_agree() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(800, 4), 10, Some(40));
    let sys = SystemConfig::default();
    let serve =
        ServeConfig::open_loop(0xD0D0, 150_000.0, 48, 2_000_000).with_faults(FaultProfile {
            rates: FaultRates::mixed(),
            seed: 0xFA11,
            retry: RetryPolicy::default_ndp(),
        });
    let report = run_serve(&wl, &sys, &serve);
    assert!(report.batches > 0 && report.recovery.is_some());
}
