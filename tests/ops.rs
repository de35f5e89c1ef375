//! End-to-end contracts of the streaming operations plane:
//!
//! * the `ops` experiment's artifacts — `BENCH_ops.json` and the
//!   Prometheus exposition — are bit-identical across reruns and across
//!   host thread counts;
//! * attaching an [`OpsPlane`] to a serving run never changes the served
//!   results (the sink observes, it does not steer);
//! * scheduled maintenance pauses surface as `CompactionPause` events
//!   and queueing delay without changing which neighbors are returned.
//!
//! [`OpsPlane`]: ansmet::obs::OpsPlane

use ansmet::obs::{OpsConfig, OpsPlane};
use ansmet::serve::{run_serve, run_serve_with_sink, MaintenancePlan, ServeConfig};
use ansmet::sim::{SystemConfig, Workload};
use ansmet::vecdata::SynthSpec;
use ansmet_bench::{ops_experiment, Scale, Suite};

fn small_workload() -> Workload {
    Workload::prepare(&SynthSpec::sift().scaled(1500, 4), 10, Some(40))
}

#[test]
fn ops_artifacts_bit_identical_across_runs_and_thread_counts() {
    let (t1, j1, e1) = ops_experiment(&Suite::new(Scale::Quick, 1));
    let (t2, j2, e2) = ops_experiment(&Suite::new(Scale::Quick, 1));
    let (t3, j3, e3) = ops_experiment(&Suite::new(Scale::Quick, 4));

    assert_eq!(t1, t2, "rerun diverged (text)");
    assert_eq!(j1, j2, "rerun diverged (json)");
    assert_eq!(e1, e2, "rerun diverged (exposition)");
    assert_eq!(t1, t3, "thread count changed the text report");
    assert_eq!(j1, j3, "thread count changed the json artifact");
    assert_eq!(e1, e3, "thread count changed the exposition");
}

#[test]
fn ops_plane_observes_without_steering() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    let cfg = ServeConfig::open_loop(0x0B5E, 200_000.0, 60, 1_000_000);

    let untraced = run_serve(&wl, &sys, &cfg);
    let mut plane = OpsPlane::new(OpsConfig::default());
    let traced = run_serve_with_sink(&wl, &sys, &cfg, &mut plane);
    assert_eq!(untraced, traced, "the ops plane must not steer the run");

    let report = plane.finish();
    assert_eq!(report.completed, traced.total.count);
    assert_eq!(
        report.series.counter_total("ops.completed"),
        traced.total.count
    );
}

#[test]
fn maintenance_pauses_surface_without_changing_results() {
    let wl = small_workload();
    let sys = SystemConfig::default();
    let base = ServeConfig::open_loop(0xD1CE, 150_000.0, 60, 2_000_000);
    let paused = base.clone().with_maintenance(MaintenancePlan {
        interval_cycles: 400_000,
        pause_cycles: 200_000,
    });

    let clean = run_serve(&wl, &sys, &base);
    let mut plane = OpsPlane::new(OpsConfig::default());
    let with_pauses = run_serve_with_sink(&wl, &sys, &paused, &mut plane);
    let report = plane.finish();

    assert_eq!(
        clean.results_fingerprint, with_pauses.results_fingerprint,
        "maintenance pauses must not change served results"
    );
    assert!(
        report.series.counter_total("ops.compaction_pauses") > 0,
        "the cadence must fire at least one pause in this run"
    );
    assert!(
        with_pauses.makespan_cycles >= clean.makespan_cycles,
        "pauses can only stretch the run"
    );
}
