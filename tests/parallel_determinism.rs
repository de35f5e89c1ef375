//! The query-parallel timing replay must be invisible: any worker-thread
//! count has to produce bit-identical aggregate results, because queries
//! are independent traces replayed on private memory-system state and
//! merged in query order.

use ansmet::sim::experiment::{self as e, Scale, Suite};
use ansmet::sim::{run_design, Design, Parallelism, SystemConfig, Workload};
use ansmet::vecdata::SynthSpec;

/// `run_design` with 4 worker threads returns exactly the serial result —
/// every field of [`ansmet::sim::RunResult`], including per-rank command
/// counts and load counters — across a representative design slice.
#[test]
fn run_design_bit_identical_across_thread_counts() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(600, 6), 10, Some(40));
    for design in [Design::CpuEt, Design::NdpBase, Design::NdpEtOpt] {
        let serial_cfg = SystemConfig {
            parallelism: Parallelism::Threads(1),
            ..SystemConfig::default()
        };
        let parallel_cfg = SystemConfig {
            parallelism: Parallelism::Threads(4),
            ..SystemConfig::default()
        };
        let serial = run_design(design, &wl, &serial_cfg);
        let parallel = run_design(design, &wl, &parallel_cfg);
        assert_eq!(serial, parallel, "{design:?} diverged across thread counts");
    }
}

/// More workers than queries must degrade gracefully (workers beyond the
/// query count simply find the work list empty).
#[test]
fn more_threads_than_queries_is_identical() {
    let wl = Workload::prepare(&SynthSpec::sift().scaled(400, 2), 10, Some(30));
    let serial_cfg = SystemConfig {
        parallelism: Parallelism::Threads(1),
        ..SystemConfig::default()
    };
    let wide_cfg = SystemConfig {
        parallelism: Parallelism::Threads(16),
        ..SystemConfig::default()
    };
    assert_eq!(
        run_design(Design::NdpEt, &wl, &serial_cfg),
        run_design(Design::NdpEt, &wl, &wide_cfg),
    );
}

/// Full quick-scale experiment reports — recall, latency breakdowns,
/// speedups, fault-recovery accounting — must not change with the suite's
/// thread count. Each leg runs in a fresh [`Suite`], so neither can reuse
/// the other's memoized replays.
fn experiment_identical_across_thread_counts(run: fn(&Suite) -> String) {
    let serial = run(&Suite::new(Scale::Quick, 1));
    let parallel = run(&Suite::new(Scale::Quick, 4));
    assert_eq!(serial, parallel, "report diverged across thread counts");
}

/// `fig6` is the headline latency comparison: every design replayed on
/// every quick dataset.
#[test]
fn quick_fig6_identical_across_thread_counts() {
    experiment_identical_across_thread_counts(e::fig6);
}

/// `faults` covers the degraded-mode path.
#[test]
fn quick_faults_identical_across_thread_counts() {
    experiment_identical_across_thread_counts(e::faults);
}
