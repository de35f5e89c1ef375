//! The benchmark's workloads and what they share.
//!
//! Each workload prepares its inputs from the seed (`setup`), then runs
//! repetitions of its timed work (`rep`). A repetition returns the
//! modelled numbers and counts it produced, which must repeat bit for
//! bit across repetitions, thread counts, and traced/untraced runs.
//! `probe` runs once in a traced run and times the component calls of
//! the workload's preparation one by one, so that preparation can be
//! split into layers from outside the composite entry points.

use ansmet_core::{SamplingConfig, SamplingProfile};
use ansmet_index::Hnsw;
use ansmet_ndp::Partitioner;
use ansmet_sim::{Design, DesignPlan, SystemConfig, Workload};
use ansmet_vecdata::{GroundTruth, SynthSpec};

use crate::report::Metric;
use crate::spans::Tracer;

pub mod churn;
pub mod design_sweep;
pub mod serve_open_loop;
pub mod shard_build;

/// Neighbors per query in every workload.
pub const K: usize = 10;

/// What one repetition of a workload's timed work produced.
#[derive(Debug, Default)]
pub struct Rep {
    /// Operations attempted in the timed calls.
    pub ops: u64,
    /// Operations that failed (shed, refused, or ET-mismatched).
    pub failed: u64,
    /// Host seconds spent inside the timed calls.
    pub busy_s: f64,
    /// Modelled numbers, counts, and ratios of counts. End-to-end
    /// metrics have names without a dot; per-layer metrics are named
    /// `<layer>.<metric>`.
    pub metrics: Vec<Metric>,
    /// Correctness gates that failed, each with its cause.
    pub gates: Vec<String>,
}

impl Rep {
    /// Record a failed gate unless `ok`.
    pub fn gate(&mut self, ok: bool, cause: impl FnOnce() -> String) {
        if !ok {
            self.gates.push(cause());
        }
    }
}

/// One benchmark workload.
pub trait Bench {
    /// Prepared inputs the timed work runs on.
    type State;

    /// Why the workload exists, printed with its report and recorded in
    /// `BENCHMARK.json`.
    const WHY: &'static str;

    /// Build the inputs from `seed`; timed as `setup_s`.
    fn setup(&self, seed: u64, t: &mut Tracer) -> Self::State;

    /// One repetition of the timed work on `threads` worker threads.
    fn rep(&self, state: &Self::State, seed: u64, threads: usize, t: &mut Tracer) -> Rep;

    /// Time the preparation's component calls one by one (traced runs).
    fn probe(&self, state: &Self::State, seed: u64, t: &mut Tracer);
}

/// A system configuration whose replay uses exactly `threads` workers.
pub fn system_config(threads: usize) -> SystemConfig {
    SystemConfig {
        parallelism: ansmet_sim::Parallelism::Threads(threads),
        ..SystemConfig::default()
    }
}

/// Convert memory cycles to microseconds at `mem_clock_mhz`.
pub fn cycles_to_us(cycles: f64, mem_clock_mhz: u64) -> f64 {
    cycles / mem_clock_mhz as f64
}

/// Mean evaluations per query over a workload's functional traces.
pub fn evals_per_query(wls: &[&Workload]) -> Metric {
    let evals: usize = wls
        .iter()
        .flat_map(|w| &w.traces)
        .map(|t| t.total_evals())
        .sum();
    let queries: usize = wls.iter().map(|w| w.traces.len()).sum();
    Metric::ratio(
        "index.evals_per_query",
        "evals/query",
        evals as f64,
        "index.queries",
        queries as f64,
    )
}

/// Time the component calls behind [`Workload::prepare`] for `wl`, one
/// span each, with the parameters the prepared workload recorded:
/// generation, HNSW build, ground truth, sampling profile, functional
/// traced search, and the plans `run_design` builds for every design.
pub fn probe_preparation(spec: &SynthSpec, wl: &Workload, t: &mut Tracer) {
    t.span("vecdata.generate_s", |_| spec.generate());
    let params = wl
        .hnsw
        .as_ref()
        .expect("benchmark workloads use HNSW")
        .params()
        .clone();
    t.span("index.hnsw_build_s", |_| Hnsw::build(&wl.data, params));
    t.span("vecdata.ground_truth_s", |_| {
        GroundTruth::compute(&wl.data, &wl.queries, wl.k)
    });
    let samples = wl.profile.sample_ids.len();
    t.span("core.sampling_profile_s", |_| {
        SamplingProfile::build(&wl.data, &SamplingConfig::default().with_samples(samples))
    });
    let mut traced = wl.clone();
    t.span("index.trace_s", |_| traced.retrace(wl.ef));
    let cfg = SystemConfig::default();
    let subvector = Partitioner::new(
        cfg.partition,
        cfg.ndp_units(),
        wl.data.dim(),
        wl.data.dtype().bytes(),
    )
    .dims_per_subvector();
    for d in Design::all() {
        let layout = if d.is_ndp() { subvector } else { wl.data.dim() };
        t.span("core.plan_build_s", |_| {
            DesignPlan::build_for_layout(d, wl, layout)
        });
    }
}
