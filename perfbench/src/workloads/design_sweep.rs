//! `design_sweep`: the paper's core comparison (Figs. 6, 9, 10). Every
//! design replays the same functional traces on the cycle-level DDR5 +
//! NDP + host model, over the three Table 2 shapes that stress it
//! differently: SIFT (u8 × 128), DEEP (f32 × 96) and GIST (f32 × 960,
//! 30 lines per vector, so replay is bandwidth-heavy). Index build and
//! sampling stay in set-up; the timed work is almost all replay.

use ansmet_sim::{
    run_design, run_design_throughput, Design, RunResult, SystemEnergyModel, Workload,
};
use ansmet_vecdata::SynthSpec;

use super::{cycles_to_us, evals_per_query, probe_preparation, system_config, Bench, Rep, K};
use crate::report::{geomean, Metric};
use crate::spans::Tracer;

/// Queries per shape.
const QUERIES: usize = 48;
/// Concurrent query streams of the throughput run.
const STREAMS: usize = 8;
/// Recall@10 every shape must reach (`Workload::prepare` tunes its
/// beam width up to at least this).
const RECALL_FLOOR: f64 = 0.8;

/// The three shapes, all generated from the run's seed.
fn specs(seed: u64) -> [SynthSpec; 3] {
    [
        SynthSpec::sift().scaled(1000, QUERIES).with_seed(seed),
        SynthSpec::deep().scaled(1000, QUERIES).with_seed(seed),
        SynthSpec::gist().scaled(500, QUERIES).with_seed(seed),
    ]
}

/// Span (and per-layer metric) name of one design's replay.
fn replay_span(d: Design) -> &'static str {
    match d {
        Design::CpuBase => "sim.replay_s.CpuBase",
        Design::CpuEt => "sim.replay_s.CpuEt",
        Design::CpuEtOpt => "sim.replay_s.CpuEtOpt",
        Design::NdpBase => "sim.replay_s.NdpBase",
        Design::NdpDimEt => "sim.replay_s.NdpDimEt",
        Design::NdpBitEt => "sim.replay_s.NdpBitEt",
        Design::NdpEt => "sim.replay_s.NdpEt",
        Design::NdpEtDual => "sim.replay_s.NdpEtDual",
        Design::NdpEtOpt => "sim.replay_s.NdpEtOpt",
    }
}

pub struct DesignSweep;

impl Bench for DesignSweep {
    type State = Vec<Workload>;

    const WHY: &'static str = "all nine designs replayed on SIFT/DEEP/GIST: cycle-level replay does the timed work, preparation is set-up";

    fn setup(&self, seed: u64, t: &mut Tracer) -> Vec<Workload> {
        specs(seed)
            .iter()
            .map(|spec| t.span("sim.prepare_s", |_| Workload::prepare(spec, K, None)))
            .collect()
    }

    fn rep(&self, shapes: &Vec<Workload>, _seed: u64, threads: usize, t: &mut Tracer) -> Rep {
        let cfg = system_config(threads);
        let mhz = cfg.dram.clock_mhz;
        let energy = SystemEnergyModel::default();
        let start = std::time::Instant::now();
        let mut runs: Vec<(Vec<RunResult>, f64)> = Vec::new();
        for wl in shapes {
            let results: Vec<RunResult> = Design::all()
                .into_iter()
                .map(|d| t.span(replay_span(d), |_| run_design(d, wl, &cfg)))
                .collect();
            let thr = t.span("sim.throughput_s", |_| {
                run_design_throughput(Design::NdpEtOpt, wl, &cfg, STREAMS)
            });
            runs.push((results, thr.qps(mhz)));
        }
        let busy_s = start.elapsed().as_secs_f64();

        let mut rep = Rep {
            busy_s,
            ..Rep::default()
        };
        let (mut speedups, mut qps, mut nj, mut lat) = (vec![], vec![], vec![], vec![]);
        let mut opt_total = None::<RunResult>;
        for (wl, (results, thr_qps)) in shapes.iter().zip(&runs) {
            let base = &results[0];
            let opt = results.last().expect("nine designs");
            debug_assert_eq!(
                (base.design, opt.design),
                (Design::CpuBase, Design::NdpEtOpt)
            );
            rep.ops += (results.len() + 1) as u64 * wl.queries.len() as u64;
            rep.gate(opt.total_cycles < base.total_cycles, || {
                format!(
                    "NdpEtOpt is not faster than CpuBase on {}: {} vs {} cycles",
                    wl.name, opt.total_cycles, base.total_cycles
                )
            });
            rep.gate(wl.recall >= RECALL_FLOOR, || {
                format!(
                    "recall@10 {} on {} is below {RECALL_FLOOR}",
                    wl.recall, wl.name
                )
            });
            speedups.push(base.total_cycles as f64 / opt.total_cycles as f64);
            qps.push(*thr_qps);
            nj.push(energy.compute(opt, &cfg).total_nj() / opt.queries as f64);
            lat.push(cycles_to_us(opt.cycles_per_query(), mhz));
            opt_total = Some(match opt_total {
                None => opt.clone(),
                Some(acc) => add_runs(acc, opt),
            });
        }
        let recall = shapes.iter().map(|w| w.recall).sum::<f64>() / shapes.len() as f64;
        rep.metrics = vec![
            Metric::value("sim_speedup", "x", geomean(&speedups)),
            Metric::value("sim_qps", "1/s", geomean(&qps)),
            Metric::value("sim_energy_nj_per_query", "nJ", geomean(&nj)),
            Metric::value("sim_mean_us", "us", geomean(&lat)),
            Metric::value("recall_at_10", "frac", recall),
        ];
        for (wl, s) in shapes.iter().zip(&speedups) {
            rep.metrics
                .push(Metric::value(format!("sim.speedup.{}", wl.name), "x", *s));
        }
        let refs: Vec<&Workload> = shapes.iter().collect();
        rep.metrics.push(evals_per_query(&refs));
        rep.metrics
            .extend(layer_counts(&opt_total.expect("three shapes")));
        rep
    }

    fn probe(&self, shapes: &Vec<Workload>, seed: u64, t: &mut Tracer) {
        for (spec, wl) in specs(seed).iter().zip(shapes) {
            probe_preparation(spec, wl, t);
        }
    }
}

/// Sum two NdpEtOpt runs over different shapes into one set of counts.
fn add_runs(mut a: RunResult, b: &RunResult) -> RunResult {
    a.total_cycles += b.total_cycles;
    a.effectual_lines += b.effectual_lines;
    a.ineffectual_lines += b.ineffectual_lines;
    a.backup_lines += b.backup_lines;
    a.pruned_evals += b.pruned_evals;
    a.total_evals += b.total_evals;
    a.host_cpu_cycles += b.host_cpu_cycles;
    a.polls += b.polls;
    a.queries += b.queries;
    for (x, y) in a.rank_counts.iter_mut().zip(&b.rank_counts) {
        *x = (x.0 + y.0, x.1 + y.1, x.2 + y.2, x.3 + y.3, x.4 + y.4);
    }
    for (x, y) in a.rank_loads.iter_mut().zip(&b.rank_loads) {
        *x += y;
    }
    a
}

/// Per-layer counts of the NdpEtOpt replays summed over shapes.
fn layer_counts(opt: &RunResult) -> Vec<Metric> {
    let q = opt.queries as f64;
    let commands: u64 = opt
        .rank_counts
        .iter()
        .map(|c| c.0 + c.1 + c.2 + c.3 + c.4)
        .sum();
    let loads: Vec<f64> = opt.rank_loads.iter().map(|&l| l as f64).collect();
    let load_sum: f64 = loads.iter().sum();
    let load_max = loads.iter().copied().fold(0.0, f64::max);
    let ranks = loads.len() as f64;
    vec![
        Metric::ratio(
            "core.et_pruned_frac",
            "frac",
            opt.pruned_evals as f64,
            "core.evals",
            opt.total_evals as f64,
        ),
        Metric::ratio(
            "core.backup_lines_per_query",
            "lines",
            opt.backup_lines as f64,
            "queries",
            q,
        ),
        Metric::ratio(
            "dram.lines_per_query",
            "lines",
            opt.total_lines() as f64,
            "queries",
            q,
        ),
        Metric::ratio(
            "dram.fetch_utilization",
            "frac",
            opt.effectual_lines as f64,
            "dram.lines",
            opt.total_lines() as f64,
        ),
        Metric::ratio(
            "dram.commands_per_query",
            "commands",
            commands as f64,
            "queries",
            q,
        ),
        Metric::ratio(
            "ndp.polls_per_query",
            "polls",
            opt.polls as f64,
            "queries",
            q,
        ),
        Metric::ratio(
            "ndp.rank_load_imbalance",
            "x",
            load_max,
            "ndp.mean_rank_load",
            if ranks > 0.0 { load_sum / ranks } else { 0.0 },
        ),
        Metric::ratio(
            "host.cpu_cycles_per_query",
            "cycles",
            opt.host_cpu_cycles as f64,
            "queries",
            q,
        ),
    ]
}
