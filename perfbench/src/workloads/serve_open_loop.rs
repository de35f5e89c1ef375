//! `serve_open_loop`: independent users sending NdpEtOpt searches on a
//! Poisson schedule (an open loop), at four fixed offered rates from
//! light load to overload. The serving batch former and the
//! `sim::throughput` wave executor do the work. Latency is counted from
//! each request's scheduled arrival, so a backlog shows up as latency.
//!
//! The offered rates and the p99 limit are frozen here and recorded in
//! `BENCHMARK.json`: a model change moves latency, never the load. The
//! queue is unbounded and there are no deadlines, so nothing is shed and
//! the overloaded rate shows its backlog as queueing delay.

use ansmet_serve::{run_serve, AdmissionConfig, ServeConfig, ServeReport};
use ansmet_sim::{saturated_capacity_qps, Design, Workload};
use ansmet_vecdata::SynthSpec;

use super::{cycles_to_us, evals_per_query, probe_preparation, system_config, Bench, Rep, K};
use crate::report::Metric;
use crate::spans::Tracer;

/// Offered rates in queries per second: 0.3×, 0.6×, 0.9× and 1.2× of
/// the 2.66 Mqps this shape achieved under overload when the rates were
/// fixed.
pub const RATES_QPS: [f64; 4] = [0.8e6, 1.6e6, 2.4e6, 3.2e6];
/// Index into [`RATES_QPS`] of the reference rate the latency metrics
/// are reported at.
pub const REFERENCE: usize = 1;
/// p99 latency limit of `sim_max_qps_at_slo`, in microseconds.
pub const P99_LIMIT_US: f64 = 20.0;
/// Requests per rate: p99 then has at least ten samples beyond it.
const REQUESTS: usize = 1000;
/// Distinct queries the requests draw from.
const QUERIES: usize = 64;
/// Recall@10 the prepared workload must reach.
const RECALL_FLOOR: f64 = 0.8;

fn spec(seed: u64) -> SynthSpec {
    SynthSpec::sift().scaled(2000, QUERIES).with_seed(seed)
}

pub struct ServeOpenLoop;

impl Bench for ServeOpenLoop {
    type State = Workload;

    const WHY: &'static str = "open-loop Poisson NdpEtOpt serving at 0.8/1.6/2.4/3.2 Mqps (p99 limit 20 us): batch former, admission and wave executor";

    fn setup(&self, seed: u64, t: &mut Tracer) -> Workload {
        t.span("sim.prepare_s", |_| Workload::prepare(&spec(seed), K, None))
    }

    fn rep(&self, wl: &Workload, seed: u64, threads: usize, t: &mut Tracer) -> Rep {
        let cfg = system_config(threads);
        let mhz = cfg.dram.clock_mhz;
        let slo_cycles = (P99_LIMIT_US * mhz as f64) as u64;
        let start = std::time::Instant::now();
        let capacity = t.span("serve.capacity_s", |_| {
            saturated_capacity_qps(wl, &cfg, Design::NdpEtOpt)
        });
        let reports: Vec<ServeReport> = RATES_QPS
            .iter()
            .enumerate()
            .map(|(i, &qps)| {
                let mut serve =
                    ServeConfig::open_loop(seed.wrapping_add(i as u64), qps, REQUESTS, slo_cycles);
                serve.admission = AdmissionConfig {
                    max_queue_depth: usize::MAX,
                    deadline_cycles: None,
                };
                t.span("serve.run_s", |_| run_serve(wl, &cfg, &serve))
            })
            .collect();
        let busy_s = start.elapsed().as_secs_f64();

        let us = |cycles: u64| cycles_to_us(cycles as f64, mhz);
        let mut rep = Rep {
            busy_s,
            ops: reports.iter().map(ServeReport::offered).sum(),
            failed: reports.iter().map(ServeReport::shed).sum(),
            ..Rep::default()
        };
        rep.gate(wl.recall >= RECALL_FLOOR, || {
            format!("recall@10 {} is below {RECALL_FLOOR}", wl.recall)
        });
        let meets = |r: &ServeReport| r.shed() == 0 && us(r.total.p99) <= P99_LIMIT_US;
        let max_at_slo = RATES_QPS
            .iter()
            .zip(&reports)
            .filter(|(_, r)| meets(r))
            .map(|(&q, _)| q)
            .fold(None, |acc: Option<f64>, q| {
                Some(acc.map_or(q, |a| a.max(q)))
            });
        let r = &reports[REFERENCE];
        rep.metrics = vec![
            Metric::value("sim_p50_us", "us", us(r.total.p50)),
            Metric::value("sim_p99_us", "us", us(r.total.p99)),
            Metric::value("sim_mean_us", "us", cycles_to_us(r.total.mean, mhz)),
            Metric::maybe("sim_max_qps_at_slo", "1/s", max_at_slo),
            Metric::value("recall_at_10", "frac", wl.recall),
        ];
        for (&qps, r) in RATES_QPS.iter().zip(&reports) {
            let tag = (qps / 1e3) as u64;
            rep.metrics.extend([
                Metric::value(format!("serve.p50_us.{tag}kqps"), "us", us(r.total.p50)),
                Metric::value(format!("serve.p99_us.{tag}kqps"), "us", us(r.total.p99)),
                Metric::value(
                    format!("serve.achieved_qps.{tag}kqps"),
                    "1/s",
                    r.achieved_qps(),
                ),
            ]);
        }
        rep.metrics.extend([
            evals_per_query(&[wl]),
            Metric::value("serve.capacity_qps", "1/s", capacity),
            Metric::ratio(
                "serve.mean_batch_size",
                "queries",
                r.batched_queries as f64,
                "serve.batches",
                r.batches as f64,
            ),
            Metric::value("serve.queue_p99_us", "us", us(r.queue.p99)),
            Metric::value("serve.execute_p99_us", "us", us(r.execute.p99)),
            Metric::value("serve.shed", "count", rep.failed as f64),
        ]);
        rep
    }

    fn probe(&self, wl: &Workload, seed: u64, t: &mut Tracer) {
        probe_preparation(&spec(seed), wl, t);
    }
}
