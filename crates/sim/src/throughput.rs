//! Multi-stream throughput simulation.
//!
//! [`run_design`](crate::timing::run_design) measures single-query
//! latency: one search thread, one hop in flight. Real deployments run
//! one query per host core (Table 1: 16 cores), so the rank-level
//! parallelism of many NDP units is only exercised when several queries'
//! comparison batches are in flight together — which is where the
//! paper's Table 3 scaling (8 → 64 units) comes from.
//!
//! This module models that regime with *wave scheduling*: up to
//! `streams` queries progress in lock-step; each wave merges one hop
//! from every active query into a single NDP batch executed on the
//! shared memory system. Host-side costs of different streams run on
//! different cores, so a wave pays only the slowest stream's host work.

use std::cell::OnceCell;

use ansmet_core::NoopEtObserver;
use ansmet_dram::MemorySystem;
use ansmet_index::HopKind;
use ansmet_ndp::LoadTracker;

use ansmet_obs::{NoopSink, TraceSink};

use crate::config::SystemConfig;
use crate::design::Design;
use crate::timing::{idle_until, row_buffer_delta, run_ndp_batch, DeviceModel, EvalScratch};
use crate::workload::Workload;

/// Result of a throughput run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThroughputResult {
    /// The design simulated.
    pub design: Design,
    /// Wall-clock memory cycles to finish every query.
    pub total_cycles: u64,
    /// Number of queries completed.
    pub queries: usize,
    /// Concurrent streams used.
    pub streams: usize,
}

impl ThroughputResult {
    /// Queries per second at `mem_clock_mhz`.
    pub fn qps(&self, mem_clock_mhz: u64) -> f64 {
        let secs = self.total_cycles as f64 / (mem_clock_mhz as f64 * 1e6);
        self.queries as f64 / secs.max(1e-12)
    }
}

/// Cycle accounting for one executed wave batch.
///
/// Returned by [`WaveContext::execute`]: `total_cycles` is how long the
/// batch occupied the NDP device, and `per_query_cycles[i]` is the cycle
/// (relative to batch start) at which the `i`-th query of the batch
/// retired — its last hop's wave closed and its results were polled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchExecution {
    /// Device-occupancy cycles for the whole batch.
    pub total_cycles: u64,
    /// Per-query retire cycle, aligned with the `query_ids` argument.
    pub per_query_cycles: Vec<u64>,
}

/// Functional early-termination outcomes of one query's trace, packed
/// flat: per comparison, the lines each sub-vector fetches and the
/// natural-layout backup lines (charged on its first sub-vector).
struct QueryOutcomes {
    /// Index of each hop's first comparison (`hops + 1` entries; centroid
    /// hops run on the host and span none).
    hop_start: Vec<u32>,
    /// Lines per sub-vector, `subvectors_per_vector` entries per comparison.
    lines: Vec<u16>,
    /// Backup lines per comparison.
    backup: Vec<u16>,
}

/// Prepared wave-model state for one `(design, workload, config)`
/// triple, reusable across many batches.
///
/// The offline throughput experiment runs one big batch over the whole
/// workload; the online serving layer (`ansmet-serve`) forms small
/// dynamic batches from queued arrivals and executes each through
/// [`WaveContext::execute`]. Each execution replays the batch on fresh
/// memory/NDP state, so a batch's cost depends only on its member
/// queries — never on what the device ran before. That independence is
/// the serving determinism contract.
///
/// The device itself — partitioner, layout, early-termination engine,
/// hot-vector replicas, placement, per-comparison evaluation and line
/// addresses — is the same model the latency replay
/// ([`run_design`](crate::run_design)) uses. Execution splits into a
/// functional part and a timing part. The functional part — every
/// comparison's early-termination outcome — is a pure function of the
/// query, the candidate, its sub-vector dims and the trace threshold, so
/// it is evaluated once per query, the first time the query executes,
/// and kept for the context's lifetime. Replica choice moves a
/// sub-vector's rank, never its dims, so the cached outcome holds
/// whichever group serves the candidate. The timing part (rank
/// placement, DRAM replay, polling) runs on every execution.
pub struct WaveContext<'a> {
    dev: DeviceModel<'a>,
    /// Per-query outcome table, filled on first execution.
    outcomes: Vec<OnceCell<QueryOutcomes>>,
    #[cfg(test)]
    fills: std::cell::Cell<usize>,
}

impl<'a> WaveContext<'a> {
    /// Prepare the wave executor.
    ///
    /// # Panics
    ///
    /// Panics for CPU designs (their throughput is `cores ×` the latency
    /// result, already contention-modeled).
    pub fn new(design: Design, workload: &'a Workload, config: &'a SystemConfig) -> Self {
        assert!(design.is_ndp(), "throughput waves model the NDP designs");
        WaveContext {
            dev: DeviceModel::new(design, workload, config),
            outcomes: (0..workload.traces.len())
                .map(|_| OnceCell::new())
                .collect(),
            #[cfg(test)]
            fills: std::cell::Cell::new(0),
        }
    }

    /// The design this context executes.
    pub fn design(&self) -> Design {
        self.dev.design
    }

    /// Execute the queries named by `query_ids` (indices into the
    /// workload's trace list) as one cohort of lock-step waves on fresh
    /// device state, all in flight together from cycle 0.
    ///
    /// # Panics
    ///
    /// Panics if `query_ids` is empty or any index is out of range.
    pub fn execute(&self, query_ids: &[usize]) -> BatchExecution {
        assert!(!query_ids.is_empty(), "empty batch");
        self.execute_streams(query_ids, query_ids.len())
    }

    /// [`execute`](WaveContext::execute) with a [`TraceSink`] riding
    /// along: per-wave DRAM row-buffer outcome deltas are emitted as
    /// [`RowBuffer`](ansmet_obs::EventKind::RowBuffer) events rebased to
    /// `base_cycle` (the caller's serving-clock dispatch cycle). The
    /// sink observes, never steers: with [`NoopSink`] this is
    /// bit-identical to [`execute`](WaveContext::execute), and snapshot
    /// work is skipped entirely when the sink is disabled.
    pub fn execute_with_sink<S: TraceSink>(
        &self,
        query_ids: &[usize],
        sink: &mut S,
        base_cycle: u64,
    ) -> BatchExecution {
        assert!(!query_ids.is_empty(), "empty batch");
        self.execute_streams_sink(query_ids, query_ids.len(), sink, base_cycle)
    }

    /// Execute `query_ids` with at most `streams` in flight at once;
    /// finished streams refill from the remaining ids in order.
    pub fn execute_streams(&self, query_ids: &[usize], streams: usize) -> BatchExecution {
        self.execute_streams_sink(query_ids, streams, &mut NoopSink, 0)
    }

    /// Query `qi`'s outcome table, evaluating it on first use.
    fn outcomes(&self, qi: usize) -> &QueryOutcomes {
        self.outcomes[qi].get_or_init(|| self.evaluate_query(qi))
    }

    /// Evaluate every non-centroid comparison of query `qi` against its
    /// home placement: the one early-termination site of the wave model.
    fn evaluate_query(&self, qi: usize) -> QueryOutcomes {
        #[cfg(test)]
        self.fills.set(self.fills.get() + 1);
        let dev = &self.dev;
        let trace = &dev.workload.traces[qi];
        let query = &dev.workload.queries[qi];
        let small = |n: usize| u16::try_from(n).expect("line count fits u16");
        let mut out = QueryOutcomes {
            hop_start: vec![0],
            lines: Vec::new(),
            backup: Vec::new(),
        };
        let mut scratch = EvalScratch::default();
        for hop in &trace.hops {
            if hop.kind != HopKind::Centroid {
                for e in &hop.evals {
                    let home = dev.partitioner.placement(e.id);
                    dev.evaluate(
                        e.id,
                        query,
                        e.threshold,
                        &home,
                        &mut scratch,
                        &mut NoopEtObserver,
                    );
                    out.lines
                        .extend(scratch.eval.lines.iter().map(|&l| small(l)));
                    out.backup.push(small(scratch.eval.backup_lines));
                }
            }
            let evals = u32::try_from(out.backup.len()).expect("comparison count fits u32");
            out.hop_start.push(evals);
        }
        out
    }

    /// [`execute_streams`](WaveContext::execute_streams) with a sink.
    fn execute_streams_sink<S: TraceSink>(
        &self,
        query_ids: &[usize],
        streams: usize,
        sink: &mut S,
        base_cycle: u64,
    ) -> BatchExecution {
        assert!(streams > 0, "need at least one stream");
        let dev = &self.dev;
        let workload = dev.workload;
        let config = dev.config;
        let mem_clock = config.dram.clock_mhz;
        let cpu = &config.cpu;
        let n_ranks = config.ndp_units();
        let subvecs = dev.partitioner.subvectors_per_vector();

        let mut loads = LoadTracker::new(n_ranks, dev.partitioner.group_size());
        let mut mem = MemorySystem::new(config.dram.clone());

        // Stream cursors: (position in `query_ids`, hop index).
        let mut next_pos = 0usize;
        let mut cursors: Vec<(usize, usize)> = Vec::new();
        // Whether stream position `pos` has uploaded its query to rank
        // `r`: entry `pos * n_ranks + r`.
        let mut uploaded = vec![false; query_ids.len() * n_ranks];
        let mut req_base = 0u64;
        let mut clock = 0u64;
        let mut retire = vec![0u64; query_ids.len()];

        loop {
            // Refill streams.
            while cursors.len() < streams && next_pos < query_ids.len() {
                cursors.push((next_pos, 0));
                next_pos += 1;
            }
            if cursors.is_empty() {
                break;
            }

            // Build one wave: the current hop of every stream. Host work of
            // different streams runs on different cores; set-query uploads
            // overlap the fetch batch (§5.2). Waves in a real system are
            // de-synchronized, so serial host work is charged at its mean.
            let mut host_serial_sum = 0u64;
            let mut upload_max = 0u64;
            let mut subs = Vec::new();
            for &(pos, hop_idx) in &cursors {
                let qi = query_ids[pos];
                let hop = &workload.traces[qi].hops[hop_idx];
                let accepted = hop.evals.iter().filter(|e| e.accepted).count();
                let mut host = cpu.hop_cycles(hop.evals.len(), accepted);
                let mut upload = 0u64;
                if hop.kind == HopKind::Centroid {
                    host += cpu.distance_compute_cycles(dev.natural_lines) * hop.evals.len() as u64;
                } else {
                    let out = self.outcomes(qi);
                    let first = out.hop_start[hop_idx] as usize;
                    for (ei, e) in (first..).zip(&hop.evals) {
                        let placements = dev.placement(e.id, &loads);
                        let lines = &out.lines[ei * subvecs..(ei + 1) * subvecs];
                        let backup = out.backup[ei] as usize;
                        dev.push_subs(e.id, &placements, lines, backup, &mut loads, &mut subs);
                        for p in &placements {
                            let first_touch = &mut uploaded[pos * n_ranks + p.rank];
                            if !*first_touch {
                                *first_touch = true;
                                upload += cpu.query_upload_cycles(dev.query_bytes);
                            }
                        }
                    }
                    let evals = hop.evals.len();
                    host += cpu.offload_cycles(evals.max(1));
                }
                host_serial_sum += cpu.to_mem_cycles(host, mem_clock);
                upload_max = upload_max.max(cpu.to_mem_cycles(upload, mem_clock));
            }

            clock += host_serial_sum / cursors.len().max(1) as u64;
            if !subs.is_empty() {
                let t0 = clock.max(mem.now());
                let stats_before = sink.enabled().then(|| mem.stats().clone());
                let finish = run_ndp_batch(
                    &mut mem,
                    &mut subs,
                    ansmet_ndp::qshr::QSHRS_PER_UNIT,
                    &mut req_base,
                    t0,
                    &mut NoopSink,
                    t0,
                )
                .max(t0 + upload_max);
                if let Some(s0) = stats_before {
                    row_buffer_delta(sink, base_cycle + finish, &s0, mem.stats());
                }
                // One poll round closes the wave (streams poll in parallel on
                // their own cores).
                clock = finish + cpu.to_mem_cycles(cpu.poll_cycles(), mem_clock);
                idle_until(&mut mem, clock);
                clock = clock.max(mem.now());
            }

            // Advance streams; retire finished queries at the close of
            // the wave that executed their last hop.
            cursors = cursors
                .into_iter()
                .filter_map(|(pos, hop_idx)| {
                    if hop_idx + 1 < workload.traces[query_ids[pos]].hops.len() {
                        Some((pos, hop_idx + 1))
                    } else {
                        retire[pos] = clock.max(1);
                        None
                    }
                })
                .collect();
        }

        crate::parallel::record_mem_cycles(&mem);
        BatchExecution {
            total_cycles: clock.max(1),
            per_query_cycles: retire,
        }
    }
}

/// Estimate device capacity (QPS) by executing the whole workload as one
/// saturated cohort through the wave model. The serving and resilience
/// experiments use this to place their offered load relative to what the
/// device can actually sustain.
pub fn saturated_capacity_qps(workload: &Workload, config: &SystemConfig, design: Design) -> f64 {
    let ctx = WaveContext::new(design, workload, config);
    let ids: Vec<usize> = (0..workload.traces.len()).collect();
    let exec = ctx.execute(&ids);
    let secs = exec.total_cycles as f64 / (config.dram.clock_mhz as f64 * 1e6);
    ids.len() as f64 / secs.max(1e-12)
}

/// Run `design` over `workload` with up to `streams` concurrent query
/// streams (NDP designs only).
///
/// # Panics
///
/// Panics for CPU designs (their throughput is `cores ×` the latency
/// result, already contention-modeled) or `streams == 0`.
pub fn run_design_throughput(
    design: Design,
    workload: &Workload,
    config: &SystemConfig,
    streams: usize,
) -> ThroughputResult {
    let ctx = WaveContext::new(design, workload, config);
    let n_queries = workload.traces.len();
    let ids: Vec<usize> = (0..n_queries).collect();
    let exec = ctx.execute_streams(&ids, streams);
    ThroughputResult {
        design,
        total_cycles: exec.total_cycles,
        queries: n_queries,
        streams,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_vecdata::SynthSpec;

    #[test]
    fn more_streams_more_throughput() {
        let wl = Workload::prepare(&SynthSpec::sift().scaled(600, 6), 10, Some(40));
        let cfg = SystemConfig::default();
        let one = run_design_throughput(Design::NdpBase, &wl, &cfg, 1);
        let many = run_design_throughput(Design::NdpBase, &wl, &cfg, 8);
        assert!(
            many.qps(2400) > one.qps(2400),
            "8 streams {:.0} qps vs 1 stream {:.0} qps",
            many.qps(2400),
            one.qps(2400)
        );
    }

    #[test]
    fn more_units_help_under_load() {
        let wl = Workload::prepare(&SynthSpec::gist().scaled(400, 6), 10, Some(40));
        let r8 = run_design_throughput(
            Design::NdpEtOpt,
            &wl,
            &SystemConfig::default().with_ndp_units(8),
            16,
        );
        let r32 = run_design_throughput(
            Design::NdpEtOpt,
            &wl,
            &SystemConfig::default().with_ndp_units(32),
            16,
        );
        assert!(
            r32.total_cycles <= r8.total_cycles,
            "32 units {} vs 8 units {}",
            r32.total_cycles,
            r8.total_cycles
        );
    }

    #[test]
    fn outcome_table_fills_once_per_query() {
        let wl = Workload::prepare(&SynthSpec::gist().scaled(300, 6), 10, Some(24));
        let cfg = SystemConfig::default();
        let ctx = WaveContext::new(Design::NdpEtOpt, &wl, &cfg);
        let batches: [&[usize]; 5] = [&[0, 1], &[1, 2, 1], &[3], &[2, 3, 0, 4], &[4, 0]];
        for b in batches {
            ctx.execute(b);
        }
        ctx.execute_streams(&[1, 3, 4, 2], 2);
        assert_eq!(ctx.fills.get(), 5, "queries 0..5 filled once each");
        assert!(
            ctx.outcomes[5].get().is_none(),
            "unexecuted query stays empty"
        );
    }

    #[test]
    #[should_panic(expected = "NDP designs")]
    fn cpu_design_rejected() {
        let wl = Workload::prepare(&SynthSpec::sift().scaled(200, 1), 10, Some(20));
        run_design_throughput(Design::CpuBase, &wl, &SystemConfig::default(), 4);
    }
}
