//! The serving plane: configuration, and the [`kernel`] backend that
//! executes each dispatched batch through the wave model
//! ([`WaveContext`]) of the cycle-level simulator.
//!
//! The backend adds fault recovery (one fleet path for point faults,
//! storms and the resilience layer), brownout-shifted admission limits
//! and deadlines, and scheduled maintenance pauses. Batches execute on
//! fresh device state and latencies feed integer histograms, so one seed
//! and one config produce one bit-identical report, independent of host
//! thread count or run-to-run jitter (enforced by `tests/serving.rs`).

use ansmet_faults::{FaultInjector, FaultPlan, FaultRates, StormPlan};
use ansmet_host::RetryPolicy;
use ansmet_ndp::Partitioner;
use ansmet_obs::{EventKind, LatencyHistogram, NoopSink, TraceSink};
use ansmet_sim::{Design, SystemConfig, WaveContext, Workload};

use crate::arrival::{generate_arrivals, Arrival, TenantSpec};
use crate::kernel::{self, Completion, Executed, ItemCycles, PlaneMetrics};
use crate::report::{qps_over, PercentileSummary, ServeReport, TenantReport};
use crate::resilience::{FleetState, ResilienceConfig, StormProfile, WindowStats};

/// Dynamic batch-formation policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Most queries one batch may carry.
    pub max_batch: usize,
    /// Longest the oldest queued query may wait for co-batchees, in
    /// memory cycles, before the batch dispatches part-full.
    pub max_linger_cycles: u64,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        BatchPolicy {
            max_batch: 8,
            max_linger_cycles: 4_000,
        }
    }
}

/// Admission-control policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Queue-depth backpressure: an arrival finding this many queries
    /// already queued is shed immediately.
    pub max_queue_depth: usize,
    /// Optional per-query deadline in cycles: a query still queued this
    /// long after arrival is shed at dispatch time instead of executed
    /// (it could no longer meet any SLO, so executing it wastes device
    /// time that fresher queries need).
    pub deadline_cycles: Option<u64>,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_queue_depth: 256,
            deadline_cycles: None,
        }
    }
}

/// Fault-injection profile for a serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultProfile {
    /// Per-operation fault probabilities.
    pub rates: FaultRates,
    /// Seed for the generated [`FaultPlan`].
    pub seed: u64,
    /// Host-side recovery policy.
    pub retry: RetryPolicy,
}

/// Full configuration of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Seed for arrival generation (and query selection).
    pub seed: u64,
    /// The hardware design serving the traffic (NDP designs only).
    pub design: Design,
    /// The tenants sharing the device.
    pub tenants: Vec<TenantSpec>,
    /// Batch-formation policy.
    pub batch: BatchPolicy,
    /// Admission-control policy.
    pub admission: AdmissionConfig,
    /// Optional fault injection (recovery shows up as tail latency).
    pub faults: Option<FaultProfile>,
    /// Optional scripted sustained-degradation storm (rank groups sick
    /// over serving-clock windows).
    pub storm: Option<StormProfile>,
    /// Optional fleet-resilience layer (health tracking, circuit
    /// breakers, hedged offloads, brownout admission).
    pub resilience: Option<ResilienceConfig>,
    /// Optional scheduled maintenance: periodic compaction-style pauses
    /// that hold the device (models the freshness tier's epoch work on
    /// the serving path). `None` leaves the engine bit-identical to the
    /// pre-maintenance behavior.
    pub maintenance: Option<MaintenancePlan>,
}

/// Periodic device-pause schedule (compaction / re-validation work).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MaintenancePlan {
    /// Cycles between pause opportunities. The pause fires at the first
    /// scheduling decision at or after each due cycle.
    pub interval_cycles: u64,
    /// Cycles the device is held per pause.
    pub pause_cycles: u64,
}

impl ServeConfig {
    /// A single-tenant Poisson workload: `queries` arrivals at `qps`
    /// with SLO `slo_cycles`, served by `NdpEtOpt`.
    pub fn open_loop(seed: u64, qps: f64, queries: usize, slo_cycles: u64) -> Self {
        ServeConfig {
            seed,
            design: Design::NdpEtOpt,
            tenants: vec![TenantSpec {
                name: "default".into(),
                weight: 1,
                process: crate::arrival::ArrivalProcess::Poisson { qps },
                slo_cycles,
                queries,
            }],
            batch: BatchPolicy::default(),
            admission: AdmissionConfig::default(),
            faults: None,
            storm: None,
            resilience: None,
            maintenance: None,
        }
    }

    /// The same config with every tenant's offered load scaled so the
    /// aggregate nominal rate becomes `total_qps` (ratios preserved).
    ///
    /// # Panics
    ///
    /// Panics if the current aggregate nominal rate is zero.
    pub fn with_total_qps(&self, total_qps: f64, mem_clock_mhz: u64) -> Self {
        let current: f64 = self
            .tenants
            .iter()
            .map(|t| t.process.nominal_qps(mem_clock_mhz))
            .sum();
        assert!(current > 0.0, "aggregate offered load is zero");
        let factor = total_qps / current;
        let mut out = self.clone();
        for t in &mut out.tenants {
            t.process = t.process.scaled(factor);
        }
        out
    }

    /// The same config with fault injection enabled.
    pub fn with_faults(mut self, profile: FaultProfile) -> Self {
        self.faults = Some(profile);
        self
    }

    /// The same config with a scripted storm enabled.
    pub fn with_storm(mut self, storm: StormProfile) -> Self {
        self.storm = Some(storm);
        self
    }

    /// The same config with the fleet-resilience layer enabled.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = Some(resilience);
        self
    }

    /// The same config with scheduled maintenance pauses enabled.
    pub fn with_maintenance(mut self, plan: MaintenancePlan) -> Self {
        self.maintenance = Some(plan);
        self
    }
}

/// Cycles one abandoned poll window costs when a batch times out
/// (mirrors the degraded-mode runner's deadline scale). Shared with the
/// cluster plane's shard-failover cost model.
pub const TIMEOUT_PENALTY_CYCLES: u64 = 4_096;
/// One conventional poll period (100 ns at DDR5-4800), charged per
/// transient poll miss.
pub const POLL_MISS_PENALTY_CYCLES: u64 = 240;
/// Cycles per 64 B line for the host's exact-fallback recompute
/// (matches `ansmet_sim::degraded`).
pub const FALLBACK_CYCLES_PER_LINE: u64 = 60;

/// FNV-1a over the served queries' neighbor ids, in arrival order.
///
/// Faults must never change *what* a query returns, only *when* — so a
/// faulted run over the same served set hashes to the same fingerprint.
fn results_fingerprint(served: &[Option<usize>], workload: &Workload) -> u64 {
    let mut h = ansmet_obs::Fnv64::new();
    for q in served.iter().flatten() {
        h.write_u64(*q as u64 + 1);
        for &id in &workload.results[*q] {
            h.write_u64(id as u64);
        }
    }
    h.finish()
}

/// Run one online serving simulation.
///
/// # Panics
///
/// Panics on an empty tenant list, a CPU design, a zero batch size, or
/// a workload with no queries.
pub fn run_serve(workload: &Workload, config: &SystemConfig, serve: &ServeConfig) -> ServeReport {
    run_serve_with_sink(workload, config, serve, &mut NoopSink)
}

/// [`run_serve`] with a [`TraceSink`] riding along.
///
/// Spans are stamped on the serving clock (absolute memory cycles):
/// each completed query contributes a queue span from arrival to
/// dispatch, an execute span for its wave retirement, and — under fault
/// injection — a recovery span covering its penalty. Point events mark
/// batch formation, sheds, and recovery retries/CRC rejections/host
/// fallbacks. The sink observes the run, never steers it: with
/// [`NoopSink`] the report is bit-identical to [`run_serve`].
///
/// # Panics
///
/// Panics on an empty tenant list, a CPU design, a zero batch size, or
/// a workload with no queries.
pub fn run_serve_with_sink<S: TraceSink>(
    workload: &Workload,
    config: &SystemConfig,
    serve: &ServeConfig,
    sink: &mut S,
) -> ServeReport {
    assert!(!workload.queries.is_empty(), "empty workload");
    let mem_clock = config.dram.clock_mhz;
    let arrivals = generate_arrivals(
        &serve.tenants,
        workload.queries.len(),
        serve.seed,
        mem_clock,
    );
    let partitioner = Partitioner::new(
        config.partition,
        config.ndp_units(),
        workload.data.dim(),
        workload.data.dtype().bytes(),
    );
    let make_injector = |f: &FaultProfile| {
        let evals: u64 = workload
            .traces
            .iter()
            .map(|t| t.total_evals() as u64)
            .sum::<u64>();
        // Upper-bound ops per rank: every arrival replays a trace, plus
        // retry re-offloads.
        let per_rank = (arrivals.len() as u64 * evals * 2)
            / (config.ndp_units() as u64).max(1)
            / (workload.traces.len() as u64).max(1)
            + 64;
        let plan = FaultPlan::random(f.seed, config.ndp_units(), per_rank, f.rates);
        FaultInjector::new(plan)
    };
    // Point faults, a storm, or the resilience layer all recover through
    // the fleet path; with only point faults it runs with no storm and no
    // breakers, hedging or brownout.
    let faulted = serve.faults.is_some() || serve.storm.is_some() || serve.resilience.is_some();
    let recovery = faulted.then(|| {
        let retry = serve
            .storm
            .as_ref()
            .map(|s| s.retry)
            .or_else(|| serve.faults.as_ref().map(|f| f.retry))
            .unwrap_or_else(RetryPolicy::default_ndp);
        let plan = serve
            .storm
            .as_ref()
            .map(|s| s.plan.clone())
            .unwrap_or_else(StormPlan::none);
        FleetState::new(
            workload,
            &partitioner,
            serve.faults.as_ref().map(make_injector),
            retry,
            plan,
            serve.resilience,
        )
    });

    let mut backend = ServeBackend {
        serve,
        workload,
        ctx: WaveContext::new(serve.design, workload, config),
        partitioner,
        recovery,
        top_weight: serve.tenants.iter().map(|t| t.weight).max().unwrap_or(1),
        brownout: 0,
        storm_span: serve.storm.as_ref().and_then(|s| s.plan.span()),
        tenants: serve
            .tenants
            .iter()
            .map(|spec| TenantReport {
                name: spec.name.clone(),
                weight: spec.weight,
                slo_cycles: spec.slo_cycles,
                ..TenantReport::default()
            })
            .collect(),
        tenant_hists: vec![LatencyHistogram::new(); serve.tenants.len()],
        windows: Default::default(),
        window_hists: Default::default(),
        hists: Default::default(),
        served: vec![None; arrivals.len()],
        batches: 0,
        batched_queries: 0,
        makespan: 0,
        next_maintenance: serve.maintenance.map(|p| p.interval_cycles),
        maintenance_epoch: 0,
    };
    let weights: Vec<u64> = serve.tenants.iter().map(|t| t.weight).collect();
    kernel::run(&arrivals, &weights, serve.batch, &mut backend, sink);
    backend.finish(&arrivals, mem_clock, sink)
}

/// The serving plane as a [`kernel::Backend`]: wave execution with
/// fault recovery, brownout-shifted admission, and maintenance pauses.
struct ServeBackend<'a> {
    serve: &'a ServeConfig,
    workload: &'a Workload,
    ctx: WaveContext<'a>,
    partitioner: Partitioner,
    /// Fault recovery (point faults, storm script, breakers, hedging,
    /// brownout); `None` when the run injects no faults, so every query
    /// completes at its wave retirement.
    recovery: Option<FleetState>,
    top_weight: u64,
    /// Brownout level for the current scheduling round.
    brownout: u32,
    storm_span: Option<(u64, u64)>,
    /// Per-tenant counts; latency summaries are filled in at the end.
    tenants: Vec<TenantReport>,
    tenant_hists: Vec<LatencyHistogram>,
    /// Before / during / after the storm.
    windows: [WindowStats; 3],
    window_hists: [LatencyHistogram; 3],
    /// Queue, execute, and total latency.
    hists: [LatencyHistogram; 3],
    /// Query served per arrival index (`None` if shed).
    served: Vec<Option<usize>>,
    batches: u64,
    batched_queries: u64,
    makespan: u64,
    next_maintenance: Option<u64>,
    maintenance_epoch: u32,
}

impl ServeBackend<'_> {
    /// Brownout tightens admission by this many halvings for `tenant`;
    /// high-priority (top-weight) tenants are shifted half as hard.
    fn shift(&self, tenant: usize) -> u32 {
        if self.serve.tenants[tenant].weight >= self.top_weight {
            self.brownout / 2
        } else {
            self.brownout
        }
    }

    /// Storm phase of `cycle`: 0 before, 1 during, 2 after.
    fn window_of(&self, cycle: u64) -> usize {
        match self.storm_span {
            Some((start, _)) if cycle < start => 0,
            Some((_, end)) if cycle < end => 1,
            _ => 2,
        }
    }

    /// Close the run: emit the totals and assemble the report.
    fn finish<S: TraceSink>(
        mut self,
        arrivals: &[Arrival],
        mem_clock_mhz: u64,
        sink: &mut S,
    ) -> ServeReport {
        for a in arrivals {
            self.tenants[a.tenant].offered += 1;
            self.windows[self.window_of(a.cycle)].offered += 1;
        }
        let makespan_cycles = self.makespan;
        for (t, h) in self.tenants.iter_mut().zip(&self.tenant_hists) {
            t.achieved_qps = qps_over(t.completed, makespan_cycles, mem_clock_mhz);
            t.total = PercentileSummary::from_histogram(h);
        }
        let sum = |f: fn(&TenantReport) -> u64| self.tenants.iter().map(f).sum();
        sink.counter("serve.batches", self.batches);
        sink.counter("serve.batched_queries", self.batched_queries);
        sink.counter("serve.shed_queue", sum(|t| t.shed_queue));
        sink.counter("serve.shed_deadline", sum(|t| t.shed_deadline));
        sink.counter("serve.completed", sum(|t| t.completed));
        sink.gauge_max("serve.makespan_cycles", makespan_cycles);

        let fleet = self.recovery.as_ref();
        let recovery = fleet.map(|fl| fl.recovery_report());
        // A faults-only run reports its recovery counters but no
        // resilience section: nothing it configured is resilience.
        let resilience = fleet
            .filter(|_| self.serve.storm.is_some() || self.serve.resilience.is_some())
            .map(|fl| {
                let windows = self.storm_span.map(|(start, end)| {
                    for (stats, h) in self.windows.iter_mut().zip(&self.window_hists) {
                        stats.p99_cycles = h.quantile(0.99);
                    }
                    let [before, during, after] = self.windows;
                    (start, end, before, during, after)
                });
                fl.resilience_report(windows)
            });
        let [queue, execute, total] = self.hists.each_ref().map(PercentileSummary::from_histogram);
        ServeReport {
            design: self.serve.design,
            seed: self.serve.seed,
            mem_clock_mhz,
            makespan_cycles,
            batches: self.batches,
            batched_queries: self.batched_queries,
            queue,
            execute,
            total,
            results_fingerprint: results_fingerprint(&self.served, self.workload),
            tenants: self.tenants,
            recovery,
            resilience,
        }
    }
}

impl kernel::Backend for ServeBackend<'_> {
    const METRICS: PlaneMetrics = PlaneMetrics {
        queue_depth: "serve.queue_depth",
        queue_cycles: "serve.queue_cycles",
        exec_cycles: "serve.exec_cycles",
        total_cycles: "serve.total_cycles",
    };

    fn begin_round<S: TraceSink>(&mut self, now: u64, sink: &mut S) {
        // Brownout: detected capacity loss (open breakers) tightens
        // admission before this round.
        self.brownout = match &mut self.recovery {
            Some(fl) => fl.brownout_level(now, sink),
            None => 0,
        };
    }

    fn depth_limit(&self, tenant: usize) -> usize {
        (self.serve.admission.max_queue_depth >> self.shift(tenant)).max(1)
    }

    fn deadline(&self, tenant: usize) -> Option<u64> {
        self.serve
            .admission
            .deadline_cycles
            .map(|dl| (dl >> self.shift(tenant)).max(1))
    }

    fn shed(&mut self, arrival: &Arrival, deadline: bool) {
        let tenant = &mut self.tenants[arrival.tenant];
        if deadline {
            tenant.shed_deadline += 1;
        } else {
            tenant.shed_queue += 1;
        }
        if self.brownout > 0 {
            if let Some(fl) = &mut self.recovery {
                fl.brownout_sheds += 1;
            }
        }
    }

    fn execute<S: TraceSink>(&mut self, batch: &[Arrival], now: u64, sink: &mut S) -> Executed {
        // Execute the batch on fresh device state.
        let ids: Vec<usize> = batch.iter().map(|a| a.query).collect();
        let exec = self.ctx.execute_with_sink(&ids, sink, now);
        self.batches += 1;
        self.batched_queries += batch.len() as u64;
        sink.event(
            now,
            EventKind::BatchFormed {
                size: batch.len() as u32,
            },
        );

        // Fault-recovery penalties stretch individual completions and
        // hold the device (the wave's close waits for recovery).
        let (workload, partitioner) = (self.workload, &self.partitioner);
        let penalties: Vec<u64> = batch
            .iter()
            .map(|a| match &mut self.recovery {
                Some(fl) => fl.query_penalty(workload, a.query, partitioner, now, sink),
                None => 0,
            })
            .collect();
        if let Some(fl) = &mut self.recovery {
            fl.rec.added_latency_cycles += penalties.iter().sum::<u64>();
        }
        let max_penalty = penalties.iter().copied().max().unwrap_or(0);
        Executed {
            items: exec
                .per_query_cycles
                .iter()
                .zip(&penalties)
                .map(|(&retire, &penalty)| ItemCycles { retire, penalty })
                .collect(),
            hold: exec.total_cycles + max_penalty,
        }
    }

    fn complete(&mut self, done: &Completion) {
        let total = done.total_cycles();
        for (h, v) in self
            .hists
            .iter_mut()
            .zip([done.queue_cycles(), done.exec_cycles(), total])
        {
            h.record(v);
        }
        let (t, w) = (done.arrival.tenant, self.window_of(done.arrival.cycle));
        self.tenants[t].completed += 1;
        self.tenant_hists[t].record(total);
        self.windows[w].completed += 1;
        self.window_hists[w].record(total);
        if total <= self.tenants[t].slo_cycles {
            self.tenants[t].slo_attained += 1;
            self.windows[w].slo_attained += 1;
        }
        self.makespan = self.makespan.max(done.at());
        self.served[done.index] = Some(done.arrival.query);
    }

    fn pause_due(&self) -> Option<u64> {
        self.next_maintenance
    }

    fn pause<S: TraceSink>(&mut self, now: u64, sink: &mut S) -> u64 {
        let plan = self
            .serve
            .maintenance
            .expect("a pause is due only under a plan");
        sink.event(
            now,
            EventKind::CompactionPause {
                epoch: self.maintenance_epoch,
                cycles: plan.pause_cycles.min(u32::MAX as u64) as u32,
            },
        );
        self.maintenance_epoch += 1;
        // The next pause is due one interval after this one *ends*, so
        // serving always resumes between pauses even when the pause is
        // longer than the interval.
        self.next_maintenance = Some(now + plan.pause_cycles + plan.interval_cycles);
        plan.pause_cycles
    }
}
