//! Churn-aware serving: a mixed read/write arrival stream through the
//! serving kernel ([`ansmet_serve::kernel`]), with epochs as its pauses.
//!
//! Query tenants ([`TenantSpec`], the serving layer's seeded arrival
//! processes) and *update tenants* ([`UpdateTenantSpec`], seeded
//! insert/delete streams) share one weighted-fair queue and one
//! queue-depth admission limit — an update burst steals service slots
//! from readers exactly as the WFQ weights dictate, and overload sheds
//! both classes. The device is a serial cycle-domain model (batches of
//! one):
//!
//! * A read runs the search twice — through [`FreshEtOracle`] (charged:
//!   base + fetched lines) and through an exact oracle — and records
//!   whether the two disagree, proving ET losslessness *in flight* on
//!   the mutated index.
//! * An insert extends the index incrementally (charged per touched
//!   HNSW layer); a delete writes a tombstone.
//! * Epochs are the kernel's timer pauses: once one falls due it takes
//!   the device as soon as the device is idle, and the [`EpochManager`]
//!   holds it for its modeled compaction cost, which surfaces as
//!   queueing delay in the read tail. The next epoch is due one interval
//!   after the last one started, or one interval after it ended when the
//!   pause ran past that point.
//!
//! Everything is integer-cycle and seed-driven: the report — including
//! the chained fingerprint over every served read result — is a pure
//! function of the config, bit-identical across reruns and host thread
//! counts.

use ansmet_core::EtEngine;
use ansmet_index::{ExactOracle, SearchScratch};
use ansmet_obs::{fingerprint64, EventKind, LatencyHistogram, NoopSink, TraceSink};
use ansmet_serve::kernel::{self, Completion, Executed, ItemCycles, PauseRule, PlaneMetrics};
use ansmet_serve::{generate_arrivals, Arrival, BatchPolicy, TenantSpec};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::epoch::{EpochConfig, EpochManager, EpochReport};
use crate::mutable::MutableIndex;
use crate::oracle::FreshEtOracle;
use crate::revalidate::LayoutArtifacts;

/// Fixed read service cost before any line is fetched.
pub const READ_BASE_CYCLES: u64 = 512;
/// Service cycles per fetched line (transformed or natural layout).
pub const CYCLES_PER_LINE: u64 = 32;
/// Fixed insert cost (dataset append + bookkeeping).
pub const INSERT_BASE_CYCLES: u64 = 2_048;
/// Additional insert cost per HNSW layer the new node joins.
pub const INSERT_LAYER_CYCLES: u64 = 1_024;
/// Tombstone-write cost of a delete.
pub const DELETE_CYCLES: u64 = 512;

/// One update operation kind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateOp {
    /// Stream one held-out vector into the index.
    Insert,
    /// Tombstone a seeded-random live vector.
    Delete,
}

/// One tenant's seeded update stream.
#[derive(Debug, Clone, PartialEq)]
pub struct UpdateTenantSpec {
    /// Display name (keys the per-tenant report).
    pub name: String,
    /// Weighted-fair-queueing weight, shared scale with query tenants.
    pub weight: u64,
    /// Offered update rate in operations per second (Poisson).
    pub qps: f64,
    /// Operations offered over the run.
    pub ops: usize,
    /// Fraction of operations that are deletes, in `[0, 1]`.
    pub delete_frac: f64,
}

/// Churn run configuration.
#[derive(Debug, Clone)]
pub struct ChurnConfig {
    /// Master seed for arrivals and update streams.
    pub seed: u64,
    /// Memory clock translating offered QPS into cycle gaps.
    pub mem_clock_mhz: u64,
    /// Query tenants (read side of the stream).
    pub read_tenants: Vec<TenantSpec>,
    /// Update tenants (write side of the stream).
    pub update_tenants: Vec<UpdateTenantSpec>,
    /// Neighbors returned per read.
    pub k: usize,
    /// Beam width (HNSW) / probe count (IVF) per read.
    pub ef: usize,
    /// Shared admission limit: total queued items across all tenants.
    pub queue_depth_limit: usize,
    /// Epoch cadence and re-validation policy.
    pub epoch: EpochConfig,
}

/// What a churn run measured.
#[derive(Debug, Clone, Default)]
pub struct ChurnReport {
    /// Reads served to completion.
    pub reads_served: u64,
    /// Reads shed at admission.
    pub reads_shed: u64,
    /// Inserts applied.
    pub inserts_applied: u64,
    /// Deletes applied.
    pub deletes_applied: u64,
    /// Updates shed at admission.
    pub updates_shed: u64,
    /// Updates that became no-ops (exhausted insert pool / live set at
    /// the guard floor).
    pub updates_noop: u64,
    /// Reads where the ET and exact oracles disagreed (must be 0: ET is
    /// lossless, and tombstone filtering is oracle-independent).
    pub et_mismatches: u64,
    /// Transformed + natural lines fetched by the ET oracle.
    pub lines_fetched: u64,
    /// Lines a no-ET design would have fetched for the same reads.
    pub lines_baseline: u64,
    /// Comparisons served via the conservative full-fetch path.
    pub conservative_fetches: u64,
    /// Read total latency (arrival → completion), cycles.
    pub read_latency: LatencyHistogram,
    /// Update total latency (arrival → completion), cycles.
    pub update_latency: LatencyHistogram,
    /// Epoch pause durations, cycles.
    pub pause: LatencyHistogram,
    /// Every epoch that ran, in order (the last one is the final
    /// drain-time epoch).
    pub epochs: Vec<EpochReport>,
    /// Chained FNV fingerprint over every served read's neighbor ids.
    pub results_fingerprint: u64,
    /// Per-tenant (name, items served).
    pub tenants_served: Vec<(String, u64)>,
    /// Cycle at which the run (including the final epoch) completed.
    pub end_cycle: u64,
}

impl ChurnReport {
    /// Updates applied per wall-second of simulated time.
    pub fn update_throughput_per_sec(&self, mem_clock_mhz: u64) -> f64 {
        let secs = self.end_cycle as f64 / (mem_clock_mhz as f64 * 1e6);
        (self.inserts_applied + self.deletes_applied) as f64 / secs.max(1e-12)
    }

    /// Epochs that re-planned the layout.
    pub fn replans(&self) -> u64 {
        self.epochs
            .iter()
            .filter(|e| e.revalidated.replanned)
            .count() as u64
    }

    /// Tombstones purged across all epochs.
    pub fn total_purged(&self) -> u64 {
        self.epochs.iter().map(|e| e.compacted.purged as u64).sum()
    }

    /// Replica adds + removes shipped across all epochs.
    pub fn replicas_shipped(&self) -> u64 {
        self.epochs
            .iter()
            .map(|e| (e.revalidated.replicas_added + e.revalidated.replicas_removed) as u64)
            .sum()
    }
}

impl std::fmt::Display for ChurnReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "reads: {} served, {} shed, p50 {} / p99 {} cycles",
            self.reads_served,
            self.reads_shed,
            self.read_latency.quantile(0.50),
            self.read_latency.quantile(0.99),
        )?;
        writeln!(
            f,
            "updates: {} inserts + {} deletes applied, {} shed, {} no-op, p99 {} cycles",
            self.inserts_applied,
            self.deletes_applied,
            self.updates_shed,
            self.updates_noop,
            self.update_latency.quantile(0.99),
        )?;
        writeln!(
            f,
            "epochs: {} run ({} re-plans), purge total {}, pause p99 {} cycles",
            self.epochs.len(),
            self.replans(),
            self.total_purged(),
            self.pause.quantile(0.99),
        )?;
        write!(
            f,
            "ET under churn: {} mismatches, {} lines vs {} baseline, {} conservative fetches",
            self.et_mismatches, self.lines_fetched, self.lines_baseline, self.conservative_fetches,
        )
    }
}

/// Generate the update tenants' seeded Poisson op streams. Each tenant
/// is sub-seeded by its *absolute* index (after the read tenants), so
/// read and update streams never share an RNG and adding one never
/// perturbs another. Each arrival's `query` field indexes `ops`, which
/// receives the operation and its victim draw.
fn generate_updates(
    specs: &[UpdateTenantSpec],
    first_tenant: usize,
    seed: u64,
    mem_clock_mhz: u64,
    ops: &mut Vec<(UpdateOp, u64)>,
) -> Vec<Arrival> {
    let mut all = Vec::new();
    for (u, spec) in specs.iter().enumerate() {
        assert!(
            spec.weight > 0,
            "update tenant {} has zero weight",
            spec.name
        );
        assert!(
            spec.qps.is_finite() && spec.qps > 0.0,
            "update tenant {} has non-positive rate",
            spec.name
        );
        assert!(
            (0.0..=1.0).contains(&spec.delete_frac),
            "delete fraction out of range"
        );
        let tenant = first_tenant + u;
        let mut rng =
            SmallRng::seed_from_u64(seed ^ (tenant as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let rate = spec.qps / (mem_clock_mhz as f64 * 1e6);
        let mut now = 0u64;
        for seq in 0..spec.ops as u64 {
            let gap: f64 = rng.gen_range(0.0..1.0);
            now += ((-(1.0 - gap).ln() / rate).round() as u64).max(1);
            let op = if rng.gen_range(0.0..1.0) < spec.delete_frac {
                UpdateOp::Delete
            } else {
                UpdateOp::Insert
            };
            let draw = rng.gen_range(0..1_000_000_007usize) as u64;
            all.push(Arrival {
                cycle: now,
                tenant,
                seq,
                query: ops.len(),
            });
            ops.push((op, draw));
        }
    }
    all
}

/// Run the churn loop: serve the merged read/update stream against
/// `index`, pausing the device for epochs as they fall due, then run one
/// final drain-time epoch.
///
/// `queries` is the read tenants' query pool; `pending_inserts` is the
/// held-out vector pool insert ops consume (cycling when exhausted —
/// an empty pool turns inserts into no-ops).
///
/// # Panics
///
/// Panics on an empty tenant list or an empty query pool.
pub fn run_churn(
    index: &mut MutableIndex,
    layout: &mut LayoutArtifacts,
    queries: &[Vec<f32>],
    pending_inserts: &[Vec<f32>],
    cfg: &ChurnConfig,
) -> ChurnReport {
    run_churn_with_sink(index, layout, queries, pending_inserts, cfg, &mut NoopSink)
}

/// [`run_churn`] with a [`TraceSink`] observing the run: per-read
/// `QueryComplete` events with `Queue`/`Execute` spans and
/// `churn.{queue,exec,total}_cycles` records, `Shed` events at
/// admission, `CompactionPause` events when an epoch pauses the device,
/// and `churn.queue_depth` samples on the serving clock. The sink is
/// observe-only: the report is bit-identical to the unsunk run.
pub fn run_churn_with_sink<S: TraceSink>(
    index: &mut MutableIndex,
    layout: &mut LayoutArtifacts,
    queries: &[Vec<f32>],
    pending_inserts: &[Vec<f32>],
    cfg: &ChurnConfig,
    sink: &mut S,
) -> ChurnReport {
    assert!(
        !cfg.read_tenants.is_empty() || !cfg.update_tenants.is_empty(),
        "need at least one tenant"
    );
    let n_read = cfg.read_tenants.len();

    // Merge the two arrival streams into one (cycle, tenant, seq) order.
    let mut arrivals = Vec::new();
    if n_read > 0 {
        assert!(!queries.is_empty(), "read tenants need a query pool");
        arrivals = generate_arrivals(
            &cfg.read_tenants,
            queries.len(),
            cfg.seed,
            cfg.mem_clock_mhz,
        );
    }
    let mut updates = Vec::new();
    arrivals.extend(generate_updates(
        &cfg.update_tenants,
        n_read,
        cfg.seed,
        cfg.mem_clock_mhz,
        &mut updates,
    ));
    arrivals.sort_by_key(|a| (a.cycle, a.tenant, a.seq));
    let weights: Vec<u64> = cfg
        .read_tenants
        .iter()
        .map(|t| t.weight)
        .chain(cfg.update_tenants.iter().map(|t| t.weight))
        .collect();

    let mut backend = ChurnBackend {
        scratch: SearchScratch::with_headroom(index.len(), pending_inserts.len().max(64)),
        index,
        layout,
        queries,
        pending_inserts,
        cfg,
        n_read,
        updates,
        mgr: EpochManager::new(cfg.epoch),
        next_epoch: cfg.epoch.interval_cycles,
        insert_cursor: 0,
        report: ChurnReport {
            tenants_served: (cfg.read_tenants.iter().map(|t| &t.name))
                .chain(cfg.update_tenants.iter().map(|t| &t.name))
                .map(|name| (name.clone(), 0))
                .collect(),
            ..ChurnReport::default()
        },
    };
    // A serial device: one item per dispatch, no linger.
    let serial = BatchPolicy {
        max_batch: 1,
        max_linger_cycles: 0,
    };
    let idle_at = kernel::run(&arrivals, &weights, serial, &mut backend, sink);

    // Final drain-time epoch: purge whatever the last interval left.
    let pause = backend.run_epoch(idle_at, sink);
    ChurnReport {
        end_cycle: idle_at + pause,
        ..backend.report
    }
}

/// The freshness plane as a [`kernel::Backend`]: reads through both
/// oracles, inserts and deletes on the mutable index, and epochs as
/// timer pauses.
struct ChurnBackend<'a> {
    index: &'a mut MutableIndex,
    layout: &'a mut LayoutArtifacts,
    queries: &'a [Vec<f32>],
    pending_inserts: &'a [Vec<f32>],
    cfg: &'a ChurnConfig,
    /// Tenants below this id read; the rest update.
    n_read: usize,
    /// Operation and victim draw per update arrival (indexed by the
    /// arrival's `query` field).
    updates: Vec<(UpdateOp, u64)>,
    mgr: EpochManager,
    next_epoch: u64,
    scratch: SearchScratch,
    insert_cursor: usize,
    report: ChurnReport,
}

impl ChurnBackend<'_> {
    fn is_read(&self, arrival: &Arrival) -> bool {
        arrival.tenant < self.n_read
    }

    /// Serve one read through both oracles; returns the charged cycles.
    fn read(&mut self, query: usize) -> u64 {
        let (index, report, query) = (&*self.index, &mut self.report, &self.queries[query]);
        let (k, ef) = (self.cfg.k, self.cfg.ef);
        // The engine classifies vectors against the *current* data; fresh
        // inserts it has never been re-validated for are routed around it
        // by the conservative flags.
        let engine = EtEngine::new(index.data(), self.layout.et_config());
        let mut et = FreshEtOracle::new(&engine, index.conservative_flags());
        let r_et = index.search_with(query, k, ef, &mut et, &mut self.scratch);
        let mut exact = ExactOracle::new(index.data());
        let r_exact = index.search_with(query, k, ef, &mut exact, &mut self.scratch);
        if r_et.ids() != r_exact.ids() {
            report.et_mismatches += 1;
        }
        report.lines_fetched += et.lines + et.backup_lines;
        report.lines_baseline += et.baseline_lines();
        report.conservative_fetches += et.conservative_fetches;
        let mut chain = Vec::with_capacity(8 + r_et.neighbors().len() * 8);
        chain.extend_from_slice(&report.results_fingerprint.to_le_bytes());
        for n in r_et.neighbors() {
            chain.extend_from_slice(&(n.id as u64).to_le_bytes());
        }
        report.results_fingerprint = fingerprint64(&chain);
        READ_BASE_CYCLES + (et.lines + et.backup_lines) * CYCLES_PER_LINE
    }

    /// Apply one update; returns the charged cycles.
    fn update(&mut self, (op, draw): (UpdateOp, u64)) -> u64 {
        let (index, report, pool) = (&mut *self.index, &mut self.report, self.pending_inserts);
        match op {
            UpdateOp::Insert => {
                if pool.is_empty() {
                    report.updates_noop += 1;
                    return DELETE_CYCLES; // bookkeeping-only cost
                }
                let id = index.insert(&pool[self.insert_cursor % pool.len()]);
                self.insert_cursor += 1;
                report.inserts_applied += 1;
                match index.hnsw() {
                    Some(h) => INSERT_BASE_CYCLES + (h.level(id) as u64 + 1) * INSERT_LAYER_CYCLES,
                    None => INSERT_BASE_CYCLES,
                }
            }
            UpdateOp::Delete => {
                // Keep enough live vectors for k-NN to stay meaningful.
                if index.live_len() <= self.cfg.k + 1 {
                    report.updates_noop += 1;
                    return DELETE_CYCLES;
                }
                let rank = (draw % index.live_len() as u64) as usize;
                let victim = (0..index.len())
                    .filter(|&i| index.is_live(i))
                    .nth(rank)
                    .expect("rank is bounded by the live count");
                let applied = index.delete(victim);
                debug_assert!(applied, "victim was chosen among live ids");
                report.deletes_applied += 1;
                DELETE_CYCLES
            }
        }
    }

    /// Run one epoch that takes the device at `at`; returns its pause.
    fn run_epoch<S: TraceSink>(&mut self, at: u64, sink: &mut S) -> u64 {
        let er = self.mgr.run_epoch(self.index, self.layout);
        self.report.pause.record(er.pause_cycles);
        sink.event(
            at,
            EventKind::CompactionPause {
                epoch: er.epoch.min(u32::MAX as u64) as u32,
                cycles: er.pause_cycles.min(u32::MAX as u64) as u32,
            },
        );
        self.report.epochs.push(er);
        er.pause_cycles
    }
}

impl kernel::Backend for ChurnBackend<'_> {
    const METRICS: PlaneMetrics = PlaneMetrics {
        queue_depth: "churn.queue_depth",
        queue_cycles: "churn.queue_cycles",
        exec_cycles: "churn.exec_cycles",
        total_cycles: "churn.total_cycles",
    };
    const PAUSE_RULE: PauseRule = PauseRule::Timer;

    fn depth_limit(&self, _tenant: usize) -> usize {
        self.cfg.queue_depth_limit
    }

    fn shed(&mut self, arrival: &Arrival, _deadline: bool) {
        if self.is_read(arrival) {
            self.report.reads_shed += 1;
        } else {
            self.report.updates_shed += 1;
        }
    }

    fn execute<S: TraceSink>(&mut self, batch: &[Arrival], _now: u64, _sink: &mut S) -> Executed {
        let mut elapsed = 0u64;
        let mut items = Vec::with_capacity(batch.len());
        for a in batch {
            elapsed += if self.is_read(a) {
                self.read(a.query)
            } else {
                self.update(self.updates[a.query])
            };
            items.push(ItemCycles {
                retire: elapsed,
                penalty: 0,
            });
        }
        Executed {
            items,
            hold: elapsed,
        }
    }

    fn traced(&self, arrival: &Arrival) -> bool {
        self.is_read(arrival)
    }

    fn complete(&mut self, done: &Completion) {
        if self.is_read(&done.arrival) {
            self.report.reads_served += 1;
            self.report.read_latency.record(done.total_cycles());
        } else {
            self.report.update_latency.record(done.total_cycles());
        }
        self.report.tenants_served[done.arrival.tenant].1 += 1;
    }

    fn pause_due(&self) -> Option<u64> {
        Some(self.next_epoch)
    }

    fn pause<S: TraceSink>(&mut self, now: u64, sink: &mut S) -> u64 {
        let pause = self.run_epoch(now, sink);
        // The next epoch is due one interval after this one started. A
        // pause that reaches that point pushes it to one interval after
        // the pause ends, so reads are served between epochs.
        let due = self.mgr.next_wake(now);
        self.next_epoch = if now + pause >= due {
            self.mgr.next_wake(now + pause)
        } else {
            due
        };
        pause
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_index::HnswParams;
    use ansmet_serve::ArrivalProcess;
    use ansmet_vecdata::{Dataset, SynthSpec};

    fn setup(
        n: usize,
        held: usize,
    ) -> (MutableIndex, LayoutArtifacts, Vec<Vec<f32>>, Vec<Vec<f32>>) {
        let (data, queries) = SynthSpec::sift().scaled(n, 3).generate();
        let pending: Vec<Vec<f32>> = (n - held..n).map(|i| data.vector(i).to_vec()).collect();
        let base = Dataset::from_values(
            "t",
            data.dtype(),
            data.metric(),
            data.dim(),
            (0..n - held)
                .flat_map(|i| data.vector(i).to_vec())
                .collect(),
        );
        let idx = MutableIndex::build_hnsw(base, HnswParams::quick(), 33);
        let layout = LayoutArtifacts::plan(&idx, 0.01);
        (idx, layout, queries, pending)
    }

    fn config(reads: usize, ops: usize) -> ChurnConfig {
        ChurnConfig {
            seed: 0xC0FFEE,
            mem_clock_mhz: 2400,
            read_tenants: vec![TenantSpec {
                name: "interactive".into(),
                weight: 4,
                process: ArrivalProcess::Poisson { qps: 200_000.0 },
                slo_cycles: 1_000_000,
                queries: reads,
            }],
            update_tenants: vec![UpdateTenantSpec {
                name: "writer".into(),
                weight: 2,
                qps: 100_000.0,
                ops,
                delete_frac: 0.4,
            }],
            k: 5,
            ef: 40,
            queue_depth_limit: 64,
            epoch: EpochConfig {
                interval_cycles: 400_000,
                conservative_headroom: 0.05,
            },
        }
    }

    #[test]
    fn churn_run_is_deterministic_and_lossless() {
        let (mut idx, mut layout, queries, pending) = setup(400, 60);
        let cfg = config(40, 30);
        let a = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        assert_eq!(a.et_mismatches, 0, "ET must stay lossless under churn");
        assert_eq!(a.reads_served + a.reads_shed, 40);
        assert!(a.inserts_applied + a.deletes_applied > 0);
        assert!(!a.epochs.is_empty(), "the drain-time epoch always runs");
        assert!(a.end_cycle > 0);
        // Bit-identical rerun from identical initial state.
        let (mut idx2, mut layout2, queries2, pending2) = setup(400, 60);
        let b = run_churn(&mut idx2, &mut layout2, &queries2, &pending2, &cfg);
        assert_eq!(a.results_fingerprint, b.results_fingerprint);
        assert_eq!(a.reads_served, b.reads_served);
        assert_eq!(a.end_cycle, b.end_cycle);
        assert_eq!(idx.generation(), idx2.generation());
    }

    #[test]
    fn shed_kicks_in_under_a_tiny_depth_limit() {
        let (mut idx, mut layout, queries, pending) = setup(300, 30);
        let mut cfg = config(60, 20);
        cfg.queue_depth_limit = 1;
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        assert!(
            r.reads_shed + r.updates_shed > 0,
            "depth limit 1 must shed under this load"
        );
    }

    #[test]
    fn writer_weight_shapes_service_share() {
        let (mut idx, mut layout, queries, pending) = setup(300, 80);
        let mut cfg = config(50, 50);
        cfg.update_tenants[0].weight = 8;
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        let writer_served = r
            .tenants_served
            .iter()
            .find(|(n, _)| n == "writer")
            .map(|&(_, c)| c)
            .expect("writer tenant reported");
        assert!(writer_served > 0);
        assert!(r.update_latency.count() == writer_served);
    }

    #[test]
    fn sink_is_observe_only_and_the_ops_plane_assembles_the_run() {
        let (mut idx, mut layout, queries, pending) = setup(300, 40);
        let cfg = config(40, 30);
        let a = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        let (mut idx2, mut layout2, queries2, pending2) = setup(300, 40);
        let mut plane = ansmet_obs::OpsPlane::new(ansmet_obs::OpsConfig::default());
        let b = run_churn_with_sink(
            &mut idx2,
            &mut layout2,
            &queries2,
            &pending2,
            &cfg,
            &mut plane,
        );
        // Observe-only: the instrumented run is bit-identical.
        assert_eq!(a.results_fingerprint, b.results_fingerprint);
        assert_eq!(a.end_cycle, b.end_cycle);
        assert_eq!(a.reads_served, b.reads_served);
        // The plane saw every served read and every epoch pause.
        let report = plane.finish();
        assert_eq!(report.completed, b.reads_served);
        assert_eq!(
            report.series.counter_total("ops.compaction_pauses"),
            b.epochs.len() as u64
        );
    }

    #[test]
    fn epochs_fire_on_the_interval() {
        let (mut idx, mut layout, queries, pending) = setup(300, 40);
        let mut cfg = config(60, 40);
        cfg.epoch.interval_cycles = 100_000;
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        assert!(
            r.epochs.len() >= 2,
            "short interval must fire epochs mid-run (got {})",
            r.epochs.len()
        );
        // Epoch numbering is contiguous from 1.
        for (i, e) in r.epochs.iter().enumerate() {
            assert_eq!(e.epoch, i as u64 + 1);
        }
    }

    #[test]
    fn epochs_longer_than_their_interval_still_serve_every_read() {
        // Every pause costs at least EPOCH_BASE_CYCLES, so an interval
        // below it means each epoch runs past the next one's due cycle.
        let (mut idx, mut layout, queries, pending) = setup(300, 40);
        let mut cfg = config(20, 10);
        cfg.epoch.interval_cycles = 1_000;
        assert!(cfg.epoch.interval_cycles < crate::epoch::EPOCH_BASE_CYCLES);
        let r = run_churn(&mut idx, &mut layout, &queries, &pending, &cfg);
        assert_eq!(r.reads_served, 20, "every read is served");
        assert_eq!(r.reads_shed, 0);
        assert_eq!(r.et_mismatches, 0);
        assert!(r.epochs.len() >= 2, "epochs keep firing");
    }
}
