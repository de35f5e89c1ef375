//! `churn`: writes beside reads. A `MutableIndex` over 80 % of a SIFT
//! shape takes the held-out 20 % as streamed inserts, interleaved with
//! tombstone deletes, reads, and epoch compaction, all queued through
//! the shared serving admission path. The index grows by incremental
//! insertion instead of a bulk build, so a gain for bulk build or for
//! reads that costs inserts or compaction shows here. Offered rates stay
//! below saturation, so the backlog does not grow and nothing is shed.

use ansmet_freshness::{
    run_churn, ChurnConfig, ChurnReport, EpochConfig, LayoutArtifacts, MutableIndex,
    UpdateTenantSpec,
};
use ansmet_index::{ExactOracle, Hnsw, HnswParams, SearchScratch};
use ansmet_serve::{ArrivalProcess, TenantSpec};
use ansmet_sim::SystemConfig;
use ansmet_vecdata::{recall::mean_recall_at_k, Dataset, GroundTruth, SynthSpec};

use super::{cycles_to_us, Bench, Rep, K};
use crate::report::Metric;
use crate::spans::Tracer;

/// Database vectors before the split.
const VECTORS: usize = 2000;
/// Distinct queries the reads draw from.
const QUERIES: usize = 64;
/// Reads offered per repetition.
const READS: usize = 1000;
/// Offered read rate (queries per second), below saturation.
const READ_QPS: f64 = 30_000.0;
/// Offered update rate (operations per second).
const UPDATE_QPS: f64 = 15_000.0;
/// Share of update operations that are deletes.
const DELETE_FRAC: f64 = 1.0 / 3.0;
/// Beam width of every read.
const EF: usize = 64;
/// Admission limit; far above the backlog at these rates.
const QUEUE_LIMIT: usize = 4096;
/// Recall@10 the index must keep before and after the churn.
const RECALL_FLOOR: f64 = 0.8;

/// Prepared inputs: the index before churn, its layout plan, the read
/// pool, and the held-out vectors to insert.
pub struct ChurnState {
    index: MutableIndex,
    layout: LayoutArtifacts,
    queries: Vec<Vec<f32>>,
    pending: Vec<Vec<f32>>,
    recall_before: f64,
    evals_per_query: Metric,
}

pub struct Churn;

impl Bench for Churn {
    type State = ChurnState;

    const WHY: &'static str = "streamed inserts and deletes of 20% of a SIFT shape beside 30 kqps of reads, with epoch compaction: incremental index path";

    fn setup(&self, seed: u64, t: &mut Tracer) -> ChurnState {
        let spec = SynthSpec::sift().scaled(VECTORS, QUERIES).with_seed(seed);
        let (full, queries) = t.span("vecdata.generate_s", |_| spec.generate());
        let base_n = full.len() - full.len() / 5;
        let base = Dataset::from_values(
            full.name(),
            full.dtype(),
            full.metric(),
            full.dim(),
            (0..base_n).flat_map(|i| full.vector(i).to_vec()).collect(),
        );
        let pending: Vec<Vec<f32>> = (base_n..full.len())
            .map(|i| full.vector(i).to_vec())
            .collect();
        let hnsw = t.span("index.hnsw_build_s", |_| {
            Hnsw::build(&base, HnswParams::quick())
        });
        // Recall of the index before churn, from traced searches with the
        // exact oracle against brute-force ground truth.
        let truth = t.span("vecdata.ground_truth_s", |_| {
            GroundTruth::compute(&base, &queries, K)
        });
        let (results, evals) = t.span("index.trace_s", |_| {
            let mut oracle = ExactOracle::new(&base);
            let mut scratch = SearchScratch::new(base.len());
            let mut evals = 0usize;
            let results: Vec<Vec<usize>> = queries
                .iter()
                .map(|q| {
                    let (r, trace) = hnsw.search_traced_with(q, K, EF, &mut oracle, &mut scratch);
                    evals += trace.total_evals();
                    r.ids()
                })
                .collect();
            (results, evals)
        });
        let recall_before = mean_recall_at_k(&results, &truth.ids, K);
        let index = MutableIndex::from_hnsw(base, hnsw, seed);
        let layout = t.span("freshness.layout_plan_s", |_| {
            LayoutArtifacts::plan(&index, 0.01)
        });
        ChurnState {
            index,
            layout,
            evals_per_query: Metric::ratio(
                "index.evals_per_query",
                "evals/query",
                evals as f64,
                "index.queries",
                queries.len() as f64,
            ),
            queries,
            pending,
            recall_before,
        }
    }

    fn rep(&self, st: &ChurnState, seed: u64, _threads: usize, t: &mut Tracer) -> Rep {
        let mhz = SystemConfig::default().dram.clock_mhz;
        let cfg = churn_config(seed, mhz, st.pending.len());
        let mut index = st.index.clone();
        let mut layout = st.layout.clone();
        let start = std::time::Instant::now();
        let r = t.span("freshness.churn_s", |_| {
            run_churn(&mut index, &mut layout, &st.queries, &st.pending, &cfg)
        });
        let busy_s = start.elapsed().as_secs_f64();
        let recall_after = recall_after_churn(&index, &st.queries);

        let updates = r.inserts_applied + r.deletes_applied + r.updates_shed + r.updates_noop;
        let mut rep = Rep {
            busy_s,
            ops: r.reads_served + r.reads_shed + updates,
            failed: r.reads_shed + r.updates_shed + r.et_mismatches,
            ..Rep::default()
        };
        rep.gate(r.et_mismatches == 0, || {
            format!("churn et_mismatches = {} (must be 0)", r.et_mismatches)
        });
        for (when, recall) in [("before", st.recall_before), ("after", recall_after)] {
            rep.gate(recall >= RECALL_FLOOR, || {
                format!("recall@10 {when} churn {recall} is below {RECALL_FLOOR}")
            });
        }
        let us = |cycles: u64| cycles_to_us(cycles as f64, mhz);
        rep.metrics = vec![
            Metric::value("sim_p50_us", "us", us(r.read_latency.quantile(0.50))),
            Metric::value("sim_p99_us", "us", us(r.read_latency.quantile(0.99))),
            Metric::value(
                "sim_mean_us",
                "us",
                cycles_to_us(r.read_latency.mean(), mhz),
            ),
            Metric::value(
                "sim_update_p99_us",
                "us",
                us(r.update_latency.quantile(0.99)),
            ),
            Metric::value("recall_at_10", "frac", recall_after),
            st.evals_per_query.clone(),
        ];
        rep.metrics.extend(layer_counts(&r, mhz));
        rep
    }

    fn probe(&self, _st: &ChurnState, seed: u64, t: &mut Tracer) {
        // Set-up already calls each component on its own, in its own span.
        self.setup(seed, t);
    }
}

/// One reader and one writer; the writer's operations cover the held-out
/// vectors as inserts plus the delete share on top.
fn churn_config(seed: u64, mem_clock_mhz: u64, held_out: usize) -> ChurnConfig {
    ChurnConfig {
        seed,
        mem_clock_mhz,
        read_tenants: vec![TenantSpec {
            name: "reader".into(),
            weight: 4,
            process: ArrivalProcess::Poisson { qps: READ_QPS },
            slo_cycles: 1_000_000,
            queries: READS,
        }],
        update_tenants: vec![UpdateTenantSpec {
            name: "writer".into(),
            weight: 2,
            qps: UPDATE_QPS,
            ops: (held_out as f64 / (1.0 - DELETE_FRAC)).round() as usize,
            delete_frac: DELETE_FRAC,
        }],
        k: K,
        ef: EF,
        queue_depth_limit: QUEUE_LIMIT,
        epoch: EpochConfig::default(),
    }
}

/// Exact-oracle recall@10 of the churned index over its live set.
fn recall_after_churn(index: &MutableIndex, queries: &[Vec<f32>]) -> f64 {
    let truth: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| index.live_ground_truth(q, K))
        .collect();
    let got: Vec<Vec<usize>> = queries
        .iter()
        .map(|q| index.search_exact(q, K, EF).ids())
        .collect();
    mean_recall_at_k(&got, &truth, K)
}

fn layer_counts(r: &ChurnReport, mhz: u64) -> Vec<Metric> {
    vec![
        Metric::value("freshness.epochs", "count", r.epochs.len() as f64),
        Metric::value(
            "freshness.pause_p99_us",
            "us",
            cycles_to_us(r.pause.quantile(0.99) as f64, mhz),
        ),
        Metric::value(
            "freshness.conservative_fetches",
            "count",
            r.conservative_fetches as f64,
        ),
        Metric::ratio(
            "freshness.line_savings_frac",
            "frac",
            r.lines_baseline as f64 - r.lines_fetched as f64,
            "freshness.lines_baseline",
            r.lines_baseline as f64,
        ),
        Metric::value("freshness.inserts", "count", r.inserts_applied as f64),
        Metric::value("freshness.deletes", "count", r.deletes_applied as f64),
    ]
}
