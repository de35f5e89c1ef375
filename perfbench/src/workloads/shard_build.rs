//! `shard_build`: a cold sharded deployment. A DEEP-shape dataset (f32,
//! so the per-shard sampling profile does real work) is partitioned into
//! S ∈ {1, 2, 4, 8} shards by hash and by k-means; every shard gets its
//! own HNSW index, sampling profile, ground truth, traces and fetch plan
//! (`ShardSet::build`), then every query is scatter-gathered on a
//! healthy fleet. Preparation does most of the work and there is no
//! DRAM model: the mirror image of `design_sweep`. Like the `cluster`
//! experiment it repeats identical builds (S = 1 hash ≡ S = 1 k-means).

use ansmet_cluster::{ClusterFleet, Router, RouterConfig, RouterStats, RoutingPolicy, ShardSet};
use ansmet_obs::NoopSink;
use ansmet_sim::SystemConfig;
use ansmet_vecdata::{Dataset, GroundTruth, SynthSpec};

use super::{cycles_to_us, probe_preparation, Bench, Rep, K};
use crate::report::{median, Metric};
use crate::spans::Tracer;

/// Database vectors.
const VECTORS: usize = 1000;
/// Queries routed per cell.
const QUERIES: usize = 16;
/// Beam width of every shard's search (the `cluster` experiment's).
const EF: usize = 40;
/// Shard counts swept.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Recall@10 every cell's merged results must reach.
const RECALL_FLOOR: f64 = 0.8;

fn spec(seed: u64) -> SynthSpec {
    SynthSpec::deep().scaled(VECTORS, QUERIES).with_seed(seed)
}

/// The dataset, its queries, and their brute-force ground truth.
pub struct ShardInputs {
    data: Dataset,
    queries: Vec<Vec<f32>>,
    truth: GroundTruth,
}

pub struct ShardBuild;

impl Bench for ShardBuild {
    type State = ShardInputs;

    const WHY: &'static str = "ShardSet::build for S in 1,2,4,8 x hash,kmeans on DEEP then scatter-gather routing: per-shard preparation, no DRAM model";

    fn setup(&self, seed: u64, t: &mut Tracer) -> ShardInputs {
        let (data, queries) = t.span("vecdata.generate_s", |_| spec(seed).generate());
        let truth = t.span("vecdata.ground_truth_s", |_| {
            GroundTruth::compute(&data, &queries, K)
        });
        ShardInputs {
            data,
            queries,
            truth,
        }
    }

    fn rep(&self, st: &ShardInputs, seed: u64, _threads: usize, t: &mut Tracer) -> Rep {
        let mhz = SystemConfig::default().dram.clock_mhz;
        let mut rep = Rep::default();
        let mut latencies: Vec<f64> = Vec::new();
        let (mut recall_sum, mut cells) = (0.0, 0usize);
        let (mut multi, mut all) = (RouterStats::default(), RouterStats::default());
        let mut imbalance: f64 = 0.0;
        let start = std::time::Instant::now();
        for shards in SHARD_COUNTS {
            for policy in RoutingPolicy::all() {
                let set = t.span("cluster.shard_build_s", |_| {
                    ShardSet::build(&st.data, &st.queries, K, EF, shards, policy, seed)
                });
                let (stats, merged) =
                    t.span("cluster.route_s", |_| route_all(&set, &mut latencies));
                let cell = format!("S={shards} {}", policy.as_str());
                rep.gate(stats.et_mismatches == 0, || {
                    format!(
                        "cluster et_mismatches = {} at {cell} (must be 0)",
                        stats.et_mismatches
                    )
                });
                let saved = stats.bound_saved_frac();
                rep.gate((shards == 1) == (saved == 0.0), || {
                    format!("cluster.bound_saved_frac = {saved} at {cell}: must be 0 at S=1 and > 0 at S>=2")
                });
                let recall = mean_recall(&merged, &st.truth.ids);
                rep.gate(recall >= RECALL_FLOOR, || {
                    format!("recall@10 {recall} at {cell} is below {RECALL_FLOOR}")
                });
                recall_sum += recall;
                cells += 1;
                imbalance = imbalance.max(set.assignment.imbalance());
                rep.ops += st.data.len() as u64;
                rep.failed += stats.et_mismatches;
                if shards > 1 {
                    add_stats(&mut multi, &stats);
                }
                add_stats(&mut all, &stats);
            }
        }
        rep.busy_s = start.elapsed().as_secs_f64();
        let mean = latencies.iter().sum::<f64>() / latencies.len().max(1) as f64;
        rep.metrics = vec![
            Metric::value("sim_p50_us", "us", cycles_to_us(median(&latencies), mhz)),
            Metric::value("sim_mean_us", "us", cycles_to_us(mean, mhz)),
            Metric::value("recall_at_10", "frac", recall_sum / cells as f64),
            Metric::ratio(
                "index.evals_per_query",
                "evals/query",
                all.evals as f64,
                "index.queries",
                all.queries as f64,
            ),
            Metric::ratio(
                "cluster.bound_saved_frac",
                "frac",
                multi
                    .ndp_lines_independent
                    .saturating_sub(multi.ndp_lines_with_bound) as f64,
                "cluster.ndp_lines_independent",
                multi.ndp_lines_independent as f64,
            ),
            Metric::ratio(
                "cluster.pruned_frac",
                "frac",
                all.pruned_evals as f64,
                "cluster.evals",
                all.evals as f64,
            ),
            Metric::value("cluster.shards_skipped", "count", all.shards_skipped as f64),
            Metric::value("cluster.imbalance", "x", imbalance),
            Metric::value("cluster.et_mismatches", "count", all.et_mismatches as f64),
        ];
        rep
    }

    fn probe(&self, st: &ShardInputs, seed: u64, t: &mut Tracer) {
        // One shard's preparation (S = 1), split into its component calls.
        let set = ShardSet::build(&st.data, &st.queries, K, EF, 1, RoutingPolicy::Hash, seed);
        probe_preparation(&spec(seed), &set.shards[0].workload, t);
    }
}

/// Route every query over a healthy fleet, advancing its clock between
/// queries (as the `cluster` experiment does); collect latencies.
fn route_all(
    set: &ShardSet,
    latencies: &mut Vec<f64>,
) -> (RouterStats, Vec<Vec<ansmet_index::Neighbor>>) {
    let mut fleet = ClusterFleet::healthy(set.len());
    let mut router = Router::new(set, RouterConfig::default());
    let mut stats = RouterStats::default();
    let mut merged = Vec::with_capacity(set.queries.len());
    for qi in 0..set.queries.len() {
        let outcome = router.route(qi, &mut fleet, &mut NoopSink);
        fleet.advance(outcome.latency_cycles);
        latencies.push(outcome.latency_cycles as f64);
        stats.absorb(&outcome);
        merged.push(outcome.merged);
    }
    (stats, merged)
}

/// Fold one cell's router totals into `acc` (the fields reported here).
fn add_stats(acc: &mut RouterStats, s: &RouterStats) {
    acc.queries += s.queries;
    acc.evals += s.evals;
    acc.pruned_evals += s.pruned_evals;
    acc.ndp_lines_with_bound += s.ndp_lines_with_bound;
    acc.ndp_lines_independent += s.ndp_lines_independent;
    acc.shards_skipped += s.shards_skipped;
    acc.et_mismatches += s.et_mismatches;
}

/// Mean recall@10 of merged rows against brute-force ground truth.
fn mean_recall(merged: &[Vec<ansmet_index::Neighbor>], truth: &[Vec<usize>]) -> f64 {
    let hits: f64 = merged
        .iter()
        .zip(truth)
        .map(|(got, want)| {
            got.iter().filter(|n| want.contains(&n.id)).count() as f64 / want.len().max(1) as f64
        })
        .sum();
    hits / merged.len().max(1) as f64
}
