//! The wave executor evaluates each query's early-termination outcomes
//! once per context and replays them on every later execution. These
//! properties check that the cache is exact: a batch executed on a warm
//! context, one that has already run other batches, costs exactly what
//! it costs on a fresh context.

use std::sync::OnceLock;

use ansmet_ndp::{PartitionScheme, Partitioner};
use ansmet_obs::{QueryRecorder, RecorderConfig};
use ansmet_sim::{BatchExecution, Design, SystemConfig, WaveContext, Workload};
use ansmet_vecdata::SynthSpec;
use proptest::collection::vec;
use proptest::prelude::*;

/// Queries in the shared workload; batches draw ids from `0..QUERIES`.
const QUERIES: usize = 12;

/// DEEP-shaped (96 × f32) vectors.
fn workload() -> &'static Workload {
    static WL: OnceLock<Workload> = OnceLock::new();
    WL.get_or_init(|| Workload::prepare(&SynthSpec::deep().scaled(300, QUERIES), 10, Some(24)))
}

/// Hybrid partitioning with 128 B sub-vectors, so every vector spans
/// three ranks of a group, with hot-vector replication on.
fn config() -> SystemConfig {
    let cfg = SystemConfig::default().with_partition(PartitionScheme::Hybrid { subvec_bytes: 128 });
    let wl = workload();
    let elem_bytes = wl.data.dtype().bytes();
    let part = Partitioner::new(cfg.partition, cfg.ndp_units(), wl.data.dim(), elem_bytes);
    assert!(part.subvectors_per_vector() > 1, "multi-sub-vector layout");
    assert!(
        cfg.replicate_hot && !wl.hot_ids().is_empty(),
        "hot replicas"
    );
    cfg
}

/// Execute `warmup` on one context, then `batch` on it and on a fresh
/// context; returns `(warm, fresh)`.
fn warm_and_fresh(
    design: Design,
    warmup: &[Vec<usize>],
    batch: &[usize],
) -> (BatchExecution, BatchExecution) {
    let wl = workload();
    let cfg = config();
    let warm = WaveContext::new(design, wl, &cfg);
    for b in warmup {
        warm.execute(b);
    }
    let fresh = WaveContext::new(design, wl, &cfg);
    (warm.execute(batch), fresh.execute(batch))
}

proptest! {
    fn et_opt_warm_context_matches_fresh(
        warmup in vec(vec(0usize..QUERIES, 1..=16), 1..=3),
        batch in vec(0usize..QUERIES, 1..=16),
    ) {
        let (warm, fresh) = warm_and_fresh(Design::NdpEtOpt, &warmup, &batch);
        prop_assert_eq!(warm, fresh);
    }

    fn base_warm_context_matches_fresh(
        warmup in vec(vec(0usize..QUERIES, 1..=16), 1..=3),
        batch in vec(0usize..QUERIES, 1..=16),
    ) {
        let (warm, fresh) = warm_and_fresh(Design::NdpBase, &warmup, &batch);
        prop_assert_eq!(warm, fresh);
    }

    fn traced_warm_context_matches_plain_fresh(
        warmup in vec(vec(0usize..QUERIES, 1..=16), 1..=3),
        batch in vec(0usize..QUERIES, 1..=16),
        base_cycle in 0u64..1_000_000,
    ) {
        let wl = workload();
        let cfg = config();
        let warm = WaveContext::new(Design::NdpEtOpt, wl, &cfg);
        let mut rec = QueryRecorder::new(0, RecorderConfig::default());
        for b in &warmup {
            warm.execute_with_sink(b, &mut rec, base_cycle);
        }
        let traced = warm.execute_with_sink(&batch, &mut rec, base_cycle);
        let fresh = WaveContext::new(Design::NdpEtOpt, wl, &cfg);
        prop_assert_eq!(traced, fresh.execute(&batch));
        prop_assert!(!rec.finish(0).events.is_empty(), "the sink recorded row-buffer events");
    }
}
