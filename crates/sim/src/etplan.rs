//! Shared evaluation of one comparison across sub-vector chunks: local
//! early termination against proportional threshold shares, host-side
//! aggregation of partial bounds, and the residual round that preserves
//! exact accuracy (§5.3). Used by the replay device model and by the
//! empirical layout selection so both see identical fetch behavior.

use ansmet_core::{EtEngine, EtObserver, EtScratch, NoopEtObserver};

/// Per-chunk line counts and the sound rejection verdict.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MultiEval {
    /// Lines fetched per chunk (same order as the input chunks).
    pub lines: Vec<usize>,
    /// Natural-layout backup lines (outlier re-check; charged once).
    pub backup_lines: usize,
    /// Whether the comparison was soundly rejected on bounds alone.
    pub pruned: bool,
    /// Whether a residual round was needed (an extra host round-trip:
    /// the host re-offloads to locally-terminated ranks and re-polls).
    pub resumed: bool,
}

impl MultiEval {
    /// Total lines across chunks plus backups.
    pub fn total_lines(&self) -> usize {
        self.lines.iter().sum::<usize>() + self.backup_lines
    }
}

/// Evaluate vector `id` against `query` split into `chunks` of dimensions.
///
/// Each chunk terminates locally against `threshold × |chunk| / dim`; the
/// summed bounds decide rejection soundly. Chunks whose local bound
/// stopped short resume once with the residual threshold slack; a
/// numerical corner case falls back to the full fetch.
///
/// # Panics
///
/// Panics if chunks are empty or out of range.
pub fn evaluate_chunked(
    engine: &EtEngine<'_>,
    id: usize,
    query: &[f32],
    chunks: &[std::ops::Range<usize>],
    threshold: f32,
    scratch: &mut EtScratch,
) -> MultiEval {
    let mut out = MultiEval::default();
    evaluate_chunked_obs(
        engine,
        id,
        query,
        chunks,
        threshold,
        scratch,
        &mut NoopEtObserver,
        &mut out,
    );
    out
}

/// [`evaluate_chunked`] reporting per-chunk termination outcomes to
/// `obs` (see [`EtObserver`]) and writing the result into `out`, whose
/// line buffer is reused. The observer never affects the result.
///
/// # Panics
///
/// Panics if chunks are empty or out of range.
#[allow(clippy::too_many_arguments)]
pub fn evaluate_chunked_obs<O: EtObserver>(
    engine: &EtEngine<'_>,
    id: usize,
    query: &[f32],
    chunks: &[std::ops::Range<usize>],
    threshold: f32,
    scratch: &mut EtScratch,
    obs: &mut O,
    out: &mut MultiEval,
) {
    assert!(!chunks.is_empty(), "need at least one chunk");
    let dim = engine.dataset().dim();
    let mut lines = std::mem::take(&mut out.lines);
    lines.clear();
    if chunks.len() == 1 && chunks[0] == (0..dim) {
        let c = engine.evaluate_obs(id, query, threshold, scratch, obs);
        lines.push(c.lines);
        *out = MultiEval {
            lines,
            backup_lines: c.backup_lines,
            pruned: c.pruned,
            resumed: false,
        };
        return;
    }

    struct Local {
        lines: usize,
        stopped: bool,
        bound: f64,
        dims: std::ops::Range<usize>,
    }
    let mut bounds_sum = 0.0f64;
    let mut local: Vec<Local> = Vec::with_capacity(chunks.len());
    for dims in chunks {
        let share = threshold * (dims.len() as f32 / dim as f32);
        let c = engine
            .evaluate_range_obs(id, query, dims.clone(), share, scratch, obs)
            .expect("planner chunks are in range");
        bounds_sum += c.final_bound;
        local.push(Local {
            lines: c.lines,
            stopped: c.pruned,
            bound: c.final_bound,
            dims: dims.clone(),
        });
    }
    let mut pruned = false;
    let mut resumed = false;
    if local.iter().any(|l| l.stopped) {
        if bounds_sum < threshold as f64 {
            resumed = true;
            // Residual round: each stopped chunk resumes with the slack
            // the other chunks' returned bounds leave it.
            let old_sum = bounds_sum;
            for l in local.iter_mut().filter(|l| l.stopped) {
                let residual = (threshold as f64 - (old_sum - l.bound)) as f32;
                let c = engine
                    .evaluate_range_obs(id, query, l.dims.clone(), residual, scratch, obs)
                    .expect("planner chunks are in range");
                bounds_sum += c.final_bound - l.bound;
                l.bound = c.final_bound;
                l.lines = l.lines.max(c.lines);
                l.stopped = c.pruned;
            }
        }
        if local.iter().any(|l| l.stopped) {
            if bounds_sum >= threshold as f64 {
                pruned = true;
            } else {
                // Numerical corner: complete the fetch.
                for l in local.iter_mut().filter(|l| l.stopped) {
                    l.lines = engine.config().schedule.total_lines(l.dims.len());
                    l.stopped = false;
                }
            }
        }
    }
    lines.extend(local.iter().map(|l| l.lines));
    *out = MultiEval {
        lines,
        backup_lines: 0,
        pruned,
        resumed,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_core::{DistanceBounder, EtConfig, FetchSchedule};
    use ansmet_vecdata::{Dataset, ElemType, Metric, SynthSpec};
    use proptest::prelude::*;

    proptest! {
        /// The residual round stays sound over random chunkings, dtypes,
        /// metrics and step widths: a pruned comparison's exact distance
        /// reaches the threshold, and an unpruned one fetched every line
        /// of every chunk. Thresholds fall on both sides of the distance.
        ///
        /// Inner product runs on the integer types only: on float types
        /// the engine's incremental bound can overshoot under narrow
        /// steps, a known defect pinned by the ignored
        /// `float_ip_bound_never_exceeds_exact_distance` in `ansmet-core`.
        #[test]
        fn chunked_pruning_is_sound(
            dtype_ix in 0usize..5,
            ip in 0u8..2,
            step in 1u32..9,
            dim in 2usize..=48,
            cuts in proptest::collection::vec(1usize..48, 3),
            raw in proptest::collection::vec(-1.0f32..1.0, 48 * 5),
            slack in -0.5f64..0.5,
        ) {
            const N: usize = 4;
            let dtype = [ElemType::U8, ElemType::I8, ElemType::F16, ElemType::Bf16, ElemType::F32]
                [dtype_ix];
            let metric = if ip == 1 && !dtype.is_float() { Metric::Ip } else { Metric::L2 };
            let scale = |v: f32| match dtype {
                ElemType::U8 => 128.0 + v * 127.0,
                ElemType::I8 => v * 127.0,
                _ => v * v * v * 64.0,
            };
            let values: Vec<f32> = (0..N * dim).map(|k| scale(raw[(k / dim) * 48 + k % dim])).collect();
            let query: Vec<f32> = raw[N * 48..N * 48 + dim].iter().map(|&v| scale(v)).collect();
            let data = Dataset::from_values("c", dtype, metric, dim, values);
            let schedule = FetchSchedule::uniform(dtype, step.min(dtype.bits()));
            let engine = EtEngine::new(&data, EtConfig::new(schedule.clone()));
            // One to four chunks cut at random interior dimensions.
            let mut bounds: Vec<usize> = cuts.iter().map(|&c| c % dim).filter(|&c| c > 0).collect();
            bounds.extend([0, dim]);
            bounds.sort_unstable();
            bounds.dedup();
            let chunks: Vec<std::ops::Range<usize>> = bounds.windows(2).map(|w| w[0]..w[1]).collect();
            let bounder = DistanceBounder::new(metric);
            let mut scratch = EtScratch::new();
            for id in 0..N {
                let exact = bounder.exact_distance(data.vector(id), &query);
                let threshold = (exact + slack * (exact.abs() + 1.0)) as f32;
                let m = evaluate_chunked(&engine, id, &query, &chunks, threshold, &mut scratch);
                if m.pruned {
                    let tolerance = 1e-9 * (exact.abs() + 1.0);
                    prop_assert!(
                        exact >= threshold as f64 - tolerance,
                        "pruned although {exact} < {threshold}"
                    );
                } else {
                    for (lines, dims) in m.lines.iter().zip(&chunks) {
                        prop_assert_eq!(*lines, schedule.total_lines(dims.len()));
                    }
                }
            }
        }
    }

    #[test]
    fn chunked_rejection_is_sound() {
        let (data, queries) = SynthSpec::gist().scaled(120, 2).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 8)),
        );
        let chunks: Vec<std::ops::Range<usize>> = (0..4).map(|i| i * 240..(i + 1) * 240).collect();
        let mut scratch = EtScratch::new();
        for q in &queries {
            for id in 0..40 {
                let d = data.distance_to(id, q);
                let m = evaluate_chunked(&engine, id, q, &chunks, d * 0.7, &mut scratch);
                if m.pruned {
                    assert!(d >= d * 0.7);
                } else {
                    // Unpruned comparisons under a sub-distance threshold
                    // must have fetched everything.
                    assert_eq!(
                        m.lines.iter().sum::<usize>(),
                        engine.config().schedule.total_lines(240) * 4
                    );
                }
            }
        }
    }

    #[test]
    fn single_chunk_matches_whole_vector() {
        let (data, queries) = SynthSpec::sift().scaled(100, 1).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 4)),
        );
        let dim = data.dim();
        #[allow(clippy::single_range_in_vec_init)] // one whole-vector chunk is the point
        let chunks = [0..dim];
        let mut scratch = EtScratch::new();
        let m = evaluate_chunked(
            &engine,
            5,
            &queries[0],
            &chunks,
            f32::INFINITY,
            &mut scratch,
        );
        let c = engine.evaluate(5, &queries[0], f32::INFINITY);
        assert_eq!(m.lines[0], c.lines);
        assert_eq!(m.pruned, c.pruned);
    }

    #[test]
    fn rejected_chunked_saves_lines() {
        let (data, queries) = SynthSpec::gist().scaled(120, 2).generate();
        let engine = EtEngine::new(
            &data,
            EtConfig::new(FetchSchedule::uniform(data.dtype(), 8)),
        );
        let chunks: Vec<std::ops::Range<usize>> = (0..4).map(|i| i * 240..(i + 1) * 240).collect();
        let q = &queries[0];
        let full = engine.config().schedule.total_lines(240) * 4;
        let mut saved = false;
        let mut scratch = EtScratch::new();
        for id in 0..60 {
            let d = data.distance_to(id, q);
            let m = evaluate_chunked(&engine, id, q, &chunks, d * 0.5, &mut scratch);
            if m.pruned && m.total_lines() < full {
                saved = true;
            }
        }
        assert!(saved, "no chunked comparison saved lines");
    }
}
