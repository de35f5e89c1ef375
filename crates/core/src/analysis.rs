//! Bit-prefix profiling (Fig. 3): prefix entropy and early-termination
//! frequency as functions of prefix length.

use std::collections::HashMap;

use ansmet_vecdata::Dataset;

use crate::bound::DistanceBounder;
use crate::encode::to_sortable;
use crate::interval::ValueInterval;

/// Shannon entropy (bits) of the top-`p`-bit prefix patterns, pooled over
/// all elements of the sampled vectors, for every `p` in `1..=bits`.
///
/// Low entropy at small `p` is the paper's *low-entropy range* (shared
/// prefixes); the entropy rises as bits become diverse.
pub fn prefix_entropy_profile(data: &Dataset, sample_ids: &[usize]) -> Vec<f64> {
    let dtype = data.dtype();
    let bits = dtype.bits();
    let mut out = Vec::with_capacity(bits as usize);
    // Collect sortable encodings once.
    let sortables: Vec<u32> = sample_ids
        .iter()
        .flat_map(|&id| data.raw_vector(id).iter().map(|&r| to_sortable(dtype, r)))
        .collect();
    let total = sortables.len() as f64;
    for p in 1..=bits {
        let mut counts: HashMap<u32, usize> = HashMap::new();
        for &s in &sortables {
            *counts.entry(s >> (bits - p)).or_insert(0) += 1;
        }
        let h: f64 = counts
            .values()
            .map(|&c| {
                let f = c as f64 / total;
                -f * f.log2()
            })
            .sum();
        out.push(h);
    }
    out
}

/// Normalized prefix entropy: each entry divided by its prefix length, so
/// the profile is comparable across lengths (bits of surprise per prefix
/// bit, in `[0, 1]`).
pub fn normalized_prefix_entropy_profile(data: &Dataset, sample_ids: &[usize]) -> Vec<f64> {
    prefix_entropy_profile(data, sample_ids)
        .into_iter()
        .enumerate()
        .map(|(i, h)| h / (i + 1) as f64)
        .collect()
}

/// One stored vector's value intervals at every prefix length, decoded
/// once so many queries can be tested against it.
///
/// Row `p` (for `p` in `0..=bits`) holds, per dimension, the interval
/// implied by the top `p` bits of the sortable encoding — exactly what
/// [`ValueInterval::from_prefix`] returns for that prefix. A table costs
/// `(bits + 1) × dim` intervals (about 250 KB for a 960-dim `f32`
/// vector), so callers hold one at a time.
#[derive(Debug)]
pub(crate) struct PrefixTable {
    bounder: DistanceBounder,
    bits: u32,
    dim: usize,
    /// `intervals[p * dim + i]`: dimension `i` known to `p` bits.
    intervals: Vec<ValueInterval>,
}

impl PrefixTable {
    /// Decode stored vector `id` of `data` at every prefix length.
    pub(crate) fn new(data: &Dataset, id: usize) -> Self {
        let dtype = data.dtype();
        let bits = dtype.bits();
        let sortable: Vec<u32> = data
            .raw_vector(id)
            .iter()
            .map(|&r| to_sortable(dtype, r))
            .collect();
        let mut intervals = Vec::with_capacity((bits as usize + 1) * sortable.len());
        for p in 0..=bits {
            intervals.extend(sortable.iter().map(|&s| {
                let prefix = if p == 0 { 0 } else { s >> (bits - p) };
                ValueInterval::from_prefix(dtype, prefix, p)
            }));
        }
        PrefixTable {
            bounder: DistanceBounder::new(data.metric()),
            bits,
            dim: sortable.len(),
            intervals,
        }
    }

    /// Distance lower bound against `query` with every dimension known to
    /// `p` bits (summed in `f64`, in dimension order).
    fn bound_at(&self, query: &[f32], p: u32) -> f64 {
        let row = p as usize * self.dim;
        self.intervals[row..row + self.dim]
            .iter()
            .zip(query)
            .map(|(&iv, &q)| self.bounder.contribution(iv, q))
            .sum()
    }

    /// The first prefix length at which the lower bound against `query`
    /// reaches `threshold`, or `None` if even full knowledge stays
    /// in-bound.
    ///
    /// All dimensions use the same prefix length `p`, matching the
    /// paper's uniform fetch pattern across dimensions. The bound is
    /// monotone in `p`, so a binary search finds the position in
    /// `O(log bits)` bound evaluations.
    pub(crate) fn first_termination(&self, query: &[f32], threshold: f32) -> Option<u32> {
        if self.bound_at(query, self.bits) < threshold as f64 {
            return None;
        }
        let (mut lo, mut hi) = (0u32, self.bits); // bound_at(hi) >= threshold
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.bound_at(query, mid) >= threshold as f64 {
                hi = mid;
            } else {
                lo = mid + 1;
            }
        }
        Some(hi)
    }
}

/// The first prefix length at which the distance lower bound between
/// stored vector `id` and `query` reaches `threshold`, or `None` if even
/// full knowledge stays in-bound.
///
/// All dimensions use the same prefix length, and a binary search over
/// it finds the position (see `PrefixTable::first_termination`). This
/// decodes a whole table for one pair; loops over many queries build the
/// table once.
pub fn first_termination_position(
    data: &Dataset,
    id: usize,
    query: &[f32],
    threshold: f32,
) -> Option<u32> {
    PrefixTable::new(data, id).first_termination(query, threshold)
}

/// The per-pair kernel [`PrefixTable`] replaced: re-encode the stored
/// vector and re-decode every interval at each binary-search step. Kept
/// as the reference the table is checked against.
#[cfg(test)]
pub(crate) fn reference_first_termination_position(
    data: &Dataset,
    id: usize,
    query: &[f32],
    threshold: f32,
) -> Option<u32> {
    let dtype = data.dtype();
    let bits = dtype.bits();
    let bounder = DistanceBounder::new(data.metric());
    let sortable: Vec<u32> = data
        .raw_vector(id)
        .iter()
        .map(|&r| to_sortable(dtype, r))
        .collect();
    let bound_at = |p: u32| -> f64 {
        sortable
            .iter()
            .zip(query)
            .map(|(&s, &q)| {
                let prefix = if p == 0 { 0 } else { s >> (bits - p) };
                bounder.contribution(ValueInterval::from_prefix(dtype, prefix, p), q)
            })
            .sum()
    };
    if bound_at(bits) < threshold as f64 {
        return None;
    }
    let (mut lo, mut hi) = (0u32, bits); // bound_at(hi) >= threshold
    while lo < hi {
        let mid = (lo + hi) / 2;
        if bound_at(mid) >= threshold as f64 {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(hi)
}

/// Early-termination frequency per prefix length (Fig. 3): entry `p-1` is
/// the fraction of sampled (vector, query) pairs whose first termination
/// happens exactly at prefix length `p`. Pairs that never terminate under
/// `threshold` contribute to no bucket.
pub fn et_frequency_profile(
    data: &Dataset,
    sample_ids: &[usize],
    queries: &[Vec<f32>],
    threshold: f32,
) -> Vec<f64> {
    let bits = data.dtype().bits() as usize;
    let mut counts = vec![0usize; bits + 1];
    let mut pairs = 0usize;
    for &id in sample_ids {
        let table = PrefixTable::new(data, id);
        for q in queries {
            pairs += 1;
            if let Some(p) = table.first_termination(q, threshold) {
                counts[p as usize] += 1;
            }
        }
    }
    let total = pairs.max(1) as f64;
    (1..=bits).map(|p| counts[p] as f64 / total).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ansmet_vecdata::{ElemType, Metric, SynthSpec};
    use proptest::prelude::*;

    #[test]
    fn entropy_zero_for_constant_data() {
        let data = Dataset::from_values("c", ElemType::U8, Metric::L2, 4, vec![70.0; 40]);
        let ids: Vec<usize> = (0..10).collect();
        let h = prefix_entropy_profile(&data, &ids);
        assert!(h.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn entropy_monotone_nondecreasing() {
        let (data, _) = SynthSpec::deep().scaled(100, 1).generate();
        let ids: Vec<usize> = (0..50).collect();
        let h = prefix_entropy_profile(&data, &ids);
        for w in h.windows(2) {
            assert!(w[1] >= w[0] - 1e-9, "{:?}", w);
        }
    }

    #[test]
    fn float_data_has_low_entropy_head() {
        // DEEP/GIST-like data: sign+exponent bits shared → the first few
        // prefix lengths have much lower entropy than the tail (Fig. 3).
        let (data, _) = SynthSpec::gist().scaled(120, 1).generate();
        let ids: Vec<usize> = (0..100).collect();
        let h = normalized_prefix_entropy_profile(&data, &ids);
        assert!(h[0] < 0.7, "sign bit should be skewed, got {}", h[0]);
        assert!(h[2] < h[14], "entropy should grow into the mantissa");
    }

    #[test]
    fn termination_position_monotone_in_threshold() {
        let (data, queries) = SynthSpec::sift().scaled(60, 2).generate();
        let q = &queries[0];
        let d = data.distance_to(5, q);
        if d <= 0.0 {
            return;
        }
        let tight = first_termination_position(&data, 5, q, d * 0.3);
        let loose = first_termination_position(&data, 5, q, d * 0.9);
        match (tight, loose) {
            (Some(a), Some(b)) => assert!(a <= b),
            (Some(_), None) => {}
            (None, Some(_)) => panic!("loose terminated but tight did not"),
            (None, None) => {}
        }
    }

    #[test]
    fn no_termination_above_true_distance() {
        let (data, queries) = SynthSpec::deep().scaled(50, 1).generate();
        let q = &queries[0];
        let d = data.distance_to(3, q);
        assert_eq!(first_termination_position(&data, 3, q, d * 1.5 + 1.0), None);
    }

    #[test]
    fn termination_position_bound_property() {
        // At the returned position the bound ≥ threshold and at position−1
        // it is < threshold (first-termination semantics).
        let (data, queries) = SynthSpec::spacev().scaled(50, 2).generate();
        let bounder = DistanceBounder::new(data.metric());
        let dtype = data.dtype();
        let bits = dtype.bits();
        for q in &queries {
            for id in 0..10 {
                let d = data.distance_to(id, q);
                let thr = d * 0.5;
                if let Some(p) = first_termination_position(&data, id, q, thr) {
                    let bound = |pl: u32| -> f64 {
                        data.raw_vector(id)
                            .iter()
                            .zip(q)
                            .map(|(&r, &qq)| {
                                let s = to_sortable(dtype, r);
                                let prefix = if pl == 0 { 0 } else { s >> (bits - pl) };
                                bounder
                                    .contribution(ValueInterval::from_prefix(dtype, prefix, pl), qq)
                            })
                            .sum()
                    };
                    assert!(bound(p) >= thr as f64);
                    if p > 0 {
                        assert!(bound(p - 1) < thr as f64);
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn prefix_table_matches_reference_kernel(
            dtype_ix in 0usize..5,
            ip in 0u8..2,
            dim in 1usize..=40,
            raw in proptest::collection::vec(-1.0f32..1.0, 80),
            slack in -1.0f64..1.0,
        ) {
            let dtype = [ElemType::U8, ElemType::I8, ElemType::F16, ElemType::Bf16, ElemType::F32]
                [dtype_ix];
            let metric = if ip == 1 { Metric::Ip } else { Metric::L2 };
            // Integer types span their range; floats vary sign and exponent.
            let scale = |v: f32| match dtype {
                ElemType::U8 => 128.0 + v * 127.0,
                ElemType::I8 => v * 127.0,
                _ => v * v * v * 64.0,
            };
            let stored: Vec<f32> = raw[..dim].iter().map(|&v| scale(v)).collect();
            let query: Vec<f32> = raw[40..40 + dim].iter().map(|&v| scale(v)).collect();
            let data = Dataset::from_values("p", dtype, metric, dim, stored);
            let exact = data.distance_to(0, &query) as f64;
            // Thresholds on both sides of the exact distance.
            let threshold = (exact + slack * (exact.abs() + 1.0)) as f32;
            let table = PrefixTable::new(&data, 0);
            // Every row's bound is the per-pair kernel's f64 sum, bit for bit.
            let bounder = DistanceBounder::new(metric);
            let bits = dtype.bits();
            for p in 0..=bits {
                let want: f64 = data
                    .raw_vector(0)
                    .iter()
                    .zip(&query)
                    .map(|(&r, &q)| {
                        let s = to_sortable(dtype, r);
                        let prefix = if p == 0 { 0 } else { s >> (bits - p) };
                        bounder.contribution(ValueInterval::from_prefix(dtype, prefix, p), q)
                    })
                    .sum();
                prop_assert_eq!(table.bound_at(&query, p).to_bits(), want.to_bits());
            }
            prop_assert_eq!(
                table.first_termination(&query, threshold),
                reference_first_termination_position(&data, 0, &query, threshold)
            );
            prop_assert_eq!(
                first_termination_position(&data, 0, &query, threshold),
                reference_first_termination_position(&data, 0, &query, threshold)
            );
        }
    }

    #[test]
    fn frequency_profile_matches_reference_pairs() {
        let (data, queries) = SynthSpec::deep().scaled(60, 6).generate();
        let ids: Vec<usize> = (0..30).collect();
        let thr = data.distance_to(0, &queries[0]);
        let bits = data.dtype().bits() as usize;
        let mut counts = vec![0usize; bits + 1];
        for q in &queries {
            for &id in &ids {
                if let Some(p) = reference_first_termination_position(&data, id, q, thr) {
                    counts[p as usize] += 1;
                }
            }
        }
        let pairs = (queries.len() * ids.len()) as f64;
        let want: Vec<u64> = (1..=bits)
            .map(|p| (counts[p] as f64 / pairs).to_bits())
            .collect();
        let got: Vec<u64> = et_frequency_profile(&data, &ids, &queries, thr)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn frequency_profile_sums_at_most_one() {
        let (data, queries) = SynthSpec::sift().scaled(40, 4).generate();
        let ids: Vec<usize> = (0..20).collect();
        // Use a mid-range threshold.
        let thr = data.distance_to(0, &queries[0]);
        let f = et_frequency_profile(&data, &ids, &queries, thr);
        let sum: f64 = f.iter().sum();
        assert!(sum <= 1.0 + 1e-9);
        assert_eq!(f.len(), 8);
    }
}
