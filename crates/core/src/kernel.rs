//! The early-termination bound kernel (DESIGN §7.6).
//!
//! [`refine`] runs one comparison's bound refinement: the zero-payload
//! pass over the sub-vector, then one pass per fetched 64 B line, each
//! line updating the contributions of the dimensions it covers. Both
//! passes evaluate elements through one body, generic over the element
//! decode ([`Elem`]) and the metric's contribution ([`Contribution`]);
//! `EtEngine` instantiates it once per `(ElemType, Metric)` with a single
//! `match` outside the loop, so the element body carries no dtype or
//! metric dispatch.
//!
//! Every bound is bit-identical to the per-element `ValueInterval` +
//! `DistanceBounder` form it replaces (kept in `engine.rs` as a
//! `cfg(test)` reference):
//!
//! * an element whose top `known` sortable bits are fetched lies in
//!   `[s & !ones, (s & !ones) | ones]` with `ones` the low
//!   `bits − known` bits — exactly `ValueInterval::from_prefix`'s
//!   endpoints, including the NaN → ±∞ widening of float extremes;
//! * `known` depends only on the line's cumulative payload for vectors
//!   without outliers, so `ones` is computed once per line; outlier
//!   vectors take it per element from the matched prefix length;
//! * the L2 term is `d = max(lo − q, 0) + max(q − hi, 0); d²`. Outside
//!   the interval exactly one summand is non-zero and equals the
//!   branchy form's difference; inside, both are ±0 and `d²` is +0; an
//!   infinite endpoint on the query's side clamps to 0.

use std::marker::PhantomData;
use std::ops::Range;

use ansmet_vecdata::ElemType;

use crate::encode::{from_sortable, to_sortable};
use crate::schedule::LinePlan;

/// Element decode, fixed at compile time.
pub(crate) trait Elem {
    /// The element type decoded.
    const DTYPE: ElemType;

    /// Sortable pattern of a raw storage pattern.
    #[inline(always)]
    fn sortable(raw: u32) -> u32 {
        to_sortable(Self::DTYPE, raw)
    }

    /// Lower interval endpoint of sortable pattern `s` (a NaN pattern
    /// below −∞ widens to −∞).
    #[inline(always)]
    fn lo(s: u32) -> f32 {
        let v = Self::DTYPE.decode(from_sortable(Self::DTYPE, s));
        if v.is_nan() {
            f32::NEG_INFINITY
        } else {
            v
        }
    }

    /// Upper interval endpoint of sortable pattern `s` (a NaN pattern
    /// above +∞ widens to +∞).
    #[inline(always)]
    fn hi(s: u32) -> f32 {
        let v = Self::DTYPE.decode(from_sortable(Self::DTYPE, s));
        if v.is_nan() {
            f32::INFINITY
        } else {
            v
        }
    }
}

macro_rules! elem {
    ($($name:ident => $dtype:expr),* $(,)?) => {
        $(
            pub(crate) struct $name;
            impl Elem for $name {
                const DTYPE: ElemType = $dtype;
            }
        )*
    };
}

elem!(
    U8 => ElemType::U8,
    I8 => ElemType::I8,
    F16 => ElemType::F16,
    Bf16 => ElemType::Bf16,
    F32 => ElemType::F32,
);

/// A metric's lower-bound contribution of one dimension, fixed at
/// compile time.
pub(crate) trait Contribution {
    /// Whether a contribution can be −∞ (an unbounded interval).
    const UNBOUNDED: bool;

    /// Lower bound of the dimension's contribution when its element lies
    /// in `[lo, hi]` and the query coordinate is `q`.
    fn of(lo: f32, hi: f32, q: f32) -> f64;
}

/// Squared Euclidean distance.
pub(crate) struct L2;
/// Negated inner product.
pub(crate) struct Ip;

/// `x` if positive, else +0 (one `maxsd`; −0 and NaN map to +0).
#[inline(always)]
fn positive(x: f64) -> f64 {
    if x > 0.0 {
        x
    } else {
        0.0
    }
}

impl Contribution for L2 {
    // A square is never negative.
    const UNBOUNDED: bool = false;

    #[inline(always)]
    fn of(lo: f32, hi: f32, q: f32) -> f64 {
        let q = q as f64;
        let d = positive(lo as f64 - q) + positive(q - hi as f64);
        d * d
    }
}

impl Contribution for Ip {
    const UNBOUNDED: bool = true;

    #[inline(always)]
    fn of(lo: f32, hi: f32, q: f32) -> f64 {
        let qf = q as f64;
        let c = -(lo as f64 * qf).max(hi as f64 * qf);
        // A zero query coordinate contributes nothing (and avoids
        // 0 × ∞ = NaN on unbounded intervals).
        if q == 0.0 {
            0.0
        } else {
            c
        }
    }
}

/// Low `missing` bits set (`missing` in `0..=32`).
#[inline(always)]
fn low_ones(missing: u32) -> u32 {
    ((1u64 << missing) - 1) as u32
}

/// How a vector's elements know their prefix length.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Known<'a> {
    /// Every element knows `base + payload` bits: `base` is 0 without
    /// prefix elimination and the prefix length in the normal format.
    Uniform {
        /// Bits known before any payload arrives.
        base: u32,
    },
    /// Outlier format: each element's matched prefix length decides.
    Outlier {
        /// Matched prefix length per element of the vector.
        matched: &'a [u32],
        /// Eliminated prefix length.
        prefix_len: u32,
        /// Per-element metadata bits of the outlier format.
        meta: u32,
    },
}

/// The missing-bit masks of one line (or of the zero-payload pass).
#[derive(Debug, Clone, Copy)]
enum LineMask<'a> {
    /// One mask for every element.
    Uniform(u32),
    /// Outlier vectors: per element, from its matched prefix length.
    Outlier {
        matched: &'a [u32],
        prefix_len: u32,
        /// Known bits of an element that matches the whole prefix.
        matched_known: u32,
        /// Payload bits an outlier element has gained past its mismatch.
        usable: u32,
    },
}

impl<'a> LineMask<'a> {
    /// Masks after `payload` stored bits per element have arrived.
    #[inline(always)]
    fn new(known: Known<'a>, bits: u32, payload: u32) -> Self {
        match known {
            Known::Uniform { base } => {
                LineMask::Uniform(low_ones(bits - (base + payload).min(bits)))
            }
            Known::Outlier {
                matched,
                prefix_len,
                meta,
            } => {
                // A normal element inside an outlier vector: one 01Elm
                // flag bit precedes the payload. An outlier element:
                // metadata precedes the payload, stored bits resume at
                // the mismatch position and the lowest bits are dropped
                // (the interval stays conservative).
                let payload_cap = (bits - prefix_len).saturating_sub(meta);
                LineMask::Outlier {
                    matched,
                    prefix_len,
                    matched_known: (prefix_len + payload.saturating_sub(1)).min(bits),
                    usable: payload.saturating_sub(meta).min(payload_cap),
                }
            }
        }
    }

    /// Missing-bit mask of element `d` (vector-relative).
    #[inline(always)]
    fn ones(&self, bits: u32, d: usize) -> u32 {
        match *self {
            LineMask::Uniform(ones) => ones,
            LineMask::Outlier {
                matched,
                prefix_len,
                matched_known,
                usable,
            } => {
                let m = matched[d];
                let known = if m == prefix_len {
                    matched_known
                } else {
                    (m + usable).min(bits)
                };
                low_ones(bits - known)
            }
        }
    }
}

/// One comparison's inputs to the kernel.
pub(crate) struct Comparison<'a> {
    /// The stored vector's raw storage patterns (all dimensions).
    pub raw: &'a [u32],
    /// The stored vector's canonical values (all dimensions).
    pub values: &'a [f32],
    /// The query (all dimensions).
    pub query: &'a [f32],
    /// The evaluated dimension range.
    pub dims: Range<usize>,
    /// Line plan of the evaluated range (dimensions relative to `dims`).
    pub plan: &'a [LinePlan],
    /// Cumulative payload bits after each schedule step.
    pub cumulative: &'a [u32],
    /// How elements know their prefix length.
    pub known: Known<'a>,
    /// Abort once the bound reaches this.
    pub threshold: f64,
}

/// Where the refinement stopped.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Refined {
    /// Lines fetched.
    pub lines: usize,
    /// The bound in force when the refinement stopped. For a sub-range
    /// fetched completely it is the exact partial contribution.
    pub bound: f64,
    /// Whether the bound reached the threshold before the last line.
    pub pruned: bool,
}

/// Blocked 4-accumulator f64 sum (keeps independent addition chains).
pub(crate) fn sum4(xs: &[f64]) -> f64 {
    let mut acc = [0.0f64; 4];
    let mut it = xs.chunks_exact(4);
    for c in &mut it {
        acc[0] += c[0];
        acc[1] += c[1];
        acc[2] += c[2];
        acc[3] += c[3];
    }
    let tail: f64 = it.remainder().iter().sum();
    (acc[0] + acc[1]) + (acc[2] + acc[3]) + tail
}

/// The element body shared by both passes.
struct Body<'a, E, M> {
    raw: &'a [u32],
    query: &'a [f32],
    /// First dimension of the evaluated range.
    start: usize,
    bits: u32,
    _kind: PhantomData<(E, M)>,
}

impl<E: Elem, M: Contribution> Body<'_, E, M> {
    /// Contribution of range element `j` under `mask`.
    #[inline(always)]
    fn contribution(&self, mask: &LineMask<'_>, j: usize) -> f64 {
        let d = self.start + j;
        let ones = mask.ones(self.bits, d);
        let lo = E::sortable(self.raw[d]) & !ones;
        M::of(E::lo(lo), E::hi(lo | ones), self.query[d])
    }

    /// Refresh `contribs[j]` under `mask` and return what its chain
    /// adds; `unbounded` counts the −∞ contributions.
    #[inline(always)]
    fn refresh(
        &self,
        mask: &LineMask<'_>,
        contribs: &mut [f64],
        unbounded: &mut usize,
        j: usize,
    ) -> f64 {
        let c = self.contribution(mask, j);
        let old = std::mem::replace(&mut contribs[j], c);
        if !M::UNBOUNDED {
            c - old
        } else if old == f64::NEG_INFINITY {
            if c != f64::NEG_INFINITY {
                *unbounded -= 1;
                c
            } else {
                // Still unbounded: adds nothing. A chain starts at +0
                // and so is never −0, and x + 0.0 == x bit for bit for
                // every other x.
                0.0
            }
        } else {
            c - old
        }
    }

    /// Refresh the elements `range` covers and sum their deltas into
    /// four chains, chain `j & 3`, each in ascending `j`. Aligned groups
    /// of four address the chains by constant index, so the accumulators
    /// stay in registers.
    #[inline(always)]
    fn line(
        &self,
        mask: &LineMask<'_>,
        range: Range<usize>,
        contribs: &mut [f64],
        unbounded: &mut usize,
    ) -> [f64; 4] {
        let Range { mut start, end } = range;
        let mut delta = [0.0f64; 4];
        while start < end && start & 3 != 0 {
            delta[start & 3] += self.refresh(mask, contribs, unbounded, start);
            start += 1;
        }
        while start + 4 <= end {
            delta[0] += self.refresh(mask, contribs, unbounded, start);
            delta[1] += self.refresh(mask, contribs, unbounded, start + 1);
            delta[2] += self.refresh(mask, contribs, unbounded, start + 2);
            delta[3] += self.refresh(mask, contribs, unbounded, start + 3);
            start += 4;
        }
        while start < end {
            delta[start & 3] += self.refresh(mask, contribs, unbounded, start);
            start += 1;
        }
        delta
    }
}

/// Refine `cmp`'s bound line by line until it reaches the threshold or
/// the plan is exhausted. `contribs` is scratch for the per-dimension
/// contributions. A full-range comparison that is not pruned returns
/// the refined bound; a sub-range one returns its exact partial
/// contribution (the caller never sees the sub-range's refined bound).
pub(crate) fn refine<E: Elem, M: Contribution>(
    cmp: &Comparison<'_>,
    contribs: &mut Vec<f64>,
) -> Refined {
    let bits = E::DTYPE.bits();
    let body = Body::<E, M> {
        raw: cmp.raw,
        query: cmp.query,
        start: cmp.dims.start,
        bits,
        _kind: PhantomData,
    };
    let sub = cmp.dims.len();

    // Initial contributions with zero payload fetched. Unbounded
    // dimensions (−∞, e.g. unfetched FP32 under inner product) are
    // counted separately so incremental updates stay well-defined.
    contribs.clear();
    contribs.resize(sub, 0.0);
    let mask = LineMask::new(cmp.known, bits, 0);
    let mut unbounded = 0usize;
    for (j, slot) in contribs.iter_mut().enumerate() {
        let c = body.contribution(&mask, j);
        *slot = c;
        unbounded += (c == f64::NEG_INFINITY) as usize;
    }
    // Blocked 4-wide reduction of the finite contributions.
    let mut finite_sum = if unbounded == 0 {
        sum4(contribs)
    } else {
        contribs
            .iter()
            .filter(|&&c| c != f64::NEG_INFINITY)
            .sum::<f64>()
    };
    let bound_of = |unbounded: usize, finite_sum: f64| {
        if unbounded > 0 {
            f64::NEG_INFINITY
        } else {
            finite_sum
        }
    };
    let mut bound = bound_of(unbounded, finite_sum);
    if bound >= cmp.threshold {
        return Refined {
            lines: 0,
            bound,
            pruned: true,
        };
    }

    // Fetch line by line, refining each covered dimension's interval
    // and accumulating bound deltas in four independent f64 chains.
    let mut lines = 0usize;
    for lp in cmp.plan {
        lines += 1;
        let mask = LineMask::new(cmp.known, bits, cmp.cumulative[lp.step]);
        let delta = body.line(&mask, lp.dim_start..lp.dim_end, contribs, &mut unbounded);
        finite_sum += (delta[0] + delta[1]) + (delta[2] + delta[3]);
        bound = bound_of(unbounded, finite_sum);
        if bound >= cmp.threshold && lines < cmp.plan.len() {
            return Refined {
                lines,
                bound,
                pruned: true,
            };
        }
    }

    if sub != cmp.raw.len() {
        // Sub-vector evaluation: report the local partial contribution.
        bound = cmp
            .dims
            .clone()
            .map(|d| M::of(cmp.values[d], cmp.values[d], cmp.query[d]))
            .sum();
    }
    Refined {
        lines,
        bound,
        pruned: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bound::DistanceBounder;
    use crate::interval::ValueInterval;
    use ansmet_vecdata::Metric;

    /// The branch-free L2 term equals `DistanceBounder::contribution` bit
    /// for bit at the interval's edges, at infinite endpoints and for a
    /// signed-zero query.
    #[test]
    fn branch_free_l2_pins_branchy_form() {
        let b = DistanceBounder::new(Metric::L2);
        let inf = f32::INFINITY;
        let cases: &[(f32, f32, f32)] = &[
            (1.0, 5.0, 1.0),   // q == lo
            (1.0, 5.0, 5.0),   // q == hi
            (1.0, 5.0, 3.0),   // inside
            (1.0, 5.0, -2.5),  // below
            (1.0, 5.0, 7.25),  // above
            (3.0, 3.0, 3.0),   // exact interval, q on it
            (-inf, inf, 2.0),  // both endpoints infinite
            (-inf, 4.0, 9.0),  // −∞ lower endpoint, q above
            (-inf, 4.0, -9.0), // −∞ lower endpoint, q inside
            (4.0, inf, -9.0),  // +∞ upper endpoint, q below
            (4.0, inf, 9.0),   // +∞ upper endpoint, q inside
            (-0.0, 0.0, 0.0),
            (-0.0, 0.0, -0.0),
            (0.0, 1.0, -0.0),
            (-1.0, -0.0, 0.0),
            (0.5, 1.0, -0.0),
            (-1.0, -0.5, 0.0),
        ];
        for &(lo, hi, q) in cases {
            let want = b.contribution(ValueInterval { lo, hi }, q);
            let got = L2::of(lo, hi, q);
            assert_eq!(got.to_bits(), want.to_bits(), "[{lo}, {hi}] q = {q}");
        }
    }

    #[test]
    fn ip_contribution_pins_bounder() {
        let b = DistanceBounder::new(Metric::Ip);
        let inf = f32::INFINITY;
        for &(lo, hi) in &[(-2.0f32, 3.0f32), (-inf, inf), (0.0, 255.0), (-inf, -1.0)] {
            for &q in &[-2.0f32, -0.0, 0.0, 0.5, 7.0] {
                let want = b.contribution(ValueInterval { lo, hi }, q);
                assert_eq!(
                    Ip::of(lo, hi, q).to_bits(),
                    want.to_bits(),
                    "[{lo}, {hi}] q = {q}"
                );
            }
        }
    }

    /// Every mask reproduces `ValueInterval::from_prefix`'s endpoints.
    #[test]
    fn masked_endpoints_match_from_prefix() {
        fn check<E: Elem>(patterns: impl Iterator<Item = u32>) {
            let bits = E::DTYPE.bits();
            for raw in patterns {
                let s = E::sortable(raw);
                for known in 0..=bits {
                    let ones = low_ones(bits - known);
                    let lo = s & !ones;
                    let prefix = if known == 0 { 0 } else { s >> (bits - known) };
                    let iv = ValueInterval::from_prefix(E::DTYPE, prefix, known);
                    assert_eq!(E::lo(lo).to_bits(), iv.lo.to_bits(), "{:?}", E::DTYPE);
                    assert_eq!(
                        E::hi(lo | ones).to_bits(),
                        iv.hi.to_bits(),
                        "{:?}",
                        E::DTYPE
                    );
                }
            }
        }
        check::<U8>(0..256);
        check::<I8>(0..256);
        check::<F16>((0..0x1_0000).step_by(7));
        check::<Bf16>((0..0x1_0000).step_by(7));
        check::<F32>((0..u32::MAX).step_by(9_999_991).chain([
            0,
            u32::MAX,
            0x8000_0000,
            0x7f80_0000,
        ]));
    }
}
