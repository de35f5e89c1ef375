//! Order-preserving ("sortable") bit encodings.
//!
//! Early termination needs one property from the storage format: knowing
//! the most-significant `p` bits of an element must confine its value to a
//! contiguous interval. Integers already have it; IEEE floats get it after
//! a standard sign-magnitude transformation. The resulting unsigned
//! patterns compare like the values they encode:
//!
//! * `U8` — identity.
//! * `I8` — XOR the sign bit (offset-binary).
//! * `F32`/`F16`/`BF16` — if the sign bit is set, flip all bits; otherwise
//!   flip only the sign bit.
//!
//! This also realizes the paper's observation that "bits having more
//! impact on distance are towards the more significant positions and
//! fetched earlier; e.g., the exponent is fetched before the mantissa".

use ansmet_vecdata::ElemType;

/// Convert a raw storage pattern (LSB-aligned, from
/// [`ansmet_vecdata::Dataset::raw_vector`]) to its sortable encoding
/// (LSB-aligned in the type's bit width).
#[inline]
pub fn to_sortable(dtype: ElemType, raw: u32) -> u32 {
    match dtype {
        ElemType::U8 => raw & 0xff,
        ElemType::I8 => (raw ^ 0x80) & 0xff,
        ElemType::F16 | ElemType::Bf16 => {
            let bits = raw & 0xffff;
            if bits & 0x8000 != 0 {
                !bits & 0xffff
            } else {
                bits | 0x8000
            }
        }
        ElemType::F32 => {
            if raw & 0x8000_0000 != 0 {
                !raw
            } else {
                raw | 0x8000_0000
            }
        }
    }
}

/// Inverse of [`to_sortable`]: recover the raw storage pattern.
#[inline]
pub fn from_sortable(dtype: ElemType, sortable: u32) -> u32 {
    match dtype {
        ElemType::U8 => sortable & 0xff,
        ElemType::I8 => (sortable ^ 0x80) & 0xff,
        ElemType::F16 | ElemType::Bf16 => {
            let bits = sortable & 0xffff;
            if bits & 0x8000 != 0 {
                bits & 0x7fff
            } else {
                !bits & 0xffff
            }
        }
        ElemType::F32 => {
            if sortable & 0x8000_0000 != 0 {
                sortable & 0x7fff_ffff
            } else {
                !sortable
            }
        }
    }
}

/// Decode a sortable pattern directly to the canonical value.
pub fn sortable_to_value(dtype: ElemType, sortable: u32) -> f32 {
    dtype.decode(from_sortable(dtype, sortable))
}

/// Encode a canonical value directly to its sortable pattern.
pub fn value_to_sortable(dtype: ElemType, value: f32) -> u32 {
    to_sortable(dtype, dtype.encode(value))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn all_types() -> [ElemType; 5] {
        [
            ElemType::U8,
            ElemType::I8,
            ElemType::F32,
            ElemType::F16,
            ElemType::Bf16,
        ]
    }

    #[test]
    fn roundtrip_8bit_exhaustive() {
        for dtype in [ElemType::U8, ElemType::I8] {
            for raw in 0..=255u32 {
                assert_eq!(from_sortable(dtype, to_sortable(dtype, raw)), raw);
            }
        }
    }

    #[test]
    fn roundtrip_16bit_exhaustive() {
        for dtype in [ElemType::F16, ElemType::Bf16] {
            for raw in 0..=0xffffu32 {
                assert_eq!(from_sortable(dtype, to_sortable(dtype, raw)), raw);
            }
        }
    }

    #[test]
    fn i8_order_exhaustive() {
        // Sortable encodings must order exactly like the decoded values.
        let mut pairs: Vec<(u32, f32)> = (0..=255u32)
            .map(|raw| (to_sortable(ElemType::I8, raw), ElemType::I8.decode(raw)))
            .collect();
        pairs.sort_by_key(|p| p.0);
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1, "{:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn f16_order_exhaustive_finite() {
        let mut pairs: Vec<(u32, f32)> = (0..=0xffffu32)
            .map(|raw| (to_sortable(ElemType::F16, raw), ElemType::F16.decode(raw)))
            .filter(|(_, v)| v.is_finite())
            .collect();
        pairs.sort_by_key(|p| p.0);
        for w in pairs.windows(2) {
            assert!(w[0].1 <= w[1].1, "{:?} vs {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn f32_known_orderings() {
        let vals = [-1e30f32, -2.5, -0.0, 0.0, 1e-30, 1.0, 3.5, 1e30];
        for w in vals.windows(2) {
            let a = value_to_sortable(ElemType::F32, w[0]);
            let b = value_to_sortable(ElemType::F32, w[1]);
            assert!(a <= b, "{} vs {}", w[0], w[1]);
        }
    }

    #[test]
    fn sortable_to_value_consistency() {
        for dtype in all_types() {
            let raw = dtype.encode(3.0);
            let s = to_sortable(dtype, raw);
            assert_eq!(sortable_to_value(dtype, s), dtype.decode(raw));
        }
    }

    proptest! {
        #[test]
        fn f32_roundtrip(v in -1e30f32..1e30) {
            let raw = v.to_bits();
            prop_assert_eq!(from_sortable(ElemType::F32, to_sortable(ElemType::F32, raw)), raw);
        }

        #[test]
        fn f32_order(a in -1e30f32..1e30, b in -1e30f32..1e30) {
            let sa = value_to_sortable(ElemType::F32, a);
            let sb = value_to_sortable(ElemType::F32, b);
            if a < b {
                prop_assert!(sa < sb);
            } else if a > b {
                prop_assert!(sa > sb);
            }
        }

        #[test]
        fn u8_identity(raw in 0u32..256) {
            prop_assert_eq!(to_sortable(ElemType::U8, raw), raw);
        }
    }
}
