//! ULP (units-in-the-last-place) distance between f64 values: the bound
//! the tests put on the rounding drift of a reordered reduction.
//!
//! Finite floats of the same sign map onto consecutive integers under
//! their bit patterns; mapping negative values through the sign-magnitude
//! flip makes the whole finite line monotone, so the ULP distance is an
//! integer difference. NaNs (and comparisons that would cross infinity)
//! return the maximum distance — never "close".

fn ordered_f64(x: f64) -> i128 {
    let bits = x.to_bits() as i64;
    let ordered = if bits < 0 { i64::MIN - bits } else { bits };
    ordered as i128
}

/// ULP distance between two f64 values (`u128::MAX` if either is NaN).
pub(crate) fn ulp_distance_f64(x: f64, y: f64) -> u128 {
    if x.is_nan() || y.is_nan() {
        return u128::MAX;
    }
    (ordered_f64(x) - ordered_f64(y)).unsigned_abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_values_are_zero_apart() {
        assert_eq!(ulp_distance_f64(-2.25, -2.25), 0);
    }

    #[test]
    fn signed_zeros_are_zero_apart() {
        assert_eq!(ulp_distance_f64(0.0, -0.0), 0);
    }

    #[test]
    fn adjacent_representable_values_are_one_apart() {
        let y = -1.0f64;
        let next = f64::from_bits(y.to_bits() + 1); // next representable
        assert_eq!(ulp_distance_f64(y, next), 1);
    }

    #[test]
    fn crossing_zero_counts_both_sides() {
        let tiny = f64::from_bits(1); // smallest positive subnormal
        assert_eq!(ulp_distance_f64(tiny, -tiny), 2);
    }

    #[test]
    fn nan_is_never_close() {
        assert_eq!(ulp_distance_f64(1.0, f64::NAN), u128::MAX);
    }
}
