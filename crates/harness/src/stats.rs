//! Summary statistics over repetition samples.

use serde::Serialize;

/// Summary of a set of samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct Summary {
    /// Sample count.
    pub count: usize,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Median (lower-middle for even counts).
    pub median: f64,
    /// Population standard deviation.
    pub stddev: f64,
}

impl Summary {
    /// Summarize samples; `None` for an empty or non-finite input.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
            return None;
        }
        let count = samples.len();
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let min = sorted[0];
        let max = sorted[count - 1];
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let median = sorted[(count - 1) / 2];
        let variance = sorted.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            min,
            max,
            mean,
            median,
            stddev: variance.sqrt(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.median, 2.0);
        assert!((s.stddev - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_and_nan_rejected() {
        assert!(Summary::of(&[]).is_none());
        assert!(Summary::of(&[1.0, f64::NAN]).is_none());
        assert!(Summary::of(&[1.0, f64::INFINITY]).is_none());
    }

    #[test]
    fn single_sample() {
        let s = Summary::of(&[7.5]).unwrap();
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
        assert_eq!(s.median, 7.5);
        assert_eq!(s.stddev, 0.0);
    }

    #[test]
    fn even_count_median_is_lower_middle() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(s.median, 2.0);
    }
}
