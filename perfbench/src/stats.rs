//! Order statistics over exact samples, and the percentile reporting
//! rule: a percentile is reported only when at least
//! [`MIN_BEYOND`] samples lie beyond it, and always with its sample
//! count.

/// Samples that must lie strictly beyond a percentile's rank before the
/// percentile is reported — fewer, and the figure is one or two
/// outliers rather than a tail.
pub const MIN_BEYOND: usize = 10;

/// One reported percentile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The sample at the nearest rank.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples ranked beyond it.
    pub beyond: usize,
}

/// The `pct`-th percentile (0 < `pct` < 100) of `sorted` by nearest
/// rank, or `None` when fewer than [`MIN_BEYOND`] samples lie beyond
/// it. `sorted` must be in ascending order.
pub fn percentile<T: Copy + Into<f64>>(sorted: &[T], pct: f64) -> Option<Percentile> {
    debug_assert!(pct > 0.0 && pct < 100.0);
    let n = sorted.len();
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1].into(),
        samples: n,
        beyond: n - rank,
    })
}

/// Median of `values` (mean of the middle pair for an even count);
/// `None` when empty. Sorts in place.
pub fn median(values: &mut [f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    Some(if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    })
}

/// Median of samples of any type that widens to `f64`.
pub fn median_of<T: Copy + Into<f64>>(values: &[T]) -> Option<f64> {
    let mut v: Vec<f64> = values.iter().map(|&x| x.into()).collect();
    median(&mut v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p95_needs_ten_samples_beyond() {
        // 200 samples: rank 190, exactly 10 beyond.
        let p = percentile(&ramp(200), 95.0).expect("200 samples support p95");
        assert_eq!(p.value, 190.0);
        assert_eq!(p.samples, 200);
        assert_eq!(p.beyond, 10);
        // 199 samples: rank ceil(189.05) = 190, only 9 beyond.
        assert_eq!(percentile(&ramp(199), 95.0), None);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert!(percentile(&ramp(999), 99.0).is_none());
        let p = percentile(&ramp(1000), 99.0).expect("1000 samples support p99");
        assert_eq!((p.value, p.beyond, p.samples), (990.0, 10, 1000));
    }

    #[test]
    fn p50_reports_its_sample_count() {
        let p = percentile(&ramp(21), 50.0).expect("21 samples support p50");
        assert_eq!((p.value, p.samples, p.beyond), (11.0, 21, 10));
        assert!(percentile(&ramp(19), 50.0).is_none());
        assert!(percentile::<f64>(&[], 50.0).is_none());
        let ns: Vec<u32> = (1..=21).collect();
        assert_eq!(percentile(&ns, 50.0).map(|p| p.value), Some(11.0));
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&mut []), None);
        assert_eq!(median_of(&[5u32, 1, 9]), Some(5.0));
    }
}
