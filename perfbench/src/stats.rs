//! Exact order statistics over raw samples.
//!
//! Every reported timing is computed from the sorted samples themselves,
//! never from log₂ latency buckets (which can only report bucket edges).
//! Quartiles follow the "exclusive" method of Python's
//! `statistics.quantiles`, so a figure printed here can be recomputed
//! from the raw values with the standard library.

/// Order statistics of one sample set.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Median (mean of the two middle samples for an even count).
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest sample.
    pub max: f64,
    /// The highest standard percentile that has at least ten samples
    /// beyond it, as `(percentile, value)`; `None` below 20 samples.
    pub high: Option<(f64, f64)>,
}

/// Percentiles tried for [`Summary::high`], highest first.
const HIGH_PERCENTILES: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples that must lie strictly beyond a reported high percentile.
const TAIL_SAMPLES: usize = 10;

impl Summary {
    /// Summarizes `samples` (any order); `None` when empty.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let quartiles = quantiles(&sorted, 4);
        Some(Summary {
            count: sorted.len(),
            median: quantiles(&sorted, 2)[0],
            q1: quartiles[0],
            q3: quartiles[2],
            max: sorted[sorted.len() - 1],
            high: high_percentile(&sorted),
        })
    }

    /// The high percentile's value, or the maximum when there are too few
    /// samples for any percentile to have ten samples beyond it.
    #[must_use]
    pub fn high_or_max(&self) -> f64 {
        self.high.map_or(self.max, |(_, v)| v)
    }

    /// Human-readable one-liner: median, quartiles, tail and count.
    #[must_use]
    pub fn describe(&self, unit: &str) -> String {
        let tail = match self.high {
            Some((p, v)) => format!("p{p}={v:.4}{unit}"),
            None => format!("max={:.4}{unit}", self.max),
        };
        format!(
            "median={:.4}{unit} q1={:.4}{unit} q3={:.4}{unit} {tail} n={}",
            self.median, self.q1, self.q3, self.count
        )
    }
}

/// The `n - 1` cut points dividing sorted `data` into `n` groups, by the
/// exclusive method (`statistics.quantiles(data, n=n)`). A single sample
/// is its own cut point everywhere.
#[must_use]
fn quantiles(sorted: &[f64], n: usize) -> Vec<f64> {
    let ld = sorted.len();
    assert!(ld > 0 && n > 1, "quantiles need samples and n >= 2");
    if ld == 1 {
        return vec![sorted[0]; n - 1];
    }
    let m = ld + 1;
    (1..n)
        .map(|i| {
            let j = (i * m / n).clamp(1, ld - 1);
            let delta = (i * m) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        })
        .collect()
}

/// The highest of [`HIGH_PERCENTILES`] whose nearest-rank sample has at
/// least [`TAIL_SAMPLES`] samples beyond it.
fn high_percentile(sorted: &[f64]) -> Option<(f64, f64)> {
    let n = sorted.len();
    HIGH_PERCENTILES.iter().find_map(|&p| {
        // Nearest rank: the smallest sample with at least p% at or below.
        let rank = ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n);
        (n - rank >= TAIL_SAMPLES).then(|| (p, sorted[rank - 1]))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn odd_count_median_and_quartiles() {
        // statistics.quantiles([1..=9], n=4) == [2.5, 5.0, 7.5]
        let s = Summary::of(&[9.0, 1.0, 5.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0]).unwrap();
        assert_eq!(s.count, 9);
        assert!(close(s.median, 5.0));
        assert!(close(s.q1, 2.5));
        assert!(close(s.q3, 7.5));
        assert!(close(s.max, 9.0));
        assert_eq!(s.high, None, "nine samples support no tail percentile");
        assert!(close(s.high_or_max(), 9.0));
    }

    #[test]
    fn even_count_interpolates() {
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        let s = Summary::of(&[8.0, 4.0, 2.0, 1.0]).unwrap();
        assert!(close(s.median, 3.0));
        assert!(close(s.q1, 1.25));
        assert!(close(s.q3, 7.0));
    }

    #[test]
    fn ten_runs_like_the_acceptance_check() {
        // statistics.quantiles([10, 11, ..., 19], n=4) == [11.75, 14.5, 17.25]
        let v: Vec<f64> = (10..20).map(f64::from).collect();
        let q = quantiles(&v, 4);
        assert!(close(q[0], 11.75) && close(q[1], 14.5) && close(q[2], 17.25));
    }

    #[test]
    fn single_sample_is_every_statistic() {
        let s = Summary::of(&[0.25]).unwrap();
        assert!(close(s.median, 0.25) && close(s.q1, 0.25) && close(s.q3, 0.25));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn high_percentile_keeps_ten_samples_beyond() {
        // 1..=100: p90 is the 90th sample (10 beyond); p95 would leave 5.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().high, Some((90.0, 90.0)));
        // 1..=1000: p99 is the 990th sample, 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().high, Some((99.0, 990.0)));
        // 1..=20: only the median qualifies (10 beyond the 10th sample).
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().high, Some((50.0, 10.0)));
        // 1..=19: nothing has ten samples beyond it.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(Summary::of(&v).unwrap().high, None);
    }
}
