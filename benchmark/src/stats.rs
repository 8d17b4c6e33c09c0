//! Order statistics over the rounds of one run.

/// The distribution of one metric over the accepted rounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Rounds summarized.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median: the value every end-to-end metric reports.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Interquartile range as a share of the median: the run-to-run
    /// spread a bound is compared against.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

fn median_of_sorted(v: &[f64]) -> f64 {
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The median of `values`; `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    median_of_sorted(&sorted(values))
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the "exclusive" method), so the
/// spreads printed here are the ones the driver computes. With fewer than
/// two values both quartiles are the median.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    quartiles_of_sorted(&sorted(values))
}

fn quartiles_of_sorted(v: &[f64]) -> (f64, f64) {
    let n = v.len();
    if n < 2 {
        let m = median_of_sorted(v);
        return (m, m);
    }
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        // May be negative or above 4 once `j` is clamped: the end points
        // are then extrapolated, exactly as Python does.
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Summarizes `values`; every field is `NaN` when empty.
pub fn summarize(values: &[f64]) -> Summary {
    let v = sorted(values);
    let (q1, q3) = quartiles_of_sorted(&v);
    Summary {
        n: v.len(),
        min: v.first().copied().unwrap_or(f64::NAN),
        q1,
        median: median_of_sorted(&v),
        q3,
        max: v.last().copied().unwrap_or(f64::NAN),
    }
}

/// The `p`-th percentile (0–100) by linear interpolation; `NaN` when
/// empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return f64::NAN;
    }
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4)
        //   -> [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) -> [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), (1.5, 12.0));
        // statistics.quantiles([1, 3], n=4) -> [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), (0.5, 3.5));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
    }

    #[test]
    fn summary_and_spread() {
        let s = summarize(&[10.0, 12.0, 11.0, 9.0, 13.0]);
        assert_eq!((s.n, s.min, s.median, s.max), (5, 9.0, 11.0, 13.0));
        assert_eq!((s.q1, s.q3), (9.5, 12.5));
        assert!((s.spread() - 3.0 / 11.0).abs() < 1e-12);
    }

    #[test]
    fn percentile_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 90.0), 4.6);
        assert_eq!(percentile(&v, 100.0), 5.0);
    }
}
