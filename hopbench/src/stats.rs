//! Order statistics over samples and runs, and the regression verdict
//! `hopbench compare` prints.

/// The median of `values` (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) does, so spreads match the acceptance check.
/// One value gives that value three times.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return [v[0]; 3];
    }
    let m = ld as i64 + 1;
    let n = 4i64;
    let mut out = [0.0; 3];
    for (i, slot) in (1..n).zip(out.iter_mut()) {
        let j = (i * m / n).clamp(1, ld as i64 - 1);
        let delta = (i * m - j * n) as f64;
        let j = j as usize;
        *slot = (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64;
    }
    out
}

/// Interquartile distance as a share of the median: the run-to-run
/// spread every bound is checked against.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        return if q3 == q1 { 0.0 } else { f64::INFINITY };
    }
    (q3 - q1) / q2.abs()
}

/// The `p`-quantile (0 ≤ p ≤ 1) of `values`, interpolating linearly
/// between the closest ranks.
pub fn order_stat(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "order statistic of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let k = (v.len() - 1) as f64 * p.clamp(0.0, 1.0);
    let (lo, hi) = (k.floor() as usize, k.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (k - lo as f64)
}

/// The `q`-quantile (0 < q ≤ 1) of raw samples by nearest rank. Sorts
/// `samples` in place.
pub fn quantile(samples: &mut [u32], q: f64) -> f64 {
    assert!(!samples.is_empty(), "quantile of no samples");
    samples.sort_unstable();
    let rank = (q * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// One workload × metric comparison between a parent's runs and a
/// change's runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median improves on the parent's by more than the
    /// parent's own spread.
    Better,
    /// The change's median is worse than the parent's by more than the
    /// metric's bound.
    Worse,
    /// Within the bound.
    Unchanged,
    /// The parent's own spread is wider than the bound, so "within the
    /// bound" cannot be told from noise.
    Unresolved,
}

impl Verdict {
    /// Lower-case label used in the comparison table.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `change` against `parent` for a metric where `lower_is_better`
/// says which direction is good and `bound` is the share of the
/// parent's median by which it may worsen.
///
/// When the parent's spread exceeds the bound the answer is
/// [`Verdict::Unresolved`], unless every change run beats every parent
/// run, which is [`Verdict::Better`] regardless of noise.
pub fn verdict(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let sign = if lower_is_better { -1.0 } else { 1.0 };
    let (pm, cm) = (median(parent), median(change));
    let parent_spread = spread(parent);
    let all_better = {
        let worst_change = change
            .iter()
            .map(|&c| sign * c)
            .fold(f64::INFINITY, f64::min);
        let best_parent = parent
            .iter()
            .map(|&p| sign * p)
            .fold(f64::NEG_INFINITY, f64::max);
        worst_change > best_parent
    };
    if parent_spread > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    // Signed relative gain: positive means the change is better.
    let gain = if pm == 0.0 {
        0.0
    } else {
        sign * (cm - pm) / pm.abs()
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > 0.0 && gain > parent_spread {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn order_stat_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(order_stat(&v, 0.0), 1.0);
        assert_eq!(order_stat(&v, 0.5), 3.0);
        assert_eq!(order_stat(&v, 1.0), 5.0);
        assert!((order_stat(&v, 0.9) - 4.6).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantile() {
        let mut v: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(quantile(&mut v, 0.5), 50.0);
        assert_eq!(quantile(&mut v, 0.99), 99.0);
        assert_eq!(quantile(&mut v, 1.0), 100.0);
    }

    fn runs(center: f64, jitter: f64) -> Vec<f64> {
        [-2.0, -1.0, 0.0, 1.0, 2.0]
            .iter()
            .map(|k| center * (1.0 + k * jitter))
            .collect()
    }

    #[test]
    fn identical_runs_are_unchanged() {
        let a = runs(100.0, 0.01);
        assert_eq!(verdict(&a, &a, true, 0.10), Verdict::Unchanged);
        assert_eq!(verdict(&a, &a, false, 0.10), Verdict::Unchanged);
    }

    #[test]
    fn regression_past_the_bound_is_worse_in_either_direction() {
        let parent = runs(100.0, 0.01);
        // Latency (lower is better) up 30%.
        assert_eq!(
            verdict(&parent, &runs(130.0, 0.01), true, 0.10),
            Verdict::Worse
        );
        // Throughput (higher is better) down 30%.
        assert_eq!(
            verdict(&parent, &runs(70.0, 0.01), false, 0.10),
            Verdict::Worse
        );
        // A 5% regression is inside a 10% bound.
        assert_eq!(
            verdict(&parent, &runs(105.0, 0.01), true, 0.10),
            Verdict::Unchanged
        );
    }

    #[test]
    fn gain_beyond_the_parent_spread_is_better() {
        let parent = runs(100.0, 0.01);
        assert_eq!(
            verdict(&parent, &runs(80.0, 0.01), true, 0.10),
            Verdict::Better
        );
        assert_eq!(
            verdict(&parent, &runs(120.0, 0.01), false, 0.10),
            Verdict::Better
        );
    }

    #[test]
    fn parent_spread_wider_than_the_bound_is_unresolved() {
        // Quartile distance ≈ 30% of the median against a 10% bound.
        let noisy = runs(100.0, 0.15);
        assert!(spread(&noisy) > 0.10);
        assert_eq!(
            verdict(&noisy, &runs(104.0, 0.01), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &runs(150.0, 0.01), true, 0.10),
            Verdict::Unresolved
        );
        // ...unless every change run beats every parent run.
        assert_eq!(
            verdict(&noisy, &runs(50.0, 0.01), true, 0.10),
            Verdict::Better
        );
    }
}
