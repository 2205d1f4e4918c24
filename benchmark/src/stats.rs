//! Estimators: quartiles of a run's job times, and the two-point
//! fixed/per-step cost fit used on the process backend.

/// Quartiles of a sample, plus its extremes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

/// Quartiles by the rule Python's `statistics.quantiles(values, n=4)` uses
/// (exclusive method), so a spread computed here and one computed by a
/// driver script over the same values agree. A single sample is its own
/// quartiles. `None` on an empty sample.
pub fn quartiles(values: &[f64]) -> Option<Quartiles> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let min = *v.first()?;
    if n == 1 {
        return Some(Quartiles {
            min,
            q1: min,
            median: min,
            q3: min,
            n,
        });
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        // May be negative or exceed 4 at the clamped ends: the rule
        // extrapolates there, as Python's does.
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some(Quartiles {
        min,
        q1: cut(1),
        median: cut(2),
        q3: cut(3),
        n,
    })
}

/// The value a timing metric reports: the lower quartile of the run's
/// jobs. Interference on a shared box only ever adds time, so the lower
/// quartile repeats where the median does not (see README.md). 0 on an
/// empty sample.
pub fn lower_quartile(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |q| q.q1)
}

/// Splits two timings of the same job at two step counts into a fixed cost
/// (intercept) and a cost per step (slope): `t = fixed + steps × per_step`.
pub fn two_point_fit(steps_a: f64, secs_a: f64, steps_b: f64, secs_b: f64) -> (f64, f64) {
    let per_step = (secs_b - secs_a) / (steps_b - steps_a);
    (secs_a - steps_a * per_step, per_step)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the estimator must sort.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 9), n=4) == [2.25, 4.5, 6.75]
        let q = quartiles(&ramp(8)).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (2.25, 4.5, 6.75));
        // statistics.quantiles(range(1, 13), n=4) == [3.25, 6.5, 9.75]
        let q = quartiles(&ramp(12)).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (3.25, 6.5, 9.75));
        // statistics.quantiles(range(1, 21), n=4) == [5.25, 10.5, 15.75]
        let q = quartiles(&ramp(20)).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (5.25, 10.5, 15.75));
        assert_eq!((q.min, q.n), (1.0, 20));
    }

    #[test]
    fn quartiles_extrapolate_on_two_samples_like_python() {
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = quartiles(&[2.0, 1.0]).unwrap();
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn degenerate_samples() {
        assert_eq!(quartiles(&[]), None);
        assert_eq!(lower_quartile(&[]), 0.0);
        let q = quartiles(&[3.5]).unwrap();
        assert_eq!((q.q1, q.median, q.q3, q.n), (3.5, 3.5, 3.5, 1));
    }

    #[test]
    fn lower_quartile_ignores_slow_outliers() {
        let mut jobs = vec![1.00, 1.01, 1.02, 1.00, 1.01, 1.02, 1.00, 1.01];
        let clean = lower_quartile(&jobs);
        jobs.extend([1.9, 2.4, 1.7, 3.0]); // a third of the jobs were disturbed
        let noisy = lower_quartile(&jobs);
        assert!((noisy - clean).abs() / clean < 0.02, "{clean} vs {noisy}");
    }

    #[test]
    fn two_point_fit_recovers_intercept_and_slope() {
        // 0.25 s fixed + 20 ms per superstep, observed at 4 and 24 steps.
        let (fixed, per_step) = two_point_fit(4.0, 0.33, 24.0, 0.73);
        assert!((fixed - 0.25).abs() < 1e-12);
        assert!((per_step - 0.02).abs() < 1e-12);
    }
}
