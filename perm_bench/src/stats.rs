//! Order statistics over timing samples.

/// The `p`-quantile (`0.0..=1.0`) of `sorted` by nearest rank; `0.0` for an
/// empty slice so that an absent sample never panics a report.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples.to_vec());
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// Geometric mean of positive ratios (`1.0` when empty).
pub fn geomean(ratios: &[f64]) -> f64 {
    if ratios.is_empty() {
        return 1.0;
    }
    (ratios.iter().map(|r| r.ln()).sum::<f64>() / ratios.len() as f64).exp()
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the default, exclusive method), so that `compare` reports
/// the spread the way the benchmark's acceptance procedure computes it.
/// `None` below two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(samples.to_vec());
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    // j is clamped to 1..=ld-1 and delta follows it, so the outer cuts of a
    // short sample extrapolate, as Python's do.
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile range as a share of the median (`0.0` below two samples).
pub fn relative_spread(samples: &[f64]) -> f64 {
    match (quartiles(samples), median(samples)) {
        (Some((q1, q3)), m) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile_sorted(&v, 0.95), 190.0, "ten samples beyond p95");
        assert_eq!(quantile_sorted(&v, 0.5), 100.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
