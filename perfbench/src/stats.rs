//! Summary statistics used by every workload.

/// Geometric mean of strictly positive samples (`None` when empty).
pub fn geomean(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() || xs.iter().any(|&x| x <= 0.0 || !x.is_finite()) {
        return None;
    }
    Some((xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp())
}

/// Median (mean of the two middle samples for an even count).
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// The `p`-th percentile (0 < p < 100) by linear interpolation between
/// closest ranks, reported only when at least `min_beyond` samples lie
/// strictly beyond the percentile's rank — a tail estimate resting on a
/// handful of samples is noise, not a measurement.
pub fn percentile(xs: &[f64], p: f64, min_beyond: usize) -> Option<f64> {
    if xs.is_empty() || !(0.0..100.0).contains(&p) {
        return None;
    }
    let beyond = ((xs.len() as f64) * (100.0 - p) / 100.0 + 1e-9).floor() as usize;
    if beyond < min_beyond {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    if v[hi] == v[lo] {
        return Some(v[lo]);
    }
    Some(v[lo] + (v[hi] - v[lo]) * (rank - lo as f64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geomean_and_median() {
        assert!((geomean(&[1.0, 4.0, 16.0]).unwrap() - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), None);
        assert_eq!(geomean(&[1.0, 0.0]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!(percentile(&xs, 90.0, 10).is_some());
        assert!(percentile(&xs[..99], 90.0, 10).is_none());
        assert!(percentile(&xs[..19], 50.0, 10).is_none());
        assert_eq!(percentile(&xs[..21], 50.0, 10), Some(11.0));
    }
}
