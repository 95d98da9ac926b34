//! Order statistics over per-request samples.

/// Fewest samples for which a tail percentile is reported.
pub const TAIL_MIN_SAMPLES: usize = 50;

/// Samples that must lie beyond the tail percentile.
const TAIL_BEYOND: usize = 10;

/// Median; the mean of the two middle samples for an even count.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let s = sorted(samples);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Sum over the stages of a request of each stage's fastest time:
/// `requests` holds one row of stage times per request, every row with
/// the same stages in the same order.
///
/// # Panics
///
/// Panics when there are no requests or the rows differ in length.
pub fn staged_min(requests: &[Vec<f64>]) -> f64 {
    let stages = requests.first().expect("minimum of no requests").len();
    assert!(
        requests.iter().all(|r| r.len() == stages),
        "every request has the same stages"
    );
    (0..stages)
        .map(|s| requests.iter().map(|r| r[s]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// The highest percentile that leaves at least ten samples beyond it:
/// the 11th-slowest sample, with its percentile. `None` below
/// [`TAIL_MIN_SAMPLES`], where that percentile would sit too close to
/// the median to be a tail.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    if samples.len() < TAIL_MIN_SAMPLES {
        return None;
    }
    let s = sorted(samples);
    let at = s.len() - TAIL_BEYOND - 1;
    Some((s[at], 100.0 * (at + 1) as f64 / s.len() as f64))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn staged_min_sums_each_stages_fastest_time() {
        assert_eq!(staged_min(&[vec![7.0]]), 7.0);
        assert_eq!(staged_min(&[vec![3.0], vec![1.0], vec![2.0]]), 1.0);
        // Stage 0 is fastest in the second request, stage 1 in the first:
        // neither request took 1.5.
        let staged = [vec![1.0, 0.5], vec![0.75, 2.0]];
        assert_eq!(staged_min(&staged), 1.25);
    }

    #[test]
    #[should_panic(expected = "same stages")]
    fn staged_min_rejects_ragged_rows() {
        staged_min(&[vec![1.0, 2.0], vec![1.0]]);
    }

    #[test]
    fn tail_at_64_is_the_11th_slowest() {
        let samples: Vec<f64> = (1..=64).rev().map(f64::from).collect();
        let (value, pct) = tail(&samples).expect("64 samples have a tail");
        assert_eq!(value, 54.0, "ten samples (55..=64) lie beyond it");
        assert!((pct - 84.375).abs() < 1e-9);
    }

    #[test]
    fn tail_at_50_is_p80_and_omitted_below() {
        let samples: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&samples), Some((40.0, 80.0)));
        assert_eq!(tail(&samples[..49]), None);
    }
}
