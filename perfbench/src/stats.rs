//! Order statistics used to turn many short timings into steady figures.

/// Median of `values` (mean of the two middle values for an even count).
/// Returns `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    let v = sorted(values);
    let n = v.len();
    (n > 0).then(|| (v[(n - 1) / 2] + v[n / 2]) / 2.0)
}

/// A tail percentile: the highest whole percentile `p` (nearest-rank,
/// between 50 and 99) that still has at least [`TAIL_BEYOND`] samples
/// strictly past its rank.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, 50..=99.
    pub percentile: u32,
    /// The sample at that percentile's rank.
    pub value: f64,
    /// Samples ranked beyond it.
    pub beyond: usize,
    /// Samples in total.
    pub count: usize,
}

/// Samples a tail percentile must leave beyond its rank.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond
/// it. With fewer than `2 × TAIL_BEYOND` samples no percentile of 50 or
/// more qualifies, and the median (p50) is reported instead. Returns
/// `None` for an empty slice.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let v = sorted(values);
    let n = v.len();
    if n == 0 {
        return None;
    }
    let at = |p: u32| {
        // Nearest rank: the smallest rank covering p% of the samples.
        let rank = ((p as usize * n).div_ceil(100)).max(1);
        Tail {
            percentile: p,
            value: v[rank - 1],
            beyond: n - rank,
            count: n,
        }
    };
    Some(
        (50..=99)
            .rev()
            .map(at)
            .find(|t| t.beyond >= TAIL_BEYOND)
            .unwrap_or_else(|| at(50)),
    )
}

/// The smallest sample: for repetitions of identical work, the best
/// estimate of its cost, since host noise only ever adds time. Returns
/// `None` for an empty slice.
pub fn fastest(values: &[f64]) -> Option<f64> {
    values.iter().copied().min_by(f64::total_cmp)
}

/// Throughput over repetitions of the same work: `work` divided by the
/// [`fastest`] repetition's host seconds.
///
/// Not the median: the hosts this runs on slow down by up to 2× in
/// phases lasting 10–20 s, longer than a short run, so the median of a
/// run reads whichever phase the run fell in. Over 20 s runs of one-day
/// GDI episodes the run-to-run spread (interquartile range over median)
/// of the median episode time was 0.50, of its 5th percentile 0.09 and
/// of the fastest episode 0.04. Returns `None` when there is no
/// repetition.
pub fn fast_rate(work: f64, host_s: &[f64]) -> Option<f64> {
    fastest(host_s).map(|t| work / t)
}

/// Whether `name` is a valid metric name: 1 to 64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.count),
            (90, 90.0, 10, 100)
        );

        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99, 990.0, 10));

        // 240 points: p95 leaves 12 beyond, p96 would leave only 9.
        let v: Vec<f64> = (1..=240).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.percentile, t.beyond), (95, 12));
    }

    #[test]
    fn tail_is_order_independent_and_falls_back_to_the_median() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).unwrap().value, 90.0);

        let few = [5.0, 1.0, 4.0, 2.0, 3.0];
        let t = tail(&few).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (50, 3.0, 2));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn fastest_is_the_minimum() {
        assert_eq!(fastest(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(fastest(&[7.0]), Some(7.0));
        assert_eq!(fastest(&[]), None);
    }

    #[test]
    fn fast_rate_ignores_a_long_slow_phase() {
        // 100 repetitions of one simulated second: 60 ran in a slow host
        // phase (0.2 s each), 40 at full speed (0.1 s, plus noise).
        let mut host: Vec<f64> = (0..40).map(|i| 0.1 + f64::from(i) * 1e-4).collect();
        host.extend([0.2; 60]);
        assert_eq!(fast_rate(1.0, &host), Some(10.0));
        // The median would read the slow phase.
        assert_eq!(median(&host), Some(0.2));
        assert_eq!(fast_rate(1.0, &[]), None);
    }

    #[test]
    fn metric_name_charset() {
        for good in ["setup_s", "node.step_ns", "a", "9lives", "x-y.z_1"] {
            assert!(valid_metric_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", "_lead", ".dot", "sp ace", "µs", "a/b", long.as_str()] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }
}
