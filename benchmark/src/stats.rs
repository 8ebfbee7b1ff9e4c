//! Order statistics computed after a phase, on latencies kept in
//! memory (rule 6: nothing is computed beside a timed loop).

/// Sorts in place (NaN-free input) and returns the slice for chaining.
pub fn sorted(values: &mut [f64]) -> &[f64] {
    values.sort_unstable_by(f64::total_cmp);
    values
}

/// Median of a sorted slice; 0 when empty.
pub fn median(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile (`p` in `[0, 100]`) of a sorted slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile of a sorted slice, as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them —
/// the driver measures spread this way, so `compare` and `repeat.sh` do.
pub fn quartiles(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    if n < 2 {
        let v = sorted.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Median, interquartile range and sample count of one metric.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub iqr: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &mut [f64]) -> Summary {
        let s = sorted(values);
        let (q1, q3) = quartiles(s);
        Summary {
            median: median(s),
            iqr: q3 - q1,
            n: s.len(),
        }
    }

    /// Rule 7: the best block of a phase — the highest of `values`, or the
    /// lowest — with the spread and count of all the blocks beside it.
    pub fn best_of(values: &mut [f64], highest: bool) -> Summary {
        let all = Summary::of(values);
        let best = if highest {
            values.last()
        } else {
            values.first()
        };
        Summary {
            median: best.copied().unwrap_or(0.0),
            ..all
        }
    }

    /// A value that is not a sample median (a count, a throughput over
    /// a whole phase): no spread of its own.
    pub fn exact(value: f64, n: usize) -> Summary {
        Summary {
            median: value,
            iqr: 0.0,
            n,
        }
    }
}

/// `setup_s` and `setup_cold_s` from the set-up times of one run: the
/// first set-up is reported on its own and discarded (fresh page faults
/// make it ~30 % slower), the median of the rest is the metric.
pub fn setup_times(all: &[f64]) -> (f64, Summary) {
    let cold = all.first().copied().unwrap_or(0.0);
    let mut timed: Vec<f64> = all.iter().skip(1).copied().collect();
    (cold, Summary::of(&mut timed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even() {
        assert_eq!(median(&[1.0, 2.0, 9.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 4.0, 9.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[1.0, 2.0, 4.0]), (1.0, 4.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5]
        assert_eq!(quartiles(&[3.0, 5.0]), (2.5, 5.5));
    }

    #[test]
    fn best_block_keeps_the_spread_of_all_blocks() {
        let mut rates = [90.0, 100.0, 60.0, 95.0];
        let best = Summary::best_of(&mut rates, true);
        assert_eq!((best.median, best.n), (100.0, 4));
        assert!(best.iqr > 0.0);
        assert_eq!(Summary::best_of(&mut rates, false).median, 60.0);
        assert_eq!(Summary::best_of(&mut [], true).median, 0.0);
    }

    #[test]
    fn setup_metric_is_median_after_a_discarded_first() {
        let (cold, s) = setup_times(&[0.56, 0.42, 0.40, 0.44, 0.41, 0.43, 0.45, 0.39]);
        assert_eq!(cold, 0.56);
        assert_eq!(s.n, 7);
        assert_eq!(s.median, 0.42);
        assert!(s.iqr > 0.0 && s.iqr < 0.1);
    }
}
