//! Order statistics over batches and ops.
//!
//! The gated throughput is the *fast decile* of per-batch rates, not a
//! whole-run mean: on a small shared host the mean follows the neighbours'
//! load, while the rate of the fastest tenth of batches follows the code.

/// One timed batch: `ops` consecutive ops that did `work` units in `wall_s`
/// of wall time and `cpu_s` of process CPU time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Batch {
    pub ops: u64,
    pub work: f64,
    pub wall_s: f64,
    pub cpu_s: f64,
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    percentile(&sorted(values), 0.5)
}

/// `(p50, p90)` of unsorted samples.
pub fn p50_p90(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    (percentile(&s, 0.5), percentile(&s, 0.9))
}

/// How many samples lie beyond the fast-decile estimate of `n` samples: a
/// tenth of them, but at least ten so that the estimate is not an extreme
/// value, and never so many that it falls below the median.
pub fn samples_beyond(n: usize) -> usize {
    (n / 10).max(10).min(n.saturating_sub(1) / 2)
}

/// The work rate sustained by the fastest tenth of batches, and the number
/// of batches faster than it.
pub fn fast_decile_rate(batches: &[Batch]) -> (f64, usize) {
    let rates: Vec<f64> = batches
        .iter()
        .filter(|b| b.wall_s > 0.0)
        .map(|b| b.work / b.wall_s)
        .collect();
    let rates = sorted(&rates);
    if rates.is_empty() {
        return (0.0, 0);
    }
    let beyond = samples_beyond(rates.len());
    (rates[rates.len() - 1 - beyond], beyond)
}

/// CPU ms per op in the cheapest tenth of batches: as many batches cost less
/// than this as ran faster than [`fast_decile_rate`].
pub fn fast_decile_cpu_ms_per_op(batches: &[Batch]) -> f64 {
    let costs: Vec<f64> = batches
        .iter()
        .filter(|b| b.ops > 0)
        .map(|b| b.cpu_s * 1e3 / b.ops as f64)
        .collect();
    let costs = sorted(&costs);
    costs
        .get(samples_beyond(costs.len()))
        .copied()
        .unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batches(walls: &[f64]) -> Vec<Batch> {
        walls
            .iter()
            .map(|&wall_s| Batch {
                ops: 4,
                work: 100.0,
                wall_s,
                cpu_s: 2.0 * wall_s,
            })
            .collect()
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0];
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn at_least_ten_samples_lie_beyond_the_fast_decile() {
        // A tenth of the samples once that is more than ten ...
        assert_eq!(samples_beyond(150), 15);
        assert_eq!(samples_beyond(250), 25);
        // ... ten below that, down to 21 samples ...
        assert_eq!(samples_beyond(100), 10);
        assert_eq!(samples_beyond(77), 10);
        assert_eq!(samples_beyond(21), 10);
        // ... and the median for runs too short to have ten.
        assert_eq!(samples_beyond(20), 9);
        assert_eq!(samples_beyond(3), 1);
        assert_eq!(samples_beyond(1), 0);
        assert_eq!(samples_beyond(0), 0);
    }

    #[test]
    fn fast_decile_ignores_slow_batches_and_single_fast_outliers() {
        // 150 batches at 1 s, of which the host slowed 60 down to 2 s and
        // one ran implausibly fast.
        let mut walls = vec![1.0; 150];
        for w in walls.iter_mut().take(60) {
            *w = 2.0;
        }
        walls[149] = 0.01;
        let (rate, beyond) = fast_decile_rate(&batches(&walls));
        assert_eq!(beyond, 15);
        assert_eq!(rate, 100.0);
        // Two CPU seconds per wall second over four ops, in ms.
        assert_eq!(fast_decile_cpu_ms_per_op(&batches(&walls)), 500.0);
    }

    #[test]
    fn fast_decile_of_few_batches_is_their_median() {
        let (rate, beyond) = fast_decile_rate(&batches(&[1.0, 2.0, 4.0]));
        assert_eq!((rate, beyond), (50.0, 1));
        assert_eq!(
            fast_decile_cpu_ms_per_op(&batches(&[1.0, 2.0, 4.0])),
            1000.0
        );
        assert_eq!(fast_decile_rate(&[]), (0.0, 0));
        assert_eq!(fast_decile_cpu_ms_per_op(&[]), 0.0);
    }
}
