//! Cumulative-coverage curves (paper Figures 1 and 4).
//!
//! Both figures ask the same question of a weighted item set: after
//! sorting items by contribution (descending), what fraction of the items
//! accounts for what fraction of the total?

use crate::interval::frac;

/// A cumulative coverage curve over a set of weighted items.
///
/// The curve is held as `(weight, count)` runs: a curve over 100,000
/// instances typically has only a few hundred distinct weights, and
/// every query walks the runs with integer prefix sums, giving exactly
/// the answer an item-by-item walk over the sorted weights would.
///
/// # Examples
///
/// ```
/// use instrep_core::Coverage;
///
/// // Four static instructions contributing 90, 5, 4, 1 repetitions.
/// let cov = Coverage::new(vec![5, 90, 1, 4]);
/// // The top 25% of instructions cover 90% of the repetition.
/// assert_eq!(cov.coverage_at(0.25), 0.9);
/// // 90% coverage needs only 25% of the instructions.
/// assert_eq!(cov.items_needed(0.9), 0.25);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Coverage {
    /// `(weight, count)` runs: weights strictly descending, counts
    /// non-zero.
    runs: Vec<(u64, u64)>,
    /// Number of items, the sum of the run counts.
    len: usize,
    /// Total weight, the sum of `weight × count` over the runs.
    total: u64,
}

impl Coverage {
    /// Builds a curve from item weights (zero-weight items are kept: they
    /// count toward the item denominator).
    pub fn new(mut weights: Vec<u64>) -> Coverage {
        weights.sort_unstable_by(|a, b| b.cmp(a));
        let total = weights.iter().sum();
        let runs = weights.chunk_by(|a, b| a == b).map(|run| (run[0], run.len() as u64)).collect();
        Coverage { runs, len: weights.len(), total }
    }

    /// Rebuilds a curve from its [`runs`](Coverage::runs), or `None` if
    /// they are not a canonical run list: weights must be strictly
    /// descending, counts non-zero, and the item count and total weight
    /// must fit their types. The analysis cache decodes curves this way,
    /// so a damaged entry cannot yield a curve [`Coverage::new`] never
    /// builds.
    pub fn from_runs(runs: Vec<(u64, u64)>) -> Option<Coverage> {
        let mut len = 0usize;
        let mut total = 0u64;
        for (i, &(weight, count)) in runs.iter().enumerate() {
            if count == 0 || (i > 0 && runs[i - 1].0 <= weight) {
                return None;
            }
            len = len.checked_add(usize::try_from(count).ok()?)?;
            total = total.checked_add(weight.checked_mul(count)?)?;
        }
        Some(Coverage { runs, len, total })
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the curve has no items.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total weight.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// The curve's canonical form: `(weight, count)` runs, weights
    /// strictly descending, counts non-zero.
    pub fn runs(&self) -> &[(u64, u64)] {
        &self.runs
    }

    /// Fraction of total weight covered by the heaviest
    /// `item_fraction` (in `[0, 1]`) of items.
    pub fn coverage_at(&self, item_fraction: f64) -> f64 {
        if self.total == 0 || self.len == 0 {
            return 0.0;
        }
        let mut left = ((item_fraction * self.len as f64).round() as u64).min(self.len as u64);
        let mut sum = 0u64;
        for &(weight, count) in &self.runs {
            let take = count.min(left);
            sum += weight * take;
            left -= take;
            if left == 0 {
                break;
            }
        }
        sum as f64 / self.total as f64
    }

    /// Smallest fraction of items (heaviest first) whose weight reaches
    /// `weight_fraction` of the total. Returns 1.0 if unreachable.
    pub fn items_needed(&self, weight_fraction: f64) -> f64 {
        if self.total == 0 || self.len == 0 {
            return 1.0;
        }
        let target = weight_fraction * self.total as f64;
        // The running sum only grows and `u64 -> f64` is monotone, so
        // the items that reach the target are a suffix of the order.
        let reaches = |acc: u64| acc as f64 >= target;
        let (mut items, mut acc) = (0u64, 0u64);
        for &(weight, count) in &self.runs {
            if reaches(acc + weight * count) {
                // The first item of this run to reach it: binary search
                // for the least `j` in `1..=count`.
                let (mut lo, mut hi) = (1, count);
                while lo < hi {
                    let mid = lo + (hi - lo) / 2;
                    if reaches(acc + weight * mid) {
                        hi = mid;
                    } else {
                        lo = mid + 1;
                    }
                }
                return (items + lo) as f64 / self.len as f64;
            }
            items += count;
            acc += weight * count;
        }
        1.0
    }
}

/// The top-`k` curve of Figures 5 and 6 over frequency tables (argument
/// tuples per function, values per load): for each `k` in `1..=max_k`,
/// the share of all repeats, every occurrence past an entry's first,
/// that fall on each table's `k` most frequent entries. Each table is
/// sorted once and its prefix sums added to every `k`.
pub(crate) fn top_k_coverage<T>(tables: impl Iterator<Item = T>, max_k: usize) -> Vec<f64>
where
    T: Iterator<Item = u64>,
{
    let mut covered = vec![0u64; max_k];
    let mut total = 0;
    let mut repeats = Vec::new();
    for table in tables {
        repeats.clear();
        repeats.extend(table.map(|count| count.saturating_sub(1)));
        repeats.sort_unstable_by(|a, b| b.cmp(a));
        let mut prefix = 0;
        for (k, sum) in covered.iter_mut().enumerate() {
            prefix += repeats.get(k).copied().unwrap_or(0);
            *sum += prefix;
        }
        total += repeats.iter().sum::<u64>();
    }
    covered.into_iter().map(|c| frac(c, total)).collect()
}

impl FromIterator<u64> for Coverage {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Coverage {
        Coverage::new(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concentrated_weight() {
        let c = Coverage::new(vec![1, 1, 1, 97]);
        assert_eq!(c.runs(), [(97, 1), (1, 3)]);
        assert_eq!(c.coverage_at(0.25), 0.97);
        assert_eq!(c.items_needed(0.97), 0.25);
        assert_eq!(c.items_needed(0.98), 0.5);
        assert_eq!(c.coverage_at(1.0), 1.0);
    }

    #[test]
    fn uniform_weight() {
        let c = Coverage::new(vec![10; 10]);
        assert_eq!(c.runs(), [(10, 10)]);
        assert!((c.coverage_at(0.5) - 0.5).abs() < 1e-9);
        assert!((c.items_needed(0.5) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_and_zero() {
        let c = Coverage::new(vec![]);
        assert_eq!(c.coverage_at(0.5), 0.0);
        assert_eq!(c.items_needed(0.5), 1.0);
        assert!(c.is_empty());
        let z = Coverage::new(vec![0, 0]);
        assert_eq!(z.coverage_at(1.0), 0.0);
        assert_eq!(z.total(), 0);
    }

    #[test]
    fn coverage_is_monotone() {
        let c: Coverage = [3u64, 1, 4, 1, 5, 9, 2, 6].into_iter().collect();
        let pts: Vec<f64> = (1..=8).map(|i| c.coverage_at(f64::from(i) / 8.0)).collect();
        assert!(pts.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(pts[7], 1.0);
    }

    #[test]
    fn zero_weight_items_count_in_denominator() {
        let c = Coverage::new(vec![100, 0, 0, 0]);
        assert_eq!(c.coverage_at(0.25), 1.0);
        assert_eq!(c.items_needed(1.0), 0.25);
        assert_eq!(c.len(), 4);
    }

    #[test]
    fn run_boundaries_straddling_the_report_targets() {
        // 120 items over 1,000 weight. Runs end at 40 %, 80 %, 98 % and
        // 100 %, so the report's 50 % and 75 % targets fall inside the
        // second run, 90 % inside the third and 99 % inside the fourth.
        let c = Coverage::new(
            [vec![5; 36], vec![0; 4], vec![20; 20], vec![1; 20], vec![10; 40]].concat(),
        );
        assert_eq!(c.runs(), [(20, 20), (10, 40), (5, 36), (1, 20), (0, 4)]);
        assert_eq!((c.len(), c.total()), (120, 1000));
        assert_eq!(c.items_needed(0.5), 30.0 / 120.0); // 400 + 10 × 10
        assert_eq!(c.items_needed(0.75), 55.0 / 120.0); // 400 + 10 × 35
        assert_eq!(c.items_needed(0.9), 80.0 / 120.0); // 800 + 5 × 20
        assert_eq!(c.items_needed(0.99), 106.0 / 120.0); // 980 + 1 × 10
                                                         // A target on a run boundary stops at that run's last item.
        assert_eq!(c.items_needed(0.4), 20.0 / 120.0);
        assert_eq!(c.items_needed(0.98), 96.0 / 120.0);
        // Zero-weight items never help reach a target.
        assert_eq!(c.items_needed(1.0), 116.0 / 120.0);
        assert_eq!(c.coverage_at(0.25), 0.5);
        assert_eq!(c.coverage_at(0.5), 0.8);
        assert_eq!(c.coverage_at(0.9), 0.992);

        // Past 2^53 the sums round as f64, and the first item whose sum
        // *rounds* to the target wins, as in an item-by-item walk:
        // 2^53 + 3 rounds to 2^53 + 4, so item 4 of 5 reaches 100 %.
        let big = Coverage::new(vec![1 << 53, 1, 1, 1, 1]);
        assert_eq!(big.runs(), [(1 << 53, 1), (1, 4)]);
        assert_eq!(big.items_needed(1.0), 0.8);
    }

    #[test]
    fn from_runs_accepts_only_canonical_runs() {
        let c = Coverage::new(vec![7, 7, 2, 0, 7]);
        assert_eq!(Coverage::from_runs(c.runs().to_vec()), Some(c));
        assert_eq!(Coverage::from_runs(Vec::new()), Some(Coverage::new(Vec::new())));
        for bad in [
            vec![(2, 1), (7, 3)],            // ascending weights
            vec![(7, 1), (7, 2)],            // equal neighbours
            vec![(7, 1), (0, 0)],            // zero count
            vec![(u64::MAX / 2 + 1, 2)],     // weight × count overflows
            vec![(u64::MAX - 1, 1), (2, 1)], // total overflows
            vec![(1, u64::MAX), (0, 1)],     // item count overflows
        ] {
            assert_eq!(Coverage::from_runs(bad.clone()), None, "{bad:?}");
        }
    }
}
