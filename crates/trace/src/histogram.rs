//! Log2-bucketed cycle histogram.

use crate::jsonval::Value;

/// Number of buckets: one for zero plus one per power of two of `u64`.
pub const BUCKETS: usize = 65;

/// A histogram over `u64` samples with logarithmic buckets.
///
/// Bucket 0 holds the value 0; bucket `k` (k ≥ 1) holds values in
/// `[2^(k-1), 2^k)`. This gives constant-time, allocation-free recording with
/// enough resolution to tell a 5 µs fast-path delivery from an 80 µs signal
/// delivery at a glance.
#[derive(Clone, Debug)]
pub struct Histogram {
    buckets: [u64; BUCKETS],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// The bucket index a value falls into.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            (64 - value.leading_zeros()) as usize
        }
    }

    /// The half-open value range `[lo, hi)` covered by a bucket. Bucket 0 is
    /// the degenerate `[0, 1)`.
    pub fn bucket_range(index: usize) -> (u64, u64) {
        assert!(index < BUCKETS);
        if index == 0 {
            (0, 1)
        } else if index == BUCKETS - 1 {
            (1u64 << (index - 1), u64::MAX)
        } else {
            (1u64 << (index - 1), 1u64 << index)
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_index(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Arithmetic mean, `0.0` when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// True when no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Resets the histogram to the freshly-constructed empty state: all
    /// buckets, the count, the sum, and the observed extrema. Quantiles
    /// return `None` again until new samples are recorded.
    pub fn clear(&mut self) {
        *self = Histogram::default();
    }

    /// Estimates the `q`-quantile (`0.0 ≤ q ≤ 1.0`) of the recorded samples.
    ///
    /// Edge semantics are exact: `q = 0.0` is the observed minimum and
    /// `q = 1.0` the observed maximum (out-of-range `q` clamps to these).
    /// Interior quantiles walk the log2 buckets to the one containing the
    /// target rank and interpolate linearly within its value range — staying
    /// strictly inside the bucket's half-open `[lo, hi)` — then clamp to the
    /// observed `[min, max]`, so single-sample and single-bucket histograms
    /// report the exact sample and estimates never leave the observed range.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        if q <= 0.0 {
            return Some(self.min);
        }
        if q >= 1.0 {
            return Some(self.max);
        }
        // 1-based target rank: the smallest rank whose cumulative share ≥ q.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            if cum >= rank {
                let (lo, hi) = Self::bucket_range(i);
                // Position of the target rank within this bucket, in (0, 1].
                let within = (rank - (cum - c)) as f64 / c as f64;
                let est = (lo as f64 + within * (hi - lo) as f64) as u64;
                // `hi` itself lies in the *next* bucket; cap at `hi - 1` so a
                // full-bucket rank does not round one bucket too high.
                return Some(est.min(hi - 1).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Median estimate (see [`Histogram::quantile`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.50)
    }

    /// 90th-percentile estimate.
    pub fn p90(&self) -> Option<u64> {
        self.quantile(0.90)
    }

    /// 99th-percentile estimate.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// Count in one bucket.
    pub fn bucket(&self, index: usize) -> u64 {
        self.buckets[index]
    }

    /// Iterates the non-empty buckets as `(lo, hi, count)`.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| {
                let (lo, hi) = Self::bucket_range(i);
                (lo, hi, c)
            })
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// JSON object: summary stats plus the non-empty buckets as
    /// `[lo, hi, count]` triples.
    pub fn to_value(&self) -> Value {
        Value::object()
            .with("count", self.count)
            .with("sum", self.sum)
            .with("min", self.min().unwrap_or(0))
            .with("max", self.max().unwrap_or(0))
            .with("mean", self.mean())
            .with("p50", self.p50().unwrap_or(0))
            .with("p90", self.p90().unwrap_or(0))
            .with("p99", self.p99().unwrap_or(0))
            .with(
                "buckets",
                self.nonzero_buckets()
                    .map(|(lo, hi, c)| Value::from_iter([lo, hi, c]))
                    .collect::<Value>(),
            )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_boundaries() {
        assert_eq!(Histogram::bucket_index(0), 0);
        assert_eq!(Histogram::bucket_index(1), 1);
        assert_eq!(Histogram::bucket_index(2), 2);
        assert_eq!(Histogram::bucket_index(3), 2);
        assert_eq!(Histogram::bucket_index(4), 3);
        assert_eq!(Histogram::bucket_index(7), 3);
        assert_eq!(Histogram::bucket_index(8), 4);
        assert_eq!(Histogram::bucket_index(1 << 20), 21);
        assert_eq!(Histogram::bucket_index((1 << 21) - 1), 21);
        assert_eq!(Histogram::bucket_index(u64::MAX), 64);
    }

    #[test]
    fn bucket_ranges_partition_the_domain() {
        // Every value's bucket range must actually contain it.
        for v in [
            0u64,
            1,
            2,
            3,
            4,
            5,
            127,
            128,
            1 << 30,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let i = Histogram::bucket_index(v);
            let (lo, hi) = Histogram::bucket_range(i);
            assert!(lo <= v, "lo {lo} > v {v}");
            // The top bucket's hi is saturated at u64::MAX (inclusive there).
            assert!(v < hi || (i == BUCKETS - 1 && v <= hi), "v {v} >= hi {hi}");
        }
        // Adjacent interior buckets tile with no gap.
        for i in 1..BUCKETS - 2 {
            assert_eq!(
                Histogram::bucket_range(i).1,
                Histogram::bucket_range(i + 1).0
            );
        }
    }

    #[test]
    fn record_updates_summary_stats() {
        let mut h = Histogram::new();
        assert!(h.is_empty());
        assert_eq!(h.min(), None);
        for v in [5u64, 125, 375, 1750] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 5 + 125 + 375 + 1750);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(1750));
        assert_eq!(h.bucket(Histogram::bucket_index(125)), 1);
        assert_eq!(h.bucket(Histogram::bucket_index(375)), 1);
    }

    #[test]
    fn same_power_of_two_shares_a_bucket() {
        let mut h = Histogram::new();
        h.record(64);
        h.record(100);
        h.record(127);
        assert_eq!(h.bucket(7), 3, "64..128 all land in bucket 7");
        assert_eq!(h.nonzero_buckets().count(), 1);
        assert_eq!(h.nonzero_buckets().next(), Some((64, 128, 3)));
    }

    #[test]
    fn merge_combines_counts_and_extrema() {
        let mut a = Histogram::new();
        a.record(10);
        let mut b = Histogram::new();
        b.record(1000);
        b.record(2);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(2));
        assert_eq!(a.max(), Some(1000));
        let empty = Histogram::new();
        a.merge(&empty);
        assert_eq!(a.count(), 3);
        assert_eq!(
            a.min(),
            Some(2),
            "merging an empty histogram must not corrupt min"
        );
    }

    #[test]
    fn merged_quantiles_match_single_histogram_of_all_samples() {
        // Fleet aggregation merges per-tenant histograms; p50/p90/p99 of the
        // merge must equal what one histogram fed every sample would report.
        let shards: [&[u64]; 3] = [&[5, 40, 90, 125], &[200, 350, 800], &[1600, 3000, 9000]];
        let mut merged = Histogram::new();
        let mut reference = Histogram::new();
        for shard in shards {
            let mut h = Histogram::new();
            for &v in shard {
                h.record(v);
                reference.record(v);
            }
            merged.merge(&h);
        }
        assert_eq!(merged.count(), reference.count());
        assert_eq!(merged.sum(), reference.sum());
        assert_eq!(merged.p50(), reference.p50());
        assert_eq!(merged.p90(), reference.p90());
        assert_eq!(merged.p99(), reference.p99());
        assert_eq!(merged.quantile(0.0), reference.quantile(0.0));
        assert_eq!(merged.quantile(1.0), reference.quantile(1.0));
    }

    #[test]
    fn quantiles_on_empty_and_single_sample() {
        let mut h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        h.record(375);
        // One sample: every quantile is that sample (clamped to [min, max]).
        assert_eq!(h.p50(), Some(375));
        assert_eq!(h.p90(), Some(375));
        assert_eq!(h.p99(), Some(375));
        assert_eq!(h.quantile(0.0), Some(375));
        assert_eq!(h.quantile(1.0), Some(375));
    }

    #[test]
    fn quantiles_are_monotone_and_bounded() {
        let mut h = Histogram::new();
        for v in [5u64, 40, 90, 125, 200, 350, 800, 1600, 3000, 9000] {
            h.record(v);
        }
        let qs: Vec<u64> = [0.1, 0.25, 0.5, 0.75, 0.9, 0.99]
            .iter()
            .map(|&q| h.quantile(q).unwrap())
            .collect();
        assert!(qs.windows(2).all(|w| w[0] <= w[1]), "{qs:?}");
        assert!(qs.iter().all(|&v| (5..=9000).contains(&v)), "{qs:?}");
        // The median of ten samples lands near the 5th/6th values.
        let p50 = h.p50().unwrap();
        assert!((90..=350).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn quantile_of_uniform_values_is_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(64);
        }
        assert_eq!(h.p50(), Some(64));
        assert_eq!(h.p99(), Some(64), "clamped to the observed max");
    }

    #[test]
    fn quantile_edges_are_exact_min_and_max() {
        let mut h = Histogram::new();
        for v in [5u64, 40, 90, 125, 200, 350, 800, 1600, 3000, 9000] {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(5), "q=0 is the observed minimum");
        assert_eq!(h.quantile(1.0), Some(9000), "q=1 is the observed maximum");
        // Out-of-range q clamps to the edges rather than extrapolating.
        assert_eq!(h.quantile(-3.0), Some(5));
        assert_eq!(h.quantile(7.5), Some(9000));
    }

    #[test]
    fn single_bucket_quantiles_stay_in_bucket() {
        // Values 64..128 share bucket 7; every quantile must stay inside
        // the observed [min, max] — not round up to the bucket's top.
        let mut h = Histogram::new();
        for v in [64u64, 80, 100, 120] {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let v = h.quantile(q).unwrap();
            assert!((64..=120).contains(&v), "q={q} gave {v}");
        }
    }

    #[test]
    fn clear_resets_to_pristine_state() {
        let mut h = Histogram::new();
        for v in [5u64, 500, 50_000] {
            h.record(v);
        }
        h.clear();
        assert!(h.is_empty());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert_eq!(h.quantile(0.5), None, "post-clear quantiles are None");
        assert_eq!(h.nonzero_buckets().count(), 0);
        // Recording after clear behaves exactly like a fresh histogram:
        // min/max must not leak from before the clear.
        h.record(375);
        assert_eq!(h.p50(), Some(375));
        assert_eq!(h.quantile(0.0), Some(375));
        assert_eq!(h.quantile(1.0), Some(375));
    }

    proptest::proptest! {
        /// For any sample set: quantiles are monotone in q, bounded by the
        /// observed extrema, exact at the edges, and the interpolated
        /// estimate never lands above the bucket holding the target rank.
        #[test]
        fn quantile_properties(values in proptest::collection::vec(0u64..1_000_000, 1..200)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut values = values;
            values.sort_unstable();
            let (lo, hi) = (values[0], *values.last().unwrap());
            proptest::prop_assert_eq!(h.quantile(0.0), Some(lo));
            proptest::prop_assert_eq!(h.quantile(1.0), Some(hi));
            let mut prev = lo;
            for i in 0..=20 {
                let q = f64::from(i) / 20.0;
                let v = h.quantile(q).unwrap();
                proptest::prop_assert!(v >= prev, "q={} went backwards: {} < {}", q, v, prev);
                proptest::prop_assert!((lo..=hi).contains(&v), "q={} out of range: {}", q, v);
                // The estimate must not leave the bucket of the true
                // rank-statistic (log2 buckets: same-bucket accuracy).
                if q > 0.0 && q < 1.0 {
                    let rank = ((q * values.len() as f64).ceil() as usize).clamp(1, values.len());
                    let exact = values[rank - 1];
                    proptest::prop_assert_eq!(
                        Histogram::bucket_index(v.max(1)),
                        Histogram::bucket_index(exact.max(1)),
                        "q={} estimate {} left the bucket of exact {}", q, v, exact
                    );
                }
                prev = v;
            }
        }

        /// Merging any chunked partition of a sample set is indistinguishable
        /// from recording every sample into one histogram — the invariant
        /// fleet aggregation relies on.
        #[test]
        fn merge_partition_invariance(
            values in proptest::collection::vec(0u64..1_000_000, 1..200),
            chunk in 1usize..32,
        ) {
            let mut reference = Histogram::new();
            for &v in &values {
                reference.record(v);
            }
            let mut merged = Histogram::new();
            for shard in values.chunks(chunk) {
                let mut h = Histogram::new();
                for &v in shard {
                    h.record(v);
                }
                merged.merge(&h);
            }
            proptest::prop_assert_eq!(merged.count(), reference.count());
            proptest::prop_assert_eq!(merged.sum(), reference.sum());
            proptest::prop_assert_eq!(merged.min(), reference.min());
            proptest::prop_assert_eq!(merged.max(), reference.max());
            for i in 0..=10 {
                let q = f64::from(i) / 10.0;
                proptest::prop_assert_eq!(merged.quantile(q), reference.quantile(q));
            }
        }

        /// clear() always restores the pristine state regardless of history.
        #[test]
        fn clear_is_pristine(values in proptest::collection::vec(0u64..u64::MAX, 0..64)) {
            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            h.clear();
            proptest::prop_assert!(h.is_empty());
            proptest::prop_assert_eq!(h.quantile(0.5), None);
            h.record(7);
            proptest::prop_assert_eq!(h.min(), Some(7));
            proptest::prop_assert_eq!(h.max(), Some(7));
        }
    }

    #[test]
    fn json_contains_buckets_and_mean() {
        let mut h = Histogram::new();
        h.record(125);
        h.record(75);
        let j = h.to_value().to_string();
        assert!(j.contains("\"count\":2"));
        assert!(j.contains("\"mean\":100.0"));
        assert!(
            j.contains("[64,128,2]"),
            "both samples share bucket [64,128): {j}"
        );
    }
}
