//! Fixed-bucket histograms for scalar observations.

/// Number of buckets: one per decade from `1e-12` to `1e13`, plus an
/// underflow bucket below and an overflow bucket above.
pub(crate) const N_BUCKETS: usize = 27;

/// A fixed-bucket histogram over positive-ish scalars.
///
/// Buckets are decades: bucket `i` (for `1 ≤ i ≤ 25`) covers
/// `[10^(i-13), 10^(i-12))`; bucket `0` collects everything below `1e-12`
/// (including zero and negatives) and bucket `26` everything at or above
/// `1e13`. Decades fit every scalar the workspace observes — solver
/// residuals (`1e-11`…`1e-3`), iteration counts (`1`…`1e4`), and
/// microsecond durations (`1`…`1e8`) — with no configuration, which keeps
/// histograms mergeable across runs by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    counts: [u64; N_BUCKETS],
    n: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            counts: [0; N_BUCKETS],
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The bucket index a value falls into.
    pub fn bucket_of(value: f64) -> usize {
        if !value.is_finite() || value < 1e-12 {
            return 0;
        }
        // floor(log10) via the exponent, robust at decade boundaries.
        let exp = value.log10().floor() as i32;
        ((exp + 13).clamp(0, (N_BUCKETS - 1) as i32)) as usize
    }

    /// The `[low, high)` value range of bucket `i` (underflow and overflow
    /// extend to the infinities).
    pub fn bucket_bounds(i: usize) -> (f64, f64) {
        assert!(i < N_BUCKETS, "bucket {i} out of range");
        match i {
            0 => (f64::NEG_INFINITY, 1e-12),
            _ if i == N_BUCKETS - 1 => (1e13, f64::INFINITY),
            _ => (10f64.powi(i as i32 - 13), 10f64.powi(i as i32 - 12)),
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, value: f64) {
        if let Some(slot) = self.counts.get_mut(Histogram::bucket_of(value)) {
            *slot += 1;
        }
        self.n += 1;
        if value.is_finite() {
            self.sum += value;
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the (finite) observations; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }

    /// Smallest finite observation; `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.min.is_finite().then_some(self.min)
    }

    /// Largest finite observation; `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.max.is_finite().then_some(self.max)
    }

    /// Per-bucket counts, in bucket order.
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// The `(low, high)` bounds of the bucket containing the `q`-quantile
    /// observation (`0 ≤ q ≤ 1`); `None` when empty. Fixed buckets trade
    /// exact quantiles for mergeability — a decade of resolution is enough
    /// to tell "µs" from "ms" from "s".
    pub fn quantile_bucket(&self, q: f64) -> Option<(f64, f64)> {
        if self.n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * (self.n as f64 - 1.0)).round() as u64).min(self.n - 1);
        // rank < n, so some bucket contains it.
        let mut seen = 0;
        let i = self.counts.iter().position(|&c| {
            seen += c;
            seen > rank
        })?;
        Some(Histogram::bucket_bounds(i))
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_decades() {
        assert_eq!(Histogram::bucket_of(0.0), 0);
        assert_eq!(Histogram::bucket_of(-5.0), 0);
        assert_eq!(Histogram::bucket_of(f64::NAN), 0);
        assert_eq!(Histogram::bucket_of(1e-13), 0);
        assert_eq!(Histogram::bucket_of(1e-12), 1);
        assert_eq!(Histogram::bucket_of(1.0), 13);
        assert_eq!(Histogram::bucket_of(9.99), 13);
        assert_eq!(Histogram::bucket_of(10.0), 14);
        assert_eq!(Histogram::bucket_of(1e11), 24);
        assert_eq!(Histogram::bucket_of(1e12), 25);
        assert_eq!(Histogram::bucket_of(1e13), 26);
        assert_eq!(Histogram::bucket_of(f64::MAX), 26);
        // bounds round-trip: every bucket's low edge maps back to it.
        for i in 1..N_BUCKETS - 1 {
            let (lo, hi) = Histogram::bucket_bounds(i);
            assert_eq!(Histogram::bucket_of(lo), i, "low edge of {i}");
            assert!(hi > lo);
        }
    }

    #[test]
    fn observe_tracks_stats() {
        let mut h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.quantile_bucket(0.5), None);
        for v in [1.0, 2.0, 3.0, 400.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.mean(), Some(101.5));
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(400.0));
        // Median bucket is the ones decade [1, 10).
        assert_eq!(h.quantile_bucket(0.5), Some((1.0, 10.0)));
        // p100 bucket is the hundreds decade.
        assert_eq!(h.quantile_bucket(1.0), Some((100.0, 1000.0)));
    }

    #[test]
    fn merge_adds_counts_and_stats() {
        let mut a = Histogram::new();
        a.observe(1.0);
        let mut b = Histogram::new();
        b.observe(1000.0);
        b.observe(0.5);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(0.5));
        assert_eq!(a.max(), Some(1000.0));
        let total: u64 = a.bucket_counts().iter().sum();
        assert_eq!(total, 3);
    }
}
