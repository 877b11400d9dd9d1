//! Pure helpers: percentiles with their sample counts, span self time,
//! and the failure accounting behind `ok_frac`.

use std::collections::BTreeMap;

use udi_obs::SpanRecord;

/// A percentile read off a sample, with the counts that make it
/// trustworthy: a tail percentile is only reported when at least
/// [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentile {
    /// The value at the percentile (nearest-rank).
    pub value: f64,
    /// Number of samples the percentile was read from.
    pub samples: usize,
    /// Number of samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Samples that must lie beyond a tail percentile for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (in `0..=1`) of `values`.
///
/// Returns `None` when `values` is empty, or when fewer than
/// [`MIN_BEYOND`] samples lie beyond the percentile and `q` is a tail
/// percentile (above the median): such a figure is one or two outliers,
/// not a percentile.
pub fn percentile(values: &[f64], q: f64) -> Option<Percentile> {
    if values.is_empty() || !(0.0..=1.0).contains(&q) {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    // Nearest rank: the smallest value with at least q·n samples at or
    // below it.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    let beyond = n - rank;
    if q > 0.5 && beyond < MIN_BEYOND {
        return None;
    }
    Some(Percentile {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of `values` (mean of the middle pair for even counts); `None`
/// when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// A span's self time: its duration minus the part of its interval that
/// its direct children cover. Overlapping children (parallel work) count
/// once, and child time outside the parent's interval is clipped.
pub fn self_time_us(span: &SpanRecord, children: &[&SpanRecord]) -> u64 {
    let (lo, hi) = (span.start_us, span.start_us + span.dur_us);
    let mut pieces: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_us.max(lo), (c.start_us + c.dur_us).min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    pieces.sort_unstable();
    let mut covered = 0;
    let mut cursor = lo;
    for (a, b) in pieces {
        let a = a.max(cursor);
        if b > a {
            covered += b - a;
            cursor = b;
        }
    }
    span.dur_us - covered.min(span.dur_us)
}

/// Self time of every span in `spans`, in input order.
pub fn self_times_us(spans: &[SpanRecord]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<&SpanRecord>> = BTreeMap::new();
    for s in spans {
        children.entry(s.parent).or_default().push(s);
    }
    spans
        .iter()
        .map(|s| self_time_us(s, children.get(&s.id).map_or(&[][..], Vec::as_slice)))
        .collect()
}

/// How every attempted operation ended. Reads and writes share one tally;
/// anything but `ok` is a failure.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Answered with `ok: true` and the right bytes.
    pub ok: u64,
    /// Refused by admission control (`shed: true`).
    pub shed: u64,
    /// Answered with `ok: false` for any other reason, or malformed.
    pub errors: u64,
    /// No reply within the socket timeout, or the connection broke.
    pub timeouts: u64,
    /// Answered `ok: true` with bytes that differ from the library's.
    pub wrong: u64,
}

impl Tally {
    /// Operations attempted.
    pub fn attempted(&self) -> u64 {
        self.ok + self.failed()
    }

    /// Operations that failed in any way.
    pub fn failed(&self) -> u64 {
        self.shed + self.errors + self.timeouts + self.wrong
    }

    /// Failed ÷ attempted (`0` when nothing was attempted).
    pub fn fail_frac(&self) -> f64 {
        match self.attempted() {
            0 => 0.0,
            n => self.failed() as f64 / n as f64,
        }
    }

    /// Whether every answer that came back was right: no wrong bytes and
    /// no error replies. Shed and timed-out operations are failures but
    /// not wrong answers.
    pub fn correct(&self) -> bool {
        self.wrong == 0 && self.errors == 0
    }

    /// Adds `other` into `self`.
    pub fn merge(&mut self, other: &Tally) {
        self.ok += other.ok;
        self.shed += other.shed;
        self.errors += other.errors;
        self.timeouts += other.timeouts;
        self.wrong += other.wrong;
    }

    /// Moves `n` operations counted `ok` to `wrong` (answers found wrong
    /// by a check after the window).
    pub fn demote_to_wrong(&mut self, n: u64) {
        let n = n.min(self.ok);
        self.ok -= n;
        self.wrong += n;
    }
}

/// 64-bit digest of a byte string, for comparing a response's answer
/// bytes with the library's after the fact. Not cryptographic; collisions
/// between an honest wrong answer and the right one are negligible.
pub fn digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x517c_c1b7_2722_0a95;
    let mut h: u64 = bytes.len() as u64;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes([c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7]]);
        h = (h.rotate_left(5) ^ w).wrapping_mul(K);
    }
    for &b in chunks.remainder() {
        h = (h.rotate_left(5) ^ u64::from(b)).wrapping_mul(K);
    }
    // Final avalanche (splitmix64) so nearby inputs spread.
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_reports_rank_and_counts() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p50 = percentile(&v, 0.5).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!((p50.samples, p50.beyond), (1000, 500));
        let p99 = percentile(&v, 0.99).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!(p99.beyond, 10);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        // 999 samples: p99 sits at rank 990, leaving 9 beyond it.
        assert_eq!(percentile(&v, 0.99), None);
        let p95 = percentile(&v, 0.95).unwrap();
        assert_eq!(p95.value, 950.0);
        assert_eq!(p95.beyond, 49);
        // The median of a tiny sample is still a median.
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5).unwrap().value, 2.0);
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&[1.0], 1.5), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (0..400).map(|i| f64::from((i * 7919) % 400)).collect();
        let a = percentile(&v, 0.95).unwrap();
        v.sort_by(f64::total_cmp);
        assert_eq!(percentile(&v, 0.95).unwrap(), a);
        assert_eq!(a.value, 379.0);
    }

    #[test]
    fn median_of_even_and_odd_samples() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[]), None);
    }

    fn iv(id: u64, parent: u64, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            name: "span",
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_time_once() {
        let parent = iv(1, 0, 100, 100);
        // Two overlapping children cover 120..170; a third 180..190.
        let children = [iv(2, 1, 120, 30), iv(3, 1, 140, 30), iv(4, 1, 180, 10)];
        let children: Vec<&SpanRecord> = children.iter().collect();
        assert_eq!(self_time_us(&parent, &children), 100 - 50 - 10);
        assert_eq!(self_time_us(&parent, &[]), 100);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let parent = iv(1, 0, 100, 50);
        let children = [iv(2, 1, 90, 20), iv(3, 1, 140, 30)];
        let children: Vec<&SpanRecord> = children.iter().collect();
        // Covered: 100..110 and 140..150.
        assert_eq!(self_time_us(&parent, &children), 30);
        // A child spanning the whole parent leaves no self time.
        assert_eq!(self_time_us(&parent, &[&iv(2, 1, 0, 1000)]), 0);
    }

    #[test]
    fn self_times_use_direct_children_only() {
        let spans = [
            iv(1, 0, 0, 100),
            iv(2, 1, 10, 60),
            iv(3, 2, 20, 40),
            iv(4, 0, 200, 5),
        ];
        assert_eq!(self_times_us(&spans), vec![40, 20, 40, 5]);
    }

    #[test]
    fn tally_counts_every_failure_kind_against_attempts() {
        let mut t = Tally {
            ok: 90,
            shed: 4,
            errors: 3,
            timeouts: 2,
            wrong: 1,
        };
        assert_eq!(t.attempted(), 100);
        assert_eq!(t.failed(), 10);
        assert_eq!(t.fail_frac(), 0.1);
        assert!(!t.correct());

        let mut reads = Tally {
            ok: 10,
            ..Tally::default()
        };
        reads.merge(&Tally {
            ok: 5,
            shed: 5,
            ..Tally::default()
        });
        assert_eq!((reads.attempted(), reads.failed()), (20, 5));
        assert!(reads.correct(), "shed is a failure but not a wrong answer");

        reads.demote_to_wrong(3);
        assert_eq!((reads.ok, reads.wrong, reads.attempted()), (12, 3, 20));
        assert!(!reads.correct());
        t.demote_to_wrong(1000);
        assert_eq!((t.ok, t.attempted()), (0, 100));
        assert_eq!(Tally::default().fail_frac(), 0.0);
    }

    #[test]
    fn digest_separates_nearby_inputs() {
        assert_eq!(digest(b"abc"), digest(b"abc"));
        assert_ne!(digest(b"abc"), digest(b"abd"));
        assert_ne!(digest(b"12345678x"), digest(b"12345678y"));
        assert_ne!(digest(b""), digest(b"\0"));
    }
}
