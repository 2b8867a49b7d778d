//! Order statistics and failure accounting shared by every workload.

use greenness_trace::percentile_nearest_rank;

/// Samples a tail percentile must leave beyond it before it is reported.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The 1-based nearest rank of percentile `p` (0–1) among `n` samples, or
/// `None` when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it: a
/// tail figure resting on a handful of points is noise, not a percentile.
fn tail_rank(n: u64, p: f64) -> Option<u64> {
    let rank = ((p.clamp(0.0, 1.0) * n as f64).ceil() as u64).clamp(1, n.max(1));
    (n > 0 && n - rank >= MIN_TAIL_SAMPLES as u64).then_some(rank)
}

/// Sub-buckets per power of two in [`LatencyHistogram`]: values are kept to
/// 1/1024 relative resolution.
const SUB_BUCKETS: u64 = 1024;
/// Powers of two covered (nanoseconds up to 2^40, about 18 minutes).
const OCTAVES: u64 = 40;

/// Fixed-size log-linear histogram of nanosecond latencies. Its memory does
/// not grow with the number of samples, so a run's peak resident memory
/// does not depend on how many requests fit into its time budget.
#[derive(Debug, Clone)]
pub struct LatencyHistogram {
    counts: Vec<u64>,
    n: u64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        let mut counts = vec![0u64; (OCTAVES * SUB_BUCKETS) as usize];
        // Touch every page now, so the pages a run happens to hit later do
        // not show up in its peak memory.
        counts.fill(1);
        counts.fill(0);
        LatencyHistogram { counts, n: 0 }
    }
}

impl LatencyHistogram {
    fn bucket(ns: u64) -> usize {
        let ns = ns.min((1 << OCTAVES) - 1);
        if ns < SUB_BUCKETS {
            return ns as usize;
        }
        let octave = 63 - u64::from(ns.leading_zeros()); // >= 10
        let shift = octave - 10;
        let sub = (ns >> shift) - SUB_BUCKETS; // 0..1024
        ((octave - 9) * SUB_BUCKETS + sub) as usize
    }

    /// Smallest nanosecond value that falls into bucket `b`.
    fn low(b: usize) -> u64 {
        let b = b as u64;
        if b < SUB_BUCKETS {
            return b;
        }
        let (octave, sub) = (b / SUB_BUCKETS + 9, b % SUB_BUCKETS);
        (SUB_BUCKETS + sub) << (octave - 10)
    }

    /// Record one latency.
    pub fn record(&mut self, d: std::time::Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[Self::bucket(ns)] += 1;
        self.n += 1;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.n
    }

    /// Nearest-rank percentile `p` in milliseconds (the midpoint of the
    /// sample's bucket), refused when fewer than [`MIN_TAIL_SAMPLES`] samples lie beyond it.
    pub fn percentile_ms(&self, p: f64) -> Option<f64> {
        let rank = tail_rank(self.n, p)?;
        let mut seen = 0u64;
        let b = self.counts.iter().position(|&c| {
            seen += c;
            seen >= rank
        })?;
        let mid = (Self::low(b) + Self::low(b + 1)) as f64 / 2.0;
        Some(mid * 1e-6)
    }
}

/// Nearest-rank median. Unlike a tail percentile it needs no samples beyond
/// it; `None` only for an empty slice.
pub fn median(samples: &[f64]) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(percentile_nearest_rank(&sorted, 0.5))
}

/// Operations attempted and failed. Error envelopes, sheds, injected drops
/// and output mismatches all count as failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Operations issued.
    pub attempted: u64,
    /// Operations that did not produce a correct result.
    pub failed: u64,
}

impl Tally {
    /// Record one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Mark `n` already-recorded operations as failed (a batch whose output
    /// digest did not match), never more than were attempted.
    pub fn fail(&mut self, n: u64) {
        self.failed = (self.failed + n).min(self.attempted);
    }

    /// Merge another tally into this one.
    pub fn add(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed over attempted; `0` when nothing was attempted.
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// `true` when a serve response line is a success envelope. Error
/// envelopes (bad request, overloaded, deadline, draining, internal) carry
/// `"ok":false`; an injected drop produces no line at all.
pub fn ok_envelope(line: &str) -> bool {
    line.starts_with('{') && line.contains("\"ok\":true")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_median_picks_a_real_sample() {
        assert_eq!(median(&ramp(1000)), Some(500.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[2.0, 1.0]), Some(1.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly 10 beyond it.
        assert_eq!(tail_rank(1000, 0.99), Some(990));
        // 999 samples: rank 990 again, but only 9 beyond it.
        assert_eq!(tail_rank(999, 0.99), None);
        assert_eq!(tail_rank(100, 0.99), None);
        assert_eq!(tail_rank(19, 0.5), None);
        assert_eq!(tail_rank(20, 0.5), Some(10));
        assert_eq!(tail_rank(0, 0.5), None);
    }

    #[test]
    fn histogram_percentiles_follow_the_nearest_rank_rule() {
        let mut h = LatencyHistogram::default();
        for us in 1..=1000u64 {
            h.record(std::time::Duration::from_micros(us));
        }
        assert_eq!(h.len(), 1000);
        let p50 = h.percentile_ms(0.5).expect("enough samples");
        let p99 = h.percentile_ms(0.99).expect("exactly 10 beyond");
        assert!((p50 - 0.500).abs() <= 0.500 / 1000.0, "{p50}");
        assert!((p99 - 0.990).abs() <= 0.990 / 1000.0, "{p99}");
        let mut short = LatencyHistogram::default();
        for us in 1..=999u64 {
            short.record(std::time::Duration::from_micros(us));
        }
        assert_eq!(short.percentile_ms(0.99), None, "only 9 samples beyond p99");
        assert_eq!(LatencyHistogram::default().percentile_ms(0.5), None);
        // Buckets tile the range: every value maps into the bucket whose
        // bounds contain it.
        for ns in [0, 1, 1023, 1024, 1025, 4097, 9_000, 123_456_789] {
            let b = LatencyHistogram::bucket(ns);
            assert!(
                LatencyHistogram::low(b) <= ns && ns < LatencyHistogram::low(b + 1),
                "{ns}"
            );
        }
    }

    #[test]
    fn failed_frac_counts_errors_sheds_and_drops_against_attempts() {
        let replies = [
            r#"{"schema":"greenness-serve/v1","id":1,"ok":true,"result":{}}"#,
            r#"{"schema":"greenness-serve/v1","id":2,"ok":false,"error":{"code":"bad_request","message":"x"}}"#,
            r#"{"schema":"greenness-serve/v1","id":3,"ok":false,"error":{"code":"overloaded","message":"shed"}}"#,
            "", // injected connection drop: no reply
            r#"{"schema":"greenness-serve/v1","id":5,"ok":true,"result":{"steer":"frame"}}"#,
        ];
        let mut t = Tally::default();
        for r in replies {
            t.record(ok_envelope(r));
        }
        assert_eq!(
            t,
            Tally {
                attempted: 5,
                failed: 3
            }
        );
        assert!((t.failed_frac() - 0.6).abs() < 1e-12);
        t.fail(10);
        assert_eq!(
            t.failed, 5,
            "a digest mismatch never fails more than attempted"
        );
        assert_eq!(Tally::default().failed_frac(), 0.0);
    }
}
