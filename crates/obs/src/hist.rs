//! Fixed-bucket power-of-2 latency histograms.
//!
//! A [`Histogram`] is 32 `AtomicU64` buckets plus exact `sum`, `count`,
//! and `max`. Bucket `i` has upper bound `2^(MIN_SHIFT + i)` nanoseconds
//! (256 ns, 512 ns, … ~137 s); observations above the last bound land in
//! the implicit `+Inf` bucket (counted, not bucketed). Recording is
//! wait-free — three relaxed atomic RMWs — so the hottest instrumented
//! path (per-request HTTP timing) pays tens of nanoseconds, and a
//! concurrent `/metrics` scrape reads a consistent-enough view without
//! ever blocking a writer.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the smallest bucket's upper bound in nanoseconds (256 ns).
pub const MIN_SHIFT: u32 = 8;

/// Number of finite buckets. The last finite bound is
/// `2^(MIN_SHIFT + BUCKET_COUNT - 1)` ns ≈ 137.4 s.
pub const BUCKET_COUNT: usize = 32;

/// A concurrent fixed-bucket histogram of durations in nanoseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKET_COUNT],
    sum: AtomicU64,
    count: AtomicU64,
    max: AtomicU64,
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
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum: AtomicU64::new(0),
            count: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Index of the finite bucket `nanos` falls in, `None` for `+Inf`.
    fn bucket_index(nanos: u64) -> Option<usize> {
        // Bucket i covers (2^(MIN_SHIFT+i-1), 2^(MIN_SHIFT+i)]; everything
        // at or below 256 ns is bucket 0.
        let bits = 64 - nanos.max(1).leading_zeros(); // ceil(log2(n)) + 1 for powers of 2
        let pow = if nanos.is_power_of_two() {
            bits - 1
        } else {
            bits
        };
        let idx = pow.saturating_sub(MIN_SHIFT) as usize;
        (idx < BUCKET_COUNT).then_some(idx)
    }

    /// Upper bound of finite bucket `i` in nanoseconds.
    pub fn bucket_bound_nanos(i: usize) -> u64 {
        1u64 << (MIN_SHIFT + i as u32)
    }

    /// Record one observation of `nanos`.
    pub fn record(&self, nanos: u64) {
        if let Some(i) = Self::bucket_index(nanos) {
            self.buckets[i].fetch_add(1, Ordering::Relaxed);
        }
        self.sum.fetch_add(nanos, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(nanos, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed nanoseconds.
    pub fn sum_nanos(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Largest observation in nanoseconds (0 when empty).
    pub fn max_nanos(&self) -> u64 {
        self.max.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the bucket counts (non-cumulative).
    pub fn bucket_counts(&self) -> [u64; BUCKET_COUNT] {
        std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed))
    }

    /// The `q`-quantile (0 < q ≤ 1) as the upper bound of the bucket the
    /// rank falls in, in nanoseconds. Observations beyond the last finite
    /// bucket report the exact tracked `max`. Returns 0 when empty.
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        let snap = self.snapshot();
        snap.quantile_nanos(q)
    }

    /// Capture a consistent-enough snapshot for rendering.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.bucket_counts(),
            sum_nanos: self.sum_nanos(),
            count: self.count(),
            max_nanos: self.max_nanos(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`]'s state.
#[derive(Debug, Clone, Default)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) observation counts.
    pub buckets: [u64; BUCKET_COUNT],
    /// Sum of all observed nanoseconds.
    pub sum_nanos: u64,
    /// Total observations (including `+Inf` overflows).
    pub count: u64,
    /// Largest observation in nanoseconds.
    pub max_nanos: u64,
}

impl HistogramSnapshot {
    /// See [`Histogram::quantile_nanos`].
    pub fn quantile_nanos(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Histogram::bucket_bound_nanos(i).min(self.max_nanos.max(1));
            }
        }
        self.max_nanos
    }
}

/// Append `nanos` as decimal seconds without an exponent or trailing
/// zeros, e.g. `0.000000256` — the `le` label and `_sum` format of the
/// Prometheus exposition.
pub fn write_seconds(out: &mut String, nanos: u64) {
    let secs = nanos / 1_000_000_000;
    let frac = nanos % 1_000_000_000;
    if frac == 0 {
        let _ = write!(out, "{secs}");
    } else {
        let _ = write!(out, "{secs}.{frac:09}");
        out.truncate(out.trim_end_matches('0').len());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_indexing_powers_of_two_are_inclusive() {
        assert_eq!(Histogram::bucket_index(1), Some(0));
        assert_eq!(Histogram::bucket_index(255), Some(0));
        assert_eq!(Histogram::bucket_index(256), Some(0)); // bound is inclusive
        assert_eq!(Histogram::bucket_index(257), Some(1));
        assert_eq!(Histogram::bucket_index(512), Some(1));
        assert_eq!(Histogram::bucket_index(513), Some(2));
        let last = Histogram::bucket_bound_nanos(BUCKET_COUNT - 1);
        assert_eq!(Histogram::bucket_index(last), Some(BUCKET_COUNT - 1));
        assert_eq!(Histogram::bucket_index(last + 1), None);
    }

    #[test]
    fn record_tracks_sum_count_max() {
        let h = Histogram::new();
        h.record(100);
        h.record(1000);
        h.record(50_000);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_nanos(), 51_100);
        assert_eq!(h.max_nanos(), 50_000);
        let b = h.bucket_counts();
        assert_eq!(b.iter().sum::<u64>(), 3);
    }

    #[test]
    fn overflow_counts_but_does_not_bucket() {
        let h = Histogram::new();
        let huge = Histogram::bucket_bound_nanos(BUCKET_COUNT - 1) + 1;
        h.record(huge);
        assert_eq!(h.count(), 1);
        assert_eq!(h.bucket_counts().iter().sum::<u64>(), 0);
        assert_eq!(h.quantile_nanos(0.5), huge); // falls through to max
    }

    #[test]
    fn quantiles_land_on_bucket_bounds() {
        let h = Histogram::new();
        for _ in 0..99 {
            h.record(300); // bucket le=512
        }
        h.record(1_000_000); // bucket le=2^20
        assert_eq!(h.quantile_nanos(0.5), 512);
        assert_eq!(h.quantile_nanos(0.99), 512);
        assert_eq!(h.quantile_nanos(1.0), 1_000_000); // clamped to exact max
                                                      // Tiny histograms clamp to the observed max rather than a bound
                                                      // far above anything seen.
        let h2 = Histogram::new();
        h2.record(300);
        assert_eq!(h2.quantile_nanos(0.5), 300);
    }

    #[test]
    fn seconds_formatting() {
        let mut out = String::from("le=");
        for nanos in [256, 1 << 30, 1_000_000_000, 500_000_000] {
            write_seconds(&mut out, nanos);
            out.push(' ');
        }
        assert_eq!(out, "le=0.000000256 1.073741824 1 0.5 ");
    }
}
