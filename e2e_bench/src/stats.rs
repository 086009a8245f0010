//! Small numeric helpers: a seeded generator and order statistics over
//! the samples a run collects.

/// Deterministic xorshift64* — the load side must not depend on `rand`,
/// and the same `--seed` must give the same request schedule.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        // Scramble first: xorshift is stuck at 0, and small seeds start
        // with long runs of zero bits.
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Median of `samples` (mean of the middle pair for an even count).
/// Panics on an empty slice: every caller measures at least once.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    assert!(n > 0, "median of no samples");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// The smallest of `samples`: the fastest iteration of a timed loop.
///
/// On a shared host everything that disturbs an iteration (a vCPU the
/// host took away, a neighbour on the core's other hyperthread) makes
/// it slower, never faster, so the fastest of many iterations is the
/// one least disturbed — and the estimate of what the program costs
/// that repeats best from run to run (five identical runs of
/// `stream_trickle`: median pass 1.02–1.46 s, fastest 0.95–1.00 s).
pub fn fastest(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "fastest of no samples");
    samples.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The value a tenth of `samples` exceed (nearest rank): for rates over
/// the windows of a phase, what the least-disturbed tenth of the phase
/// sustained. The counterpart of [`fastest`] for a continuous load.
pub fn upper_decile(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    assert!(!sorted.is_empty(), "upper decile of no samples");
    sorted[((sorted.len() as f64 - 1.0) * 0.9).round() as usize]
}

/// Nearest-rank percentile of an ascending slice (`p` in `0..=1`).
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[((sorted.len() as f64 - 1.0) * p).round() as usize]
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Seconds as a JSON list of milliseconds, for the summary line.
pub fn json_ms(seconds: &[f64]) -> String {
    let ms: Vec<String> = seconds.iter().map(|s| format!("{:.1}", s * 1e3)).collect();
    format!("[{}]", ms.join(","))
}
