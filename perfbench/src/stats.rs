//! Seeded input generation and the summary statistics every metric is
//! reported with.

use std::time::Duration;

/// SplitMix64: a tiny seedable generator, so every input the benchmark
/// makes is a pure function of the `--seed` argument.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` so that two
    /// streams of one seed never share values.
    pub fn new(seed: u64, stream: u64) -> Self {
        let mut rng = Rng(seed ^ stream.wrapping_mul(0xD6E8_FEB8_6659_FD93));
        rng.next_u64();
        rng
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53-bit resolution.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize % n
    }
}

/// Arrival offsets from the start of an open-loop run: a Poisson process
/// at `rate` per second, covering `span`. Same seed, same schedule.
pub fn poisson_schedule(rate: f64, span: Duration, seed: u64) -> Vec<Duration> {
    let mut rng = Rng::new(seed, 0x5C4E_D01E);
    let end = span.as_secs_f64();
    let mut t = 0.0;
    let mut out = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        // 1 - u lies in (0, 1], so the gap is finite and non-negative.
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= end {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// Zipf(`s`) over `n` ranks: rank 0 is the most popular.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// The distribution over `n > 0` ranks with exponent `s`.
    pub fn new(n: usize, s: f64) -> Self {
        let weights: Vec<f64> = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Zipf { cdf }
    }

    /// Draws one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .iter()
            .position(|&c| u < c)
            .unwrap_or(self.cdf.len() - 1)
    }
}

/// The percentiles a timing may be reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples strictly above the `p`-th percentile of `n` samples under the
/// nearest-rank rule.
fn samples_above(n: usize, p: f64) -> usize {
    n.saturating_sub(nearest_rank(n, p))
}

/// The highest percentile of [`PERCENTILE_LADDER`] that still has at
/// least ten samples above it, or `None` when even the median has not.
pub fn supported_percentile(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .copied()
        .rfind(|&p| samples_above(n, p) >= 10)
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples.
fn nearest_rank(n: usize, p: f64) -> usize {
    // The epsilon keeps float noise in `p * n` (99.9 has no exact binary
    // form) from rounding an exact rank up.
    ((p * n as f64 / 100.0 - 1e-7).ceil() as usize).clamp(1, n.max(1))
}

/// The `p`-th percentile of ascending `sorted` (nearest rank); `NaN`
/// for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    sorted[nearest_rank(sorted.len(), p) - 1]
}

/// Median of unsorted values (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// Arithmetic mean (`0` when empty).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// A latency sample set summarised the way every timing is reported:
/// the median, the tail percentile the sample supports (capped at p99),
/// and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Samples summarised.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// The tail percentile actually reported: 99, or lower when fewer
    /// than ten samples lie above p99.
    pub tail_pct: f64,
    /// Value at `tail_pct`.
    pub tail: f64,
}

impl Tail {
    /// Summarises `values`; a failed request enters as `f64::INFINITY`,
    /// so it counts above any limit. `None` when too few samples support
    /// even a median.
    pub fn of(values: &[f64]) -> Option<Tail> {
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let tail_pct = supported_percentile(v.len())?.min(99.0);
        Some(Tail {
            count: v.len(),
            p50: percentile(&v, 50.0),
            tail_pct,
            tail: percentile(&v, tail_pct),
        })
    }
}

/// `p`-th percentile of unsorted values, `0` when empty (for per-layer
/// timings of layers a workload does not exercise).
pub fn pct_or_zero(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, p)
}

/// Largest share of a window's CPU time the host may steal before the
/// window counts as measuring the neighbours rather than the program.
pub const CALM_STEAL: f64 = 0.01;

/// Fewest fixes the kept windows of a phase hold: when the calm windows
/// hold fewer, the least stolen-from others are added until they do.
pub const MIN_KEPT_FIXES: usize = 5000;

/// A measured phase summarised over its calm stretch. The phase is cut
/// into equal windows; the windows in which the host stole at most
/// [`CALM_STEAL`] of the CPU time are kept, and the fixes of all kept
/// windows are pooled, so every stall of the program itself counts.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calm {
    /// Windows kept.
    pub kept: usize,
    /// Windows in the phase.
    pub windows: usize,
    /// Latency over the kept windows' fixes.
    pub latency: Tail,
    /// Correct completions per second of kept window.
    pub rate: f64,
}

impl Calm {
    /// Summarises `(seconds into the phase, latency)` samples in windows
    /// `width_s` long, one per entry of `stolen`, each window's share of
    /// CPU time the host took away. `None` when the kept windows hold
    /// too few fixes for a median.
    pub fn of(samples: &[(f64, f64)], width_s: f64, stolen: &[f64]) -> Option<Calm> {
        let windows = stolen.len();
        let mut per: Vec<Vec<f64>> = vec![Vec::new(); windows];
        for &(at, latency) in samples {
            let w = (at / width_s).floor();
            if w >= 0.0 && (w as usize) < windows {
                per[w as usize].push(latency);
            }
        }
        let mut order: Vec<usize> = (0..windows).collect();
        order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]).then(a.cmp(&b)));
        let mut pooled = Vec::new();
        let mut kept = 0;
        for w in order {
            if stolen[w] > CALM_STEAL && pooled.len() >= MIN_KEPT_FIXES {
                break;
            }
            pooled.extend_from_slice(&per[w]);
            kept += 1;
        }
        let ok = pooled.iter().filter(|l| l.is_finite()).count();
        Some(Calm {
            kept,
            windows,
            latency: Tail::of(&pooled)?,
            rate: ok as f64 / (kept as f64 * width_s),
        })
    }
}
