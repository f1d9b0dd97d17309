//! The workloads and what they share: run options, the outcome a
//! run reports, the closing probe pass, and the quiescence check.

pub mod paged;
pub mod wire;

use crate::report::Metric;
use crate::setup::Fixture;
use crate::stats::{mean, pct_or_zero};
use crate::trace::{Span, TracedLocalizer, Tracer};
use noble::Localizer;
use noble_geo::Point;
use noble_serve::{BatchServer, ServeClient, ShardKey, ShardStats, ShardedRegistry};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How one workload run is shaped.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// The `--seed` argument.
    pub seed: u64,
    /// Unmeasured lead-in: caches fill and shards fault in.
    pub warmup: Duration,
    /// The measured phase (`--seconds`).
    pub measure: Duration,
    /// Load threads.
    pub threads: usize,
}

/// How one attempted fix ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Answered, and the answer passed its check.
    Correct,
    /// Refused, or answered with a typed error.
    Failed,
    /// Answered, and the answer failed its check.
    Wrong,
}

impl Verdict {
    /// The verdict on an answer that passed (`true`) or failed its check.
    pub fn checked(ok: bool) -> Verdict {
        if ok {
            Verdict::Correct
        } else {
            Verdict::Wrong
        }
    }
}

/// Attempt counts of a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Fixes attempted, warm-up and probe pass included.
    pub attempted: u64,
    /// Attempts that were refused, failed, or answered wrongly.
    pub failed: u64,
    /// The failed attempts that answered wrongly.
    pub wrong: u64,
}

impl Counts {
    /// Records one attempt.
    pub fn tally(&mut self, verdict: Verdict) {
        self.attempted += 1;
        if verdict != Verdict::Correct {
            self.failed += 1;
        }
        if verdict == Verdict::Wrong {
            self.wrong += 1;
        }
    }

    /// Adds another run's counts.
    pub fn add(&mut self, other: Counts) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
    }
}

/// What one run measured and checked.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Every attempt's verdict, counted.
    pub counts: Counts,
    /// Broken invariants, each described.
    pub violations: Vec<String>,
    /// Every fix of the measured phase: when it completed (open loop:
    /// when it was due), in seconds into the phase, and its latency in
    /// microseconds, infinite when it failed.
    pub samples: Vec<(f64, f64)>,
    /// When the measured phase began.
    pub begin: Option<Instant>,
    /// Length of the measured phase, seconds.
    pub measured_s: f64,
    /// Mean position error of the closing probe pass, meters.
    pub loc_err_m: f64,
    /// Resident memory at the end of the measured phase, MiB.
    pub rss_mb: f64,
    /// Per-layer metrics this workload measures.
    pub layers: Vec<Metric>,
    /// Spans recorded by the benchmark's own threads (traced runs).
    pub spans: Vec<Span>,
}

impl Outcome {
    /// Correct fixes of the measured phase.
    pub fn measured_ok(&self) -> usize {
        self.samples.iter().filter(|(_, us)| us.is_finite()).count()
    }
}

/// Resident set size of this process in MiB (`0` where `/proc` is
/// missing).
pub fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                let kb = line.strip_prefix("VmRSS:")?.trim().strip_suffix("kB")?;
                kb.trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A fully-resident server over fresh copies of every shard model, each
/// wrapped for tracing when a tracer is given.
///
/// # Errors
///
/// Hydration or start-up failures.
pub fn resident_server(fx: &Fixture, tracer: Option<&Arc<Tracer>>) -> Result<BatchServer, String> {
    let mut registry = ShardedRegistry::new();
    for (key, model) in fx.models()? {
        let model: Box<dyn Localizer> = match tracer {
            Some(t) => Box::new(TracedLocalizer::new(model, Arc::clone(t))),
            None => model,
        };
        registry.insert(key, model);
    }
    BatchServer::start(registry, noble_serve::BatchConfig::default())
        .map_err(|e| format!("start server: {e}"))
}

/// Waits until the server's queue and in-flight gauges read zero; a
/// gauge still up after a second is a violation.
pub fn check_quiescent(server: &BatchServer, out: &mut Outcome) {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let s = server.server_stats();
        if s.in_flight == 0 && s.queue_depth == 0 {
            return;
        }
        if Instant::now() > deadline {
            out.violations.push(format!(
                "gauges not back to zero: in_flight {} queue_depth {}",
                s.in_flight, s.queue_depth
            ));
            return;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Sends every probe through `client` and checks each answer with
/// `accept(probe index, answer)`. Sets `loc_err_m` to the mean error of
/// the accepted answers.
pub fn probe_pass(
    fx: &Fixture,
    client: &ServeClient,
    accept: impl Fn(usize, Point) -> bool,
    out: &mut Outcome,
) {
    let pending: Vec<_> = fx
        .probes
        .iter()
        .map(|p| client.submit(p.key, p.features.clone()))
        .collect();
    let mut errors = Vec::with_capacity(fx.probes.len());
    for (i, (probe, pending)) in fx.probes.iter().zip(pending).enumerate() {
        let answer = pending.and_then(|p| p.wait());
        let verdict = match answer {
            Ok(point) => Verdict::checked(accept(i, point)),
            Err(_) => Verdict::Failed,
        };
        out.counts.tally(verdict);
        if let (Verdict::Correct, Ok(point)) = (verdict, answer) {
            errors.push(point.distance(probe.truth));
        }
    }
    out.loc_err_m = mean(&errors);
}

/// Serving-tier per-layer metrics from the shard counters.
pub fn serve_layers(stats: &[(ShardKey, ShardStats)], submit_us: &[f64]) -> Vec<Metric> {
    let requests: u64 = stats.iter().map(|(_, s)| s.requests).sum();
    let batches: u64 = stats.iter().map(|(_, s)| s.batches).sum();
    let errors: u64 = stats.iter().map(|(_, s)| s.errors).sum();
    let latency_us: u128 = stats.iter().map(|(_, s)| s.total_latency_us).sum();
    let busy_us: u128 = stats.iter().map(|(_, s)| s.busy_us).sum();
    let per = |num: u128, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    vec![
        Metric::new("serve.mean_batch", "count", per(requests.into(), batches)),
        // Every rider of a batch waits out that batch's whole model call.
        Metric::new(
            "serve.wait_us_mean",
            "us",
            (per(latency_us, requests) - per(busy_us, batches)).max(0.0),
        ),
        Metric::new("serve.submit_us_p50", "us", pct_or_zero(submit_us, 50.0)),
        Metric::new("serve.errors", "count", errors as f64),
    ]
}

/// Model-layer metrics from the `model.localize_batch` spans that start
/// in `[from_ns, to_ns)`.
pub fn model_layers(spans: &[Span], from_ns: u64, to_ns: u64) -> Vec<Metric> {
    let calls: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "model.localize_batch" && (from_ns..to_ns).contains(&s.start_ns))
        .collect();
    let rows: u64 = calls.iter().map(|s| s.items).sum();
    let durations: Vec<f64> = calls.iter().map(|s| s.us()).collect();
    let total: f64 = durations.iter().sum();
    vec![
        Metric::new(
            "model.us_per_fix",
            "us",
            if rows == 0 { 0.0 } else { total / rows as f64 },
        ),
        Metric::new("model.call_us_p50", "us", pct_or_zero(&durations, 50.0)),
        Metric::new("model.calls", "count", calls.len() as f64),
        Metric::new("model.rows", "count", rows as f64),
    ]
}

/// Microseconds from `a` to `b` (zero when `b` is earlier).
pub fn us(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e6
}
