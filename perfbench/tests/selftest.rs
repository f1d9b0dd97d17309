//! Self-tests of the benchmark's own machinery: the percentile rule, the
//! seeded Poisson schedule, and the result line's names and shape.

use perfbench::report::{result_json, valid_name, Metric};
use perfbench::stats::{poisson_schedule, supported_percentile, Calm, Tail, MIN_KEPT_FIXES};
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::collections::BTreeSet;
use std::time::Duration;

#[test]
fn reports_the_highest_percentile_with_ten_samples_above_it() {
    assert_eq!(supported_percentile(0), None);
    assert_eq!(supported_percentile(19), None);
    assert_eq!(supported_percentile(20), Some(50.0));
    assert_eq!(supported_percentile(99), Some(50.0));
    assert_eq!(supported_percentile(100), Some(90.0));
    assert_eq!(supported_percentile(999), Some(90.0));
    assert_eq!(supported_percentile(1000), Some(99.0));
    assert_eq!(supported_percentile(9999), Some(99.0));
    assert_eq!(supported_percentile(10_000), Some(99.9));
}

#[test]
fn tail_is_capped_at_p99_and_counts_failures_above_any_limit() {
    let mut values: Vec<f64> = (1..=5000).map(f64::from).collect();
    let tail = Tail::of(&values).expect("5000 samples support a tail");
    assert_eq!(tail.tail_pct, 99.0);
    assert_eq!(tail.tail, 4950.0);
    assert_eq!(tail.p50, 2500.0);
    // Two percent failures push p99 to infinity.
    for v in values.iter_mut().take(100) {
        *v = f64::INFINITY;
    }
    assert!(Tail::of(&values).expect("tail").tail.is_infinite());

    let few = Tail::of(&[3.0; 150]).expect("150 samples support p90");
    assert_eq!(few.tail_pct, 90.0);
    assert_eq!(Tail::of(&[1.0; 10]), None);
}

#[test]
fn calm_windows_pool_their_fixes_and_leave_out_stolen_ones() {
    let mut samples = Vec::new();
    for w in 0..10 {
        for i in 0..2000 {
            let at = f64::from(w) + f64::from(i) / 2000.0;
            let latency = if w == 3 {
                50_000.0
            } else {
                1000.0 + f64::from(i % 100)
            };
            samples.push((at, latency));
        }
    }
    // A stall of the program itself is pooled with the rest: a tenth of
    // the fixes are slow, so p99 is slow.
    let c = Calm::of(&samples, 1.0, &[0.0; 10]).expect("every window is full");
    assert_eq!((c.windows, c.kept), (10, 10));
    assert_eq!(c.latency.count, 20_000);
    assert_eq!(c.latency.tail_pct, 99.0);
    assert_eq!(c.latency.tail, 50_000.0);
    assert!(c.latency.p50 < 1100.0, "{c:?}");
    assert_eq!(c.rate, 2000.0);
    // The same stall in a window the host stole from is left out.
    let mut stolen = [0.0; 10];
    stolen[3] = 0.2;
    let c = Calm::of(&samples, 1.0, &stolen).expect("full");
    assert_eq!(c.kept, 9);
    assert!(c.latency.tail < 1100.0, "{c:?}");
    // Too few calm fixes: the least stolen-from windows top them up.
    let stolen = [0.5, 0.1, 0.1, 0.01, 0.3, 0.3, 0.3, 0.3, 0.3, 0.05];
    let c = Calm::of(&samples, 1.0, &stolen).expect("full");
    assert_eq!(c.kept, MIN_KEPT_FIXES.div_ceil(2000));
    assert!(c.latency.tail > 1100.0, "window 3 is the calmest: {c:?}");
    // Fixes outside the windows do not count; no fixes, no median.
    assert_eq!(
        Calm::of(&samples, 1.0, &[0.0; 20]).map(|c| c.rate),
        Some(1000.0)
    );
    assert_eq!(Calm::of(&samples[2000..4000], 1.0, &[0.0]), None);
}

#[test]
fn poisson_schedule_is_seeded_and_keeps_its_rate() {
    let span = Duration::from_secs(50);
    let a = poisson_schedule(2000.0, span, 7);
    assert_eq!(a, poisson_schedule(2000.0, span, 7));
    assert_ne!(a, poisson_schedule(2000.0, span, 8));
    assert!(a.windows(2).all(|w| w[0] <= w[1]));
    assert!(a.last().is_some_and(|t| *t < span));
    let mean_gap = a.last().expect("non-empty").as_secs_f64() / a.len() as f64;
    let expected = 1.0 / 2000.0;
    assert!(
        (mean_gap - expected).abs() / expected < 0.02,
        "mean gap {mean_gap} vs {expected}"
    );
}

#[test]
fn metric_names_are_legal_and_unique() {
    let mut seen = BTreeSet::new();
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(valid_name(name), "{name}");
        assert!(seen.insert(*name), "{name} listed twice");
        assert!(!unit.is_empty() && unit.len() <= 16, "{name}: {unit}");
    }
    for bad in [
        "",
        ".lead",
        "has space",
        "quote\"",
        "slash/x",
        &"x".repeat(65),
    ] {
        assert!(!valid_name(bad), "{bad:?}");
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let metrics = vec![
        Metric::new("fix_p50_us", "us", 812.25),
        Metric::new("setup_s", "s", 1.5),
    ];
    let line = result_json(true, 1000, 0, &metrics).expect("valid result");
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, \"metrics\": {\
         \"fix_p50_us\": {\"value\": 812.25, \"unit\": \"us\"}, \
         \"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
    );
    assert!(result_json(true, 1, 0, &[Metric::new("bad name", "us", 1.0)]).is_err());
    assert!(result_json(true, 1, 0, &[Metric::new("nan", "us", f64::NAN)]).is_err());
    let twice = [Metric::new("a", "us", 1.0), Metric::new("a", "us", 2.0)];
    assert!(result_json(true, 1, 0, &twice).is_err());
}

#[test]
fn benchmark_json_lists_what_the_command_reports() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let names: Vec<&str> = WORKLOADS
        .iter()
        .chain(END_TO_END.iter().map(|(n, _)| n))
        .chain(PER_LAYER.iter().map(|(n, _)| n))
        .copied()
        .collect();
    for name in &names {
        assert!(
            json.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(json.matches("\"name\":").count(), names.len());
}
