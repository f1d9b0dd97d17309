//! The benchmark command.
//!
//! ```text
//! perfbench --workload <wire-steady|paged-track> --seed <n>
//!           --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! Sets up (three times; `setup_s` is the median), runs the workload, and
//! checks every answer. `--trace 0` reports the end-to-end metrics;
//! latency and throughput cover the measured phase's calm windows, those
//! in which the host stole no CPU time (see `Calm::of`).
//! `--trace 1` runs the workload twice — untraced, then with spans around
//! every call into a layer — and reports the per-layer metrics, the
//! tracing overhead between the two, and writes the spans and each
//! layer's self time under `--out` (default `.bench_out`). The last line
//! of standard output is the JSON result; the exit code is non-zero when
//! any answer is wrong or any invariant breaks.

use perfbench::host::{StealLog, StealSampler};
use perfbench::report::{result_json, Metric};
use perfbench::setup::{Env, Fixture, SetupTiming};
use perfbench::stats::{median, Calm, Tail};
use perfbench::trace::{self_times, write_spans, Tracer};
use perfbench::workloads::{paged, wire, Opts, Outcome};
use perfbench::{END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Unmeasured lead-in before every measured phase.
const WARMUP: Duration = Duration::from_secs(1);

/// Width of the windows the host-steal filter judges a phase in.
const WINDOW: Duration = Duration::from_millis(250);

/// A run that has not finished by now is stopped: the benchmark must
/// end within 180 seconds.
const WATCHDOG: Duration = Duration::from_secs(170);

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut out = PathBuf::from(".bench_out");
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()? != 0),
            "--out" => out = PathBuf::from(&value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
        out,
    })
}

fn run_workload(
    fx: &Fixture,
    opts: &Opts,
    workload: &str,
    tracer: Option<&Arc<Tracer>>,
) -> Result<Outcome, String> {
    match workload {
        "wire-steady" => wire::run(fx, opts, tracer),
        "paged-track" => paged::run(fx, opts, tracer),
        other => Err(format!("unknown workload {other}")),
    }
}

/// Latency and throughput of a run's measured phase over its calm
/// windows (see [`Calm::of`]); the whole phase's figures are printed
/// beside them. Also returns the stolen share of the whole phase.
fn calm(outcome: &Outcome, host: &StealLog, label: &str) -> Result<(Calm, f64), String> {
    let windows = ((outcome.measured_s / WINDOW.as_secs_f64()).round() as usize).max(1);
    let begin = outcome
        .begin
        .ok_or("the run did not record its measured phase")?;
    let stolen = |from: Instant, to: Instant| host.share(from, to).unwrap_or(0.0);
    let per_window: Vec<f64> = (0..windows)
        .map(|w| {
            let from = begin + WINDOW * w as u32;
            stolen(from, from + WINDOW)
        })
        .collect();
    let steal = stolen(begin, begin + WINDOW * windows as u32);
    let whole: Vec<f64> = outcome.samples.iter().map(|&(_, us)| us).collect();
    let tail = Tail::of(&whole).ok_or("too few measured fixes to report a median")?;
    let c = Calm::of(&outcome.samples, WINDOW.as_secs_f64(), &per_window)
        .ok_or("the calm windows hold too few fixes to report a median")?;
    println!(
        "{label} fix latency, whole phase: n={} p50={:.1}us p{}={:.1}us {:.1} fixes/s; {} of {} calm windows: n={} p50={:.1}us p{}={:.1}us {:.1} fixes/s; host steal {:.1}%",
        tail.count,
        tail.p50,
        tail.tail_pct,
        tail.tail,
        outcome.measured_ok() as f64 / outcome.measured_s,
        c.kept,
        c.windows,
        c.latency.count,
        c.latency.p50,
        c.latency.tail_pct,
        c.latency.tail,
        c.rate,
        steal * 100.0
    );
    Ok((c, steal))
}

/// The end-to-end metrics of an untraced run.
fn end_to_end(
    outcome: &Outcome,
    host: &StealLog,
    setups: &[SetupTiming],
) -> Result<Vec<Metric>, String> {
    let (c, _) = calm(outcome, host, "untraced")?;
    let setup = median(&setups.iter().map(|t| t.total_s).collect::<Vec<_>>());
    let values = [
        c.latency.p50,
        c.latency.tail,
        c.rate,
        outcome.loc_err_m,
        outcome.rss_mb,
        setup,
    ];
    Ok(END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    std::thread::spawn(|| {
        std::thread::sleep(WATCHDOG);
        eprintln!("perfbench: still running after {WATCHDOG:?}; stopping");
        std::process::exit(3);
    });
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

/// Runs the benchmark; `Ok(false)` when a check failed.
fn run(args: &Args) -> Result<bool, String> {
    let env = Env::pin(args.seed);
    println!("env {}", env.json());
    let (fx, setups) = Fixture::build_repeated(args.seed, env.load_threads)?;
    let opts = Opts {
        seed: args.seed,
        warmup: WARMUP,
        measure: Duration::from_secs(args.seconds),
        threads: env.load_threads,
    };
    let sampler = StealSampler::start();
    let untraced = run_workload(&fx, &opts, &args.workload, None);
    let host = sampler.finish();
    let untraced = untraced?;
    let mut counts = untraced.counts;
    let mut violations = untraced.violations.clone();

    let metrics = if args.trace {
        let tracer = Tracer::new();
        let sampler = StealSampler::start();
        let traced = run_workload(&fx, &opts, &args.workload, Some(&tracer));
        let traced_host = sampler.finish();
        let traced = traced?;
        counts.add(traced.counts);
        violations.extend(traced.violations.iter().cloned());
        tracer.extend(traced.spans.clone());
        let runs = [(&untraced, &host), (&traced, &traced_host)];
        layer_metrics(args, runs, &tracer, &setups)?
    } else {
        end_to_end(&untraced, &host, &setups)?
    };

    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    // A refusal or typed error is a failed attempt; a wrong answer or a
    // broken invariant makes the whole run incorrect.
    let correct = counts.wrong == 0 && violations.is_empty();
    for v in &violations {
        println!("INVARIANT BROKEN: {v}");
    }
    println!(
        "failed_frac = {} ({} of {} attempts failed or were refused; {} answered wrongly)",
        counts.failed as f64 / counts.attempted.max(1) as f64,
        counts.failed,
        counts.attempted,
        counts.wrong
    );
    let line = result_json(correct, counts.attempted, counts.failed, &metrics)?;
    write_summary(args, &env, &line)?;
    println!("{line}");
    Ok(correct)
}

/// The per-layer metrics of a traced run, in [`PER_LAYER`] order; the
/// span file and self-time table are written on the way.
fn layer_metrics(
    args: &Args,
    [(untraced, untraced_host), (traced, traced_host)]: [(&Outcome, &StealLog); 2],
    tracer: &Tracer,
    setups: &[SetupTiming],
) -> Result<Vec<Metric>, String> {
    let (base, _) = calm(untraced, untraced_host, "untraced")?;
    let (with, steal) = calm(traced, traced_host, "traced")?;
    let spans = tracer.spans();
    let pct = |a: f64, b: f64| if a == 0.0 { 0.0 } else { (b - a) / a * 100.0 };
    let setup_median =
        |f: fn(&SetupTiming) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let mut measured = traced.layers.clone();
    measured.extend([
        Metric::new("setup.campaign_s", "s", setup_median(|t| t.campaign_s)),
        Metric::new("setup.train_s", "s", setup_median(|t| t.train_s)),
        Metric::new("setup.reference_s", "s", setup_median(|t| t.reference_s)),
        Metric::new("fix.samples", "count", traced.samples.len() as f64),
        Metric::new(
            "fix.failed_frac",
            "ratio",
            traced.counts.failed as f64 / traced.counts.attempted.max(1) as f64,
        ),
        Metric::new(
            "trace.overhead_p50_pct",
            "%",
            pct(base.latency.p50, with.latency.p50),
        ),
        Metric::new("trace.overhead_tput_pct", "%", -pct(base.rate, with.rate)),
        Metric::new("trace.spans", "count", spans.len() as f64),
        Metric::new("host.steal_pct", "%", steal * 100.0),
        Metric::new("host.windows_kept", "count", with.kept as f64),
    ]);
    if let Some(m) = measured
        .iter()
        .find(|m| !PER_LAYER.contains(&(m.name.as_str(), m.unit)))
    {
        return Err(format!(
            "metric {} ({}) is not in the per-layer catalog",
            m.name, m.unit
        ));
    }

    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let span_file = args.out.join(format!("{stem}.spans.tsv"));
    write_spans(&span_file, &spans).map_err(|e| format!("{}: {e}", span_file.display()))?;
    println!("spans: {} written to {}", spans.len(), span_file.display());
    let mut table = format!(
        "{:<24} {:>10} {:>14} {:>14}\n",
        "span", "calls", "total_us", "self_us"
    );
    for (name, t) in self_times(&spans) {
        table += &format!(
            "{name:<24} {:>10} {:>14.0} {:>14.0}\n",
            t.calls, t.total_us, t.self_us
        );
    }
    print!("{table}");
    let self_file = args.out.join(format!("{stem}.selftime.txt"));
    std::fs::write(&self_file, table).map_err(|e| format!("{}: {e}", self_file.display()))?;

    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            measured
                .iter()
                .find(|m| m.name == name)
                .cloned()
                .unwrap_or_else(|| Metric::new(name, unit, 0.0))
        })
        .collect())
}

/// Keeps the result with its environment under `--out`.
fn write_summary(args: &Args, env: &Env, line: &str) -> Result<(), String> {
    std::fs::create_dir_all(&args.out).map_err(|e| format!("{}: {e}", args.out.display()))?;
    let path = args.out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    let body = format!(
        "{{\"workload\": \"{}\", \"seconds\": {}, \"env\": {}, \"result\": {line}}}\n",
        args.workload,
        args.seconds,
        env.json()
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}
