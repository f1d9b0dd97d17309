//! `paged-track`: closed loop against `BatchServer::start_paged`, with
//! per-device tracking and live refresh running beside the reads.
//!
//! Twelve spec-registered shards sit in a catalog that keeps four hot,
//! over a pre-populated `MemStore`: faults hydrate from it, activations
//! archive to it. Devices are pinned to shards with Zipf-skewed
//! popularity, and every raw fix goes through `SessionTable::observe` —
//! the composition `TrackingClient::submit` runs, assembled here because
//! the tracking server exposes no refresher. One driver thread posts
//! seeded corrections and refreshes the most popular shards in turn on a
//! fixed schedule while serving continues, and sweeps the session table
//! in between.
//!
//! Every answer is checked bit-for-bit. After each refresh the driver
//! reads the new version back from the store and computes its reference
//! answers; a fix may match the previous generation only while the swap
//! can still be in progress.

use super::{check_quiescent, probe_pass, rss_mb, serve_layers, us};
use super::{Counts, Opts, Outcome, Verdict};
use crate::report::Metric;
use crate::setup::{same_bits, Fixture};
use crate::stats::{pct_or_zero, Rng, Zipf};
use crate::trace::{Span, TracedStore, Tracer};
use noble::wifi::tracking::SmootherConfig;
use noble::Localizer;
use noble_geo::{Point, ZoneSet};
use noble_serve::{
    BatchConfig, BatchServer, CatalogBudget, MemStore, ModelCatalog, ModelStore, RefreshConfig,
    SessionTable, ShardKey, TrainSpec,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Models the catalog keeps hot at once.
const HOT_SHARDS: usize = 4;

/// Tracked devices.
const DEVICES: usize = 3000;

/// Zipf exponent of shard popularity.
const ZIPF_S: f64 = 2.0;

/// Fixes each load thread keeps in flight.
const WINDOW: usize = 16;

/// Refresh cycles per run, evenly spread over the measured phase; cycle
/// `k` retrains the `k`-th most popular shard, so every refresh swaps a
/// model that is serving.
const REFRESHES: usize = 4;

/// Corrections posted before each refresh.
const CORRECTIONS: usize = 24;

/// Session sweep period.
const SWEEP_EVERY: Duration = Duration::from_millis(200);

/// Logical-time units (fixes) a device may stay silent before a sweep
/// marks it away.
const AWAY_TICKS: u64 = 10_000;

/// How long after a refresh returns a fix may still be answered by the
/// shard's previous generation: a batch that took its model before the
/// swap keeps admitting fixes for up to the batching budget, or longer
/// when its worker is descheduled.
const SWAP_GRACE: Duration = Duration::from_secs(1);

/// The reference answers one shard's fixes are checked against: one set
/// per generation, generation 0 being the offline model and generation
/// `g` the model the shard's `g`-th refresh activated.
struct Generations {
    /// Index of the shard's first probe; its probes are contiguous.
    first: usize,
    state: Mutex<GenState>,
}

struct GenState {
    /// Reference answers of each known generation, in probe order.
    refs: Vec<Vec<Point>>,
    /// When each generation after the first became known.
    settled: Vec<Instant>,
    /// Refreshes started: the newest generation that may be serving.
    started: usize,
}

impl Generations {
    fn new(fx: &Fixture, key: ShardKey) -> Self {
        let ids = &fx.probes_of[&key];
        Generations {
            first: ids[0],
            state: Mutex::new(GenState {
                refs: vec![ids.iter().map(|&i| fx.probes[i].reference).collect()],
                settled: Vec::new(),
                started: 0,
            }),
        }
    }

    fn lock(&self) -> MutexGuard<'_, GenState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The oldest generation that may answer a fix submitted at `now`.
    fn oldest(&self, now: Instant) -> usize {
        let state = self.lock();
        state
            .settled
            .iter()
            .filter(|&&t| t + SWAP_GRACE <= now)
            .count()
    }

    /// Checks `answer` to `probe` against generations `lo` up to the
    /// newest started; `Err(newest)` when it matches no known generation
    /// but one it may come from is still being built.
    fn check(&self, probe: usize, answer: Point, lo: usize) -> Result<bool, usize> {
        let state = self.lock();
        let hi = state.started;
        if Self::matches(&state, probe - self.first, answer, lo, hi) {
            Ok(true)
        } else if hi >= state.refs.len() {
            Err(hi)
        } else {
            Ok(false)
        }
    }

    /// Whether `answer` matches generation `lo..=hi` (as far as known) at
    /// the shard's `local`-th probe.
    fn matches(state: &GenState, local: usize, answer: Point, lo: usize, hi: usize) -> bool {
        let known = hi.min(state.refs.len() - 1);
        state.refs[lo.min(known)..=known]
            .iter()
            .any(|refs| same_bits(refs[local], answer))
    }

    /// Whether `answer` to `probe` is the newest generation's.
    fn newest_matches(&self, probe: usize, answer: Point) -> bool {
        let state = self.lock();
        let newest = state.refs.len() - 1;
        Self::matches(&state, probe - self.first, answer, newest, newest)
    }
}

/// The reference answers of `key`'s probes under the archived `version`.
fn version_references(
    fx: &Fixture,
    store: &MemStore,
    key: ShardKey,
    version: u64,
) -> Result<Vec<Point>, String> {
    let snapshot = store
        .get_version(key, version)
        .map_err(|e| format!("read back {key} v{version}: {e}"))?
        .ok_or_else(|| format!("{key} v{version} was activated but not archived"))?;
    let mut model =
        noble::hydrate(&snapshot).map_err(|e| format!("hydrate {key} v{version}: {e}"))?;
    let shard = &fx.shards[&key];
    model
        .localize_batch(&shard.features(&shard.test))
        .map_err(|e| format!("references of {key} v{version}: {e}"))
}

/// A fix whose check waits until every generation it may come from is
/// known.
struct Deferred {
    probe: usize,
    answer: Point,
    lo: usize,
    hi: usize,
    /// Its entry in the thread's samples, when measured.
    sample: Option<usize>,
}

/// One load thread's tallies.
#[derive(Default)]
struct Tally {
    counts: Counts,
    samples: Vec<(f64, f64)>,
    cold_us: Vec<f64>,
    warm_us: Vec<f64>,
    submit_us: Vec<f64>,
    observe_us: Vec<f64>,
    events: u64,
    spans: Vec<Span>,
    deferred: Vec<Deferred>,
}

/// The refresh driver's tallies.
#[derive(Default)]
struct Driver {
    refresh_ms: Vec<f64>,
    correction_us: Vec<f64>,
    sweep_us: Vec<f64>,
    events: u64,
    errors: Vec<String>,
}

/// Raises a stop flag when dropped.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Relaxed);
    }
}

/// Runs the workload.
///
/// # Errors
///
/// Start-up failures; failed or wrong fixes are counted instead.
pub fn run(fx: &Fixture, opts: &Opts, tracer: Option<&Arc<Tracer>>) -> Result<Outcome, String> {
    let store = Arc::new(MemStore::new());
    for (key, snapshot) in &fx.snapshots {
        store
            .put(*key, snapshot)
            .map_err(|e| format!("populate store: {e}"))?;
    }
    let mut catalog = ModelCatalog::with_store(
        CatalogBudget::Count(HOT_SHARDS),
        Box::new(TracedStore::new(Arc::clone(&store), tracer.cloned())),
    )
    .map_err(|e| format!("catalog: {e}"))?;
    for (key, shard) in &fx.shards {
        catalog.register_spec(
            *key,
            TrainSpec::Wifi {
                campaign: shard.clone(),
                cfg: fx.cfg.clone(),
            },
        );
    }
    let cfg = BatchConfig {
        away_timeout: Some(AWAY_TICKS),
        ..BatchConfig::default()
    };
    let zones =
        ZoneSet::building_grid(&fx.campaign.map, 2, 2).map_err(|e| format!("zones: {e}"))?;
    let sessions = SessionTable::new(
        zones,
        Some(fx.campaign.map.clone()),
        SmootherConfig::default(),
        &cfg,
    )
    .map_err(|e| format!("sessions: {e}"))?;
    let server = BatchServer::start_paged(catalog, cfg).map_err(|e| format!("start: {e}"))?;
    let refresher = server
        .refresher(RefreshConfig::default())
        .map_err(|e| format!("refresher: {e}"))?;

    // Devices pinned to shards by Zipf popularity: the n-th shard in key
    // order is the n-th most popular, so every seed pages alike.
    let keys: Vec<ShardKey> = fx.shards.keys().copied().collect();
    let mut rng = Rng::new(opts.seed, 5);
    let zipf = Zipf::new(keys.len(), ZIPF_S);
    let device_shard: Vec<ShardKey> = (0..DEVICES).map(|_| keys[zipf.sample(&mut rng)]).collect();
    let gens: BTreeMap<ShardKey, Generations> =
        keys.iter().map(|&k| (k, Generations::new(fx, k))).collect();

    let tick = AtomicU64::new(0);
    let stop = AtomicBool::new(false);
    let begin = Instant::now() + opts.warmup;
    let end = begin + opts.measure;

    let (tallies, driver) = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..opts.threads)
            .map(|t| {
                let client = server.client();
                let (sessions, tick, stop, device_shard) = (&sessions, &tick, &stop, &device_shard);
                let gens = &gens;
                scope.spawn(move || {
                    let mine: Vec<usize> = (t..DEVICES).step_by(opts.threads).collect();
                    let mut rng = Rng::new(opts.seed, 200 + t as u64);
                    let mut tally = Tally::default();
                    let mut window = VecDeque::with_capacity(WINDOW);
                    loop {
                        while !stop.load(Ordering::Relaxed) && window.len() < WINDOW {
                            let device = mine[rng.below(mine.len())];
                            let key = device_shard[device];
                            let ids = &fx.probes_of[&key];
                            let probe = ids[rng.below(ids.len())];
                            let at = tick.fetch_add(1, Ordering::Relaxed) + 1;
                            let t0 = Instant::now();
                            let lo = gens[&key].oldest(t0);
                            let pending = client.submit(key, fx.probes[probe].features.clone());
                            let t1 = Instant::now();
                            window.push_back((device, probe, at, lo, t0, t1, pending));
                        }
                        // FIFO completion keeps each device's observations
                        // in logical-time order.
                        let Some((device, probe, at, lo, t0, t1, pending)) = window.pop_front()
                        else {
                            break;
                        };
                        let p = &fx.probes[probe];
                        let (cold, answer) = match pending {
                            Ok(pending) => (pending.cold(), pending.wait()),
                            Err(e) => (false, Err(e)),
                        };
                        let mut verdict = Verdict::Failed;
                        let mut observed = None;
                        let mut deferred = None;
                        if let Ok(raw) = answer {
                            // Read after the answer: a refresh counts as
                            // started before it can activate a new version.
                            verdict = match gens[&p.key].check(probe, raw, lo) {
                                Ok(ok) => Verdict::checked(ok),
                                Err(hi) => {
                                    deferred = Some((raw, hi));
                                    Verdict::Correct
                                }
                            };
                            let o0 = Instant::now();
                            let (smoothed, _, events) = sessions.observe(device as u64, at, raw);
                            observed = Some((o0, Instant::now()));
                            if !(smoothed.x.is_finite() && smoothed.y.is_finite()) {
                                verdict = Verdict::Wrong;
                            }
                            tally.events += events.len() as u64;
                        }
                        let done = Instant::now();
                        let measured = (begin..=end).contains(&done);
                        match deferred {
                            Some((answer, hi)) if verdict == Verdict::Correct => {
                                tally.deferred.push(Deferred {
                                    probe,
                                    answer,
                                    lo,
                                    hi,
                                    sample: measured.then_some(tally.samples.len()),
                                });
                            }
                            _ => tally.counts.tally(verdict),
                        }
                        if !measured {
                            continue;
                        }
                        tally.submit_us.push(us(t0, t1));
                        if verdict != Verdict::Correct {
                            tally.samples.push((us(begin, done) / 1e6, f64::INFINITY));
                            continue;
                        }
                        tally.samples.push((us(begin, done) / 1e6, us(t0, done)));
                        if cold {
                            tally.cold_us.push(us(t0, done));
                        } else {
                            tally.warm_us.push(us(t0, done));
                        }
                        if let Some((o0, o1)) = observed {
                            tally.observe_us.push(us(o0, o1));
                            if let Some(tracer) = tracer {
                                let root = tracer.id();
                                let request = ((t as u64) << 40) | tally.counts.attempted;
                                tally.spans.extend([
                                    tracer.span("fix", root, 0, request, t0, done),
                                    tracer.span("serve.submit", tracer.id(), root, request, t0, t1),
                                    tracer.span(
                                        "session.observe",
                                        tracer.id(),
                                        root,
                                        request,
                                        o0,
                                        o1,
                                    ),
                                ]);
                            }
                        }
                    }
                    tally
                })
            })
            .collect();

        let driver = scope.spawn(|| {
            // Load threads stop when this thread ends, even by a panic.
            let _stop = StopOnDrop(&stop);
            let mut d = Driver::default();
            let mut rng = Rng::new(opts.seed, 7);
            let period = opts.measure / (REFRESHES as u32 + 1);
            let due = |cycle: usize| begin + period * (cycle as u32 + 1);
            let mut next_sweep = Instant::now() + SWEEP_EVERY;
            for cycle in 0..=REFRESHES {
                let until = if cycle < REFRESHES { due(cycle) } else { end };
                loop {
                    let now = Instant::now();
                    if now >= until {
                        break;
                    }
                    if now >= next_sweep {
                        let events = sessions.sweep(tick.load(Ordering::Relaxed));
                        d.sweep_us.push(us(now, Instant::now()));
                        d.events += events.len() as u64;
                        next_sweep = Instant::now() + SWEEP_EVERY;
                    }
                    std::thread::sleep(
                        until
                            .min(next_sweep)
                            .saturating_duration_since(Instant::now()),
                    );
                }
                if cycle == REFRESHES {
                    break;
                }
                let key = keys[cycle % keys.len()];
                let val = &fx.shards[&key].val;
                let mut cycle_body = || {
                    for _ in 0..CORRECTIONS {
                        let sample = &val[rng.below(val.len())];
                        let t0 = Instant::now();
                        let posted =
                            refresher.observe_correction(key, sample.rssi.clone(), sample.position);
                        d.correction_us.push(us(t0, Instant::now()));
                        if let Err(e) = posted {
                            d.errors.push(format!("observe_correction {key}: {e}"));
                        }
                    }
                    gens[&key].lock().started += 1;
                    let t0 = Instant::now();
                    let result = match tracer {
                        Some(t) => t.within("refresh.refresh", || refresher.refresh(key)),
                        None => refresher.refresh(key),
                    };
                    d.refresh_ms.push(us(t0, Instant::now()) / 1e3);
                    let refs = result
                        .map_err(|e| format!("refresh {key}: {e}"))
                        .and_then(|r| version_references(fx, &store, key, r.version));
                    match refs {
                        Ok(refs) => {
                            let mut state = gens[&key].lock();
                            state.refs.push(refs);
                            state.settled.push(Instant::now());
                        }
                        Err(e) => d.errors.push(e),
                    }
                };
                match tracer {
                    Some(t) => t.within("refresh.cycle", cycle_body),
                    None => cycle_body(),
                }
            }
            d
        });
        let tallies: Vec<Option<Tally>> = handles.into_iter().map(|h| h.join().ok()).collect();
        (tallies, driver.join().ok())
    });
    let rss = rss_mb();
    let mut out = Outcome {
        begin: Some(begin),
        measured_s: opts.measure.as_secs_f64(),
        rss_mb: rss,
        ..Outcome::default()
    };
    let driver = driver.unwrap_or_else(|| Driver {
        errors: vec!["the refresh driver panicked".into()],
        ..Driver::default()
    });
    out.violations.extend(driver.errors.iter().cloned());
    let mut t_all = Tally::default();
    for t in tallies {
        let Some(mut t) = t else {
            out.violations.push("a load thread panicked".into());
            continue;
        };
        // Every refresh has returned: check what had to wait for one.
        for d in t.deferred.drain(..) {
            let gens = &gens[&fx.probes[d.probe].key];
            let local = d.probe - gens.first;
            let ok = Generations::matches(&gens.lock(), local, d.answer, d.lo, d.hi);
            t.counts.tally(Verdict::checked(ok));
            if let (false, Some(i)) = (ok, d.sample) {
                t.samples[i].1 = f64::INFINITY;
            }
        }
        t_all.counts.add(t.counts);
        t_all.samples.extend(t.samples);
        t_all.cold_us.extend(t.cold_us);
        t_all.warm_us.extend(t.warm_us);
        t_all.submit_us.extend(t.submit_us);
        t_all.observe_us.extend(t.observe_us);
        t_all.events += t.events;
        t_all.spans.extend(t.spans);
    }
    out.counts = t_all.counts;
    out.samples = t_all.samples;
    out.spans = t_all.spans;
    if out.measured_ok() == 0 {
        out.violations
            .push("no fix completed in the measured phase".into());
    }

    check_quiescent(&server, &mut out);
    let shards = server.stats();
    let paged = server
        .paged_stats()
        .ok_or("a paged server reported no paging counters")?;
    // The probe pass runs once the last swap is complete, so every shard
    // answers from its newest generation and the pass is deterministic.
    let last_swap = gens
        .values()
        .filter_map(|g| g.lock().settled.last().copied())
        .max();
    if let Some(last) = last_swap {
        std::thread::sleep((last + SWAP_GRACE).saturating_duration_since(Instant::now()));
    }
    probe_pass(
        fx,
        &server.client(),
        |i, answer| gens[&fx.probes[i].key].newest_matches(i, answer),
        &mut out,
    );
    server.shutdown();

    let fixes = t_all.cold_us.len() + t_all.warm_us.len();
    out.layers = serve_layers(&shards, &t_all.submit_us);
    out.layers.extend([
        Metric::new("catalog.faults", "count", paged.faults as f64),
        Metric::new("catalog.drains", "count", paged.drains as f64),
        // Per fix: the share that found its shard hot. (The catalog's own
        // hit counter only counts leases of parked models, which a
        // store-backed catalog almost never has.)
        Metric::new(
            "catalog.hit_ratio",
            "ratio",
            if fixes == 0 {
                0.0
            } else {
                t_all.warm_us.len() as f64 / fixes as f64
            },
        ),
        Metric::new(
            "catalog.cold_fix_us_p50",
            "us",
            pct_or_zero(&t_all.cold_us, 50.0),
        ),
        Metric::new(
            "catalog.warm_fix_us_p50",
            "us",
            pct_or_zero(&t_all.warm_us, 50.0),
        ),
        Metric::new(
            "session.observe_us_p50",
            "us",
            pct_or_zero(&t_all.observe_us, 50.0),
        ),
        Metric::new(
            "session.sweep_us_p50",
            "us",
            pct_or_zero(&driver.sweep_us, 50.0),
        ),
        Metric::new(
            "session.events",
            "count",
            (t_all.events + driver.events) as f64,
        ),
        Metric::new(
            "refresh.observe_us_p50",
            "us",
            pct_or_zero(&driver.correction_us, 50.0),
        ),
        Metric::new("refresh.swaps", "count", paged.refresh_swaps as f64),
        Metric::new("refresh.count", "count", driver.refresh_ms.len() as f64),
        Metric::new(
            "refresh.ms_p50",
            "ms",
            pct_or_zero(&driver.refresh_ms, 50.0),
        ),
    ]);
    if let Some(tracer) = tracer {
        let spans = tracer.spans();
        let timed = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(Span::us)
                .collect()
        };
        let (gets, puts, put_versions) = (
            timed("store.get"),
            timed("store.put"),
            timed("store.put_version"),
        );
        out.layers.extend([
            Metric::new("store.get_us_p50", "us", pct_or_zero(&gets, 50.0)),
            Metric::new("store.put_us_p50", "us", pct_or_zero(&puts, 50.0)),
            Metric::new(
                "store.put_version_us_p50",
                "us",
                pct_or_zero(&put_versions, 50.0),
            ),
            Metric::new("store.gets", "count", gets.len() as f64),
            Metric::new(
                "store.puts",
                "count",
                (puts.len() + put_versions.len()) as f64,
            ),
        ]);
    }
    Ok(out)
}
