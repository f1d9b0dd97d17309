//! Set-up shared by every workload: the pinned environment, the seeded
//! paper-scale campaign, one trained model per building-floor shard, and
//! the reference answer of every probe.

use crate::report::json_string;
use crate::stats::Rng;
use noble::wifi::{WifiNoble, WifiNobleConfig};
use noble::{Localizer, ModelSnapshot};
use noble_datasets::{uji_campaign, UjiConfig, WifiCampaign, WifiSample};
use noble_geo::Point;
use noble_serve::{partition_campaign, shard_seed, ShardKey, ShardPolicy};
use std::collections::BTreeMap;
use std::time::Instant;

/// Threads the linalg kernels use: one, so each shard worker runs its
/// batch on its own core and timings do not depend on the core count.
const LINALG_THREADS: usize = 1;

/// Load (and training) threads never exceed this, nor the core count.
const MAX_LOAD_THREADS: usize = 2;

/// Training epochs. Serving cost depends on the model's shape, not on
/// how long it trained, so set-up trains briefly.
const EPOCHS: usize = 4;

/// Full set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// The environment a result was measured in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Env {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Load-generating threads the workloads use.
    pub load_threads: usize,
    /// `noble_linalg::set_num_threads` value.
    pub linalg_threads: usize,
    /// The `--seed` argument.
    pub seed: u64,
    /// Git revision of the checkout, when it has one.
    pub git_rev: String,
}

impl Env {
    /// Pins the thread counts and records the environment.
    pub fn pin(seed: u64) -> Self {
        noble_linalg::set_num_threads(LINALG_THREADS);
        let nproc = std::thread::available_parallelism().map_or(1, usize::from);
        Env {
            nproc,
            load_threads: nproc.min(MAX_LOAD_THREADS),
            linalg_threads: LINALG_THREADS,
            seed,
            git_rev: git_rev(),
        }
    }

    /// The environment as a JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"load_threads\": {}, \"linalg_threads\": {}, \"seed\": {}, \"git_rev\": {}}}",
            self.nproc,
            self.load_threads,
            self.linalg_threads,
            self.seed,
            json_string(&self.git_rev)
        )
    }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a repository.
fn git_rev() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// One probe fingerprint with its ground truth and reference answer.
#[derive(Debug, Clone, PartialEq)]
pub struct Probe {
    /// Owning shard.
    pub key: ShardKey,
    /// Normalized fingerprint, as served.
    pub features: Vec<f64>,
    /// Surveyed position.
    pub truth: Point,
    /// The shard model's answer from a direct `localize_batch` call.
    pub reference: Point,
}

impl Probe {
    /// Whether `answer` is bit-identical to the reference.
    pub fn matches(&self, answer: Point) -> bool {
        same_bits(answer, self.reference)
    }
}

/// Whether two answers are bit-identical.
pub fn same_bits(a: Point, b: Point) -> bool {
    a.x.to_bits() == b.x.to_bits() && a.y.to_bits() == b.y.to_bits()
}

/// How long each part of one set-up took, seconds.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SetupTiming {
    /// Campaign generation and partitioning.
    pub campaign_s: f64,
    /// Training every shard and snapshotting it.
    pub train_s: f64,
    /// Reference answers for every probe.
    pub reference_s: f64,
    /// The whole set-up.
    pub total_s: f64,
}

/// One shard's freshly hydrated model.
pub type ShardModel = (ShardKey, Box<dyn Localizer>);

/// Everything the workloads serve and check against.
#[derive(Debug, Clone)]
pub struct Fixture {
    /// The whole campaign (its map places tracking zones).
    pub campaign: WifiCampaign,
    /// Per-shard campaigns, as the training specs hold them.
    pub shards: BTreeMap<ShardKey, WifiCampaign>,
    /// Model configuration; `seed` is the base the shard seeds derive from.
    pub cfg: WifiNobleConfig,
    /// Every trained shard model.
    pub snapshots: BTreeMap<ShardKey, ModelSnapshot>,
    /// Probes over every shard, in shard order.
    pub probes: Vec<Probe>,
    /// Probe indices per shard.
    pub probes_of: BTreeMap<ShardKey, Vec<usize>>,
}

impl Fixture {
    /// Builds the fixture `SETUP_REPS` times, checks every build is
    /// identical, and returns the last with each build's timing.
    ///
    /// # Errors
    ///
    /// A failed build, or two builds that differ.
    pub fn build_repeated(
        seed: u64,
        threads: usize,
    ) -> Result<(Fixture, Vec<SetupTiming>), String> {
        let mut timings = Vec::with_capacity(SETUP_REPS);
        let mut last: Option<Fixture> = None;
        for _ in 0..SETUP_REPS {
            let (fixture, timing) = Fixture::build(seed, threads)?;
            if let Some(prev) = &last {
                if prev.snapshots != fixture.snapshots || prev.probes != fixture.probes {
                    return Err("two set-ups from one seed built different models".into());
                }
            }
            timings.push(timing);
            last = Some(fixture);
        }
        let fixture = last.ok_or("no set-up ran")?;
        Ok((fixture, timings))
    }

    /// One set-up: campaign, training, references.
    ///
    /// # Errors
    ///
    /// Campaign, training or inference failures.
    pub fn build(seed: u64, threads: usize) -> Result<(Fixture, SetupTiming), String> {
        let t0 = Instant::now();
        let campaign = uji_campaign(&UjiConfig {
            seed: Rng::new(seed, 1).next_u64(),
            ..UjiConfig::default()
        })
        .map_err(|e| format!("campaign: {e}"))?;
        let shards = partition_campaign(
            &campaign,
            |s: &WifiSample| ShardPolicy::PerBuildingFloor.key_of(s),
            None,
        );
        let cfg = WifiNobleConfig {
            tau: 1.0,
            coarse_l: Some(8.0),
            hidden_dim: 128,
            epochs: EPOCHS,
            patience: None,
            seed: Rng::new(seed, 2).next_u64(),
            ..WifiNobleConfig::default()
        };
        let t1 = Instant::now();
        let mut models = train_shards(&shards, &cfg, threads)?;
        let mut snapshots = BTreeMap::new();
        for (key, model) in &models {
            let snapshot = model
                .try_snapshot()
                .ok_or_else(|| format!("shard {key} cannot snapshot"))?;
            snapshots.insert(*key, snapshot);
        }
        let t2 = Instant::now();
        let mut probes = Vec::new();
        let mut probes_of = BTreeMap::new();
        for (key, shard) in &shards {
            let model = models
                .get_mut(key)
                .ok_or_else(|| format!("shard {key} has no model"))?;
            let features = shard.features(&shard.test);
            let answers = Localizer::localize_batch(model, &features)
                .map_err(|e| format!("reference answers for {key}: {e}"))?;
            let mut ids = Vec::with_capacity(answers.len());
            for (i, (sample, reference)) in shard.test.iter().zip(answers).enumerate() {
                ids.push(probes.len());
                probes.push(Probe {
                    key: *key,
                    features: features.row(i).to_vec(),
                    truth: sample.position,
                    reference,
                });
            }
            if ids.is_empty() {
                return Err(format!("shard {key} has no probes"));
            }
            probes_of.insert(*key, ids);
        }
        let t3 = Instant::now();
        let timing = SetupTiming {
            campaign_s: (t1 - t0).as_secs_f64(),
            train_s: (t2 - t1).as_secs_f64(),
            reference_s: (t3 - t2).as_secs_f64(),
            total_s: (t3 - t0).as_secs_f64(),
        };
        Ok((
            Fixture {
                campaign,
                shards,
                cfg,
                snapshots,
                probes,
                probes_of,
            },
            timing,
        ))
    }

    /// A fresh model per shard, hydrated from the trained snapshots
    /// (bit-identical to the trained models).
    ///
    /// # Errors
    ///
    /// Hydration failures.
    pub fn models(&self) -> Result<Vec<ShardModel>, String> {
        self.snapshots
            .iter()
            .map(|(key, snapshot)| {
                noble::hydrate(snapshot)
                    .map(|model| (*key, model))
                    .map_err(|e| format!("hydrate {key}: {e}"))
            })
            .collect()
    }
}

/// Trains every shard with the seed a `TrainSpec` derives for it, spread
/// over `threads` scoped threads.
fn train_shards(
    shards: &BTreeMap<ShardKey, WifiCampaign>,
    cfg: &WifiNobleConfig,
    threads: usize,
) -> Result<BTreeMap<ShardKey, WifiNoble>, String> {
    let parts: Vec<(&ShardKey, &WifiCampaign)> = shards.iter().collect();
    let threads = threads.max(1);
    let results: Vec<Result<(ShardKey, WifiNoble), String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let parts = &parts;
                scope.spawn(move || {
                    parts
                        .iter()
                        .skip(t)
                        .step_by(threads)
                        .map(|(key, shard)| {
                            let mut shard_cfg = cfg.clone();
                            shard_cfg.seed = shard_seed(cfg.seed, **key);
                            WifiNoble::train(shard, &shard_cfg)
                                .map(|m| (**key, m))
                                .map_err(|e| format!("train {key}: {e}"))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| {
                h.join()
                    .unwrap_or_else(|_| vec![Err("a training thread panicked".into())])
            })
            .collect()
    });
    results.into_iter().collect()
}
