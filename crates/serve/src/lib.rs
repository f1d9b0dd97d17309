//! # noble-serve — sharded multi-site serving engine
//!
//! NObLe's pitch is localization *as a service*: WiFi fixes and IMU
//! tracks arriving continuously from many devices across many buildings.
//! This crate is the serving seam between the trained models (anything
//! implementing [`noble::Localizer`]) and that traffic:
//!
//! - [`ModelCatalog`] is the model-lifecycle tier: a capacity-bounded
//!   (count or byte [`CatalogBudget`]) LRU of resident models over a
//!   pluggable [`ModelStore`] ([`MemStore`] / checksummed atomic-file
//!   [`FsStore`]). Cold shards hydrate from stored snapshots
//!   ([`noble::hydrate`], bit-identical) or retrain on demand from a
//!   registered [`TrainSpec`]; eviction writes through to the store so
//!   a model is never lost.
//! - [`ShardedRegistry`] (now a thin façade over an unbounded catalog)
//!   partitions a campaign by building/floor [`ShardKey`], trains (or
//!   accepts) one model per shard with order-free derived seeds and
//!   bounded per-shard memory, and routes feature batches to the owning
//!   shard — an unknown key is the typed [`ServeError::UnknownShard`],
//!   never a panic. The catalog is the single source of truth for model
//!   version lineage; registry-served shards are frozen at their
//!   training-time weights.
//! - [`BatchServer`] micro-batches concurrently arriving fixes under a
//!   configurable latency budget / max batch size ([`BatchConfig`])
//!   before one stacked `localize_batch` call; per-request reply
//!   channels carry results back, [`BatchServer::shutdown`] drains
//!   gracefully, [`BatchServer::stats`] reports per-shard
//!   throughput/latency, and [`BatchServer::start_from_store`]
//!   warm-restarts straight from persisted snapshots, skipping
//!   retraining entirely. There is one engine: shard workers **page
//!   models over a shared catalog**, faulting them in and spinning down
//!   when idle or when a colder shard needs their budget slot
//!   ([`BatchServer::paged_stats`] counts faults, spin-downs and
//!   drains). It has two constructors: [`BatchServer::start_paged`] is
//!   budgeted and lazy (a worker spawns on its shard's first request,
//!   so one process serves strictly more shards than fit under the
//!   [`CatalogBudget`]), while [`BatchServer::start`] serves a
//!   registry's unbounded catalog pre-warmed (every worker and model
//!   resident before it returns).
//! - [`Refresher`] ([`BatchServer::refresher`]) is the online-learning
//!   tier: served fixes and ground-truth corrections accumulate in a
//!   bounded per-shard [`ObservationBuffer`]
//!   ([`BufferLimits`]), and [`Refresher::refresh`] retrains a copy of
//!   the shard model off the serving path, archives it through the
//!   [`ModelStore`] as the next version, and atomically activates it at
//!   a batch boundary — never mid-batch. Every version is archived
//!   before it serves, so [`Refresher::rollback`] restores any prior
//!   version bit-identically, and answers within a pinned version are
//!   bit-stable (pinned by the `refresh_determinism` suite).
//! - [`TrackingServer`] adds the stateful per-device layer: a
//!   [`SessionTable`] of independently locked shards holds one session
//!   per device (trajectory smoother, bounded track buffer, zone
//!   hysteresis detector), so [`TrackingClient::submit`] turns a raw fix
//!   into a smoothed [`TrackedFix`] plus committed [`ZoneEvent`]s, with
//!   away-timeout sweeps retiring silent devices off the serving path.
//!   Same observation interleaving ⇒ bit-identical tracks and identical
//!   event sequences at any shard/thread count (pinned by the
//!   `tracking_sessions` suite).
//!
//! Neither batching nor paging changes answers: the linalg substrate
//! picks its matmul kernel per output row, and snapshot round-trips /
//! key-derived retrains are exact, so served results are
//! **bit-identical** to direct `localize_batch` calls under any
//! coalescing, any thread count, and any eviction schedule (pinned by
//! this crate's `serving_parity` integration test).
//!
//! ```no_run
//! use noble_serve::{BatchConfig, BatchServer, RegistryConfig, ShardedRegistry, ShardKey};
//! use noble::wifi::WifiNobleConfig;
//! use noble_datasets::{uji_campaign, UjiConfig};
//!
//! let campaign = uji_campaign(&UjiConfig::small()).unwrap();
//! let registry = ShardedRegistry::train_wifi(
//!     &campaign,
//!     &WifiNobleConfig::small(),
//!     &RegistryConfig::default(),
//! )
//! .unwrap();
//! let server = BatchServer::start(registry, BatchConfig::default()).unwrap();
//! let client = server.client();
//! let fix = client
//!     .localize(ShardKey::building(0), vec![0.0; campaign.num_waps()])
//!     .unwrap();
//! println!("device at {fix}");
//! for (key, stats) in server.shutdown() {
//!     println!("{key}: {} fixes in {} batches", stats.requests, stats.batches);
//! }
//! ```

mod buffer;
mod catalog;
mod error;
mod refresh;
mod registry;
mod server;
mod session;
mod store;
pub mod sync;

pub use buffer::{BufferLimits, Observation, ObservationBuffer, ObservationKind, PushOutcome};
pub use catalog::{CatalogBudget, CatalogStats, ModelCatalog, SharedCatalog, TrainSpec};
pub use error::ServeError;
pub use refresh::{BufferStats, RefreshConfig, RefreshOutcome, Refresher};
pub use registry::{
    partition_campaign, shard_seed, RegistryConfig, ShardKey, ShardPolicy, ShardedRegistry,
};
pub use server::{
    BatchConfig, BatchServer, PagedStats, PendingFix, ServeClient, ServerStats, ShardStats,
};
pub use session::{
    DeviceId, SessionStats, SessionTable, TrackedFix, TrackingClient, TrackingServer, ZoneEvent,
    ZoneEventKind,
};
pub use store::{FsStore, MemStore, ModelStore};
