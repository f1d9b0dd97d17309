//! Outside-in tracing: spans recorded from the benchmark's own code around
//! each call into a layer's public functions, kept in memory and written
//! out when the run ends.
//!
//! Two wrappers put spans *under* the serving tier without touching it:
//! [`TracedLocalizer`] times every `localize_batch` a shard worker issues,
//! and [`TracedStore`] times every snapshot read and write the catalog
//! makes. Both forward everything else, so the bits served are the same.

use noble::{InferencePrecision, Localizer, LocalizerInfo, ModelSnapshot, NobleError};
use noble_geo::Point;
use noble_linalg::Matrix;
use noble_serve::{ModelStore, ServeError, ShardKey};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary, e.g. `model.localize_batch`.
    pub name: &'static str,
    /// Unique id (never 0).
    pub id: u64,
    /// The span that caused this one, `0` for a root.
    pub parent: u64,
    /// Request the span belongs to, `0` when it serves many (a batch).
    pub request: u64,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Work items the call covered (rows of a batch; 1 otherwise).
    pub items: u64,
}

impl Span {
    /// Duration in microseconds.
    pub fn us(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e3
    }
}

thread_local! {
    /// The span the current thread is inside, so that spans recorded by
    /// a wrapper deep in a library call find their parent.
    static CURRENT: Cell<u64> = const { Cell::new(0) };
}

/// Span sink shared by every thread of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer whose clock starts now.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Nanoseconds from the epoch to `t`.
    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id.
    pub fn id(&self) -> u64 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Builds a span from two instants.
    pub fn span(
        &self,
        name: &'static str,
        id: u64,
        parent: u64,
        request: u64,
        start: Instant,
        end: Instant,
    ) -> Span {
        Span {
            name,
            id,
            parent,
            request,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            items: 1,
        }
    }

    /// Records one span.
    pub fn record(&self, span: Span) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
    }

    /// Records a thread's batch of spans at once (load threads buffer
    /// locally so the shared lock stays off their hot path).
    pub fn extend(&self, spans: Vec<Span>) {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .extend(spans);
    }

    /// Times `f` as span `name`, the parent of every span the current
    /// thread records inside it.
    pub fn within<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.id();
        let parent = CURRENT.with(|c| c.replace(id));
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        CURRENT.with(|c| c.set(parent));
        self.record(self.span(name, id, parent, 0, start, end));
        out
    }

    /// Times `f` as a child of the current thread's span.
    fn leaf<T>(&self, name: &'static str, items: u64, f: impl FnOnce() -> T) -> T {
        let parent = CURRENT.with(Cell::get);
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let mut span = self.span(name, self.id(), parent, 0, start, end);
        span.items = items;
        self.record(span);
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Per-span-name totals: calls, total time, and self time (duration
/// minus the part its child spans cover).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTime {
    /// Spans of this name.
    pub calls: u64,
    /// Summed duration, microseconds.
    pub total_us: f64,
    /// Summed self time, microseconds.
    pub self_us: f64,
}

/// Self time per span name. Children of one span run on its thread, one
/// after another, so their durations do not overlap and subtract
/// directly.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut child_us: BTreeMap<u64, f64> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        *child_us.entry(s.parent).or_default() += s.us();
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for s in spans {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total_us += s.us();
        t.self_us += (s.us() - child_us.get(&s.id).copied().unwrap_or(0.0)).max(0.0);
    }
    out
}

/// Spans written to the span file at most; the metrics use them all.
const MAX_WRITTEN_SPANS: usize = 200_000;

/// Writes spans as tab-separated lines (`id parent request name start_ns
/// end_ns items`), the first [`MAX_WRITTEN_SPANS`] of them.
///
/// # Errors
///
/// I/O failures.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\trequest\tname\tstart_ns\tend_ns\titems")?;
    for s in spans.iter().take(MAX_WRITTEN_SPANS) {
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns, s.items
        )?;
    }
    out.flush()
}

/// A model that records a `model.localize_batch` span per call. Snapshot
/// and lowering forward to the wrapped model, so the serving tier sees
/// the same model and serves the same bits.
pub struct TracedLocalizer {
    inner: Box<dyn Localizer>,
    tracer: Arc<Tracer>,
}

impl TracedLocalizer {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn Localizer>, tracer: Arc<Tracer>) -> Self {
        TracedLocalizer { inner, tracer }
    }
}

impl Localizer for TracedLocalizer {
    fn info(&self) -> LocalizerInfo {
        self.inner.info()
    }

    fn localize_batch(&mut self, features: &Matrix) -> Result<Vec<Point>, NobleError> {
        let tracer = Arc::clone(&self.tracer);
        tracer.leaf("model.localize_batch", features.rows() as u64, || {
            self.inner.localize_batch(features)
        })
    }

    fn try_snapshot(&self) -> Option<ModelSnapshot> {
        self.inner.try_snapshot()
    }

    fn try_lower(&self, precision: InferencePrecision) -> Option<Box<dyn Localizer>> {
        self.inner.try_lower(precision)
    }
}

/// A store that records `store.get`, `store.put` and `store.put_version`
/// spans when given a tracer; every other call forwards untimed. The
/// wrapped store is shared, so the benchmark can read back what the
/// catalog archived.
pub struct TracedStore<S> {
    inner: Arc<S>,
    tracer: Option<Arc<Tracer>>,
}

impl<S: ModelStore> TracedStore<S> {
    /// Wraps `inner`; spans are recorded only with a `tracer`.
    pub fn new(inner: Arc<S>, tracer: Option<Arc<Tracer>>) -> Self {
        TracedStore { inner, tracer }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.tracer {
            Some(tracer) => tracer.leaf(name, 1, f),
            None => f(),
        }
    }
}

impl<S: ModelStore> ModelStore for TracedStore<S> {
    fn put(&self, key: ShardKey, snapshot: &ModelSnapshot) -> Result<(), ServeError> {
        self.timed("store.put", || self.inner.put(key, snapshot))
    }

    fn get(&self, key: ShardKey) -> Result<Option<ModelSnapshot>, ServeError> {
        self.timed("store.get", || self.inner.get(key))
    }

    fn list(&self) -> Result<Vec<ShardKey>, ServeError> {
        self.inner.list()
    }

    fn evict(&self, key: ShardKey) -> Result<bool, ServeError> {
        self.inner.evict(key)
    }

    fn put_version(
        &self,
        key: ShardKey,
        version: u64,
        snapshot: &ModelSnapshot,
    ) -> Result<(), ServeError> {
        self.timed("store.put_version", || {
            self.inner.put_version(key, version, snapshot)
        })
    }

    fn get_version(
        &self,
        key: ShardKey,
        version: u64,
    ) -> Result<Option<ModelSnapshot>, ServeError> {
        self.inner.get_version(key, version)
    }

    fn versions(&self, key: ShardKey) -> Result<Vec<u64>, ServeError> {
        self.inner.versions(key)
    }
}
