//! The query-serving layer: a long-lived, thread-safe [`RoxEngine`] that
//! amortizes everything *around* one ROX run across many.
//!
//! ROX pays a per-query sampling overhead to discover a robust join order
//! at run time (§2.3). That trade only makes sense as a *service* if the
//! per-query setup around it — index construction, base-list lookups, and
//! for repeat queries the sampling itself — is paid once, not per call.
//! The engine owns three caches, each keyed so reuse is sound by
//! construction:
//!
//! * **document indexes** — the shared [`IndexedStore`], keyed by
//!   [`DocId`]: element/value indexes (including the dense CSR tables)
//!   are built once per document, ever;
//! * **base lists** — [`BaseListCache`], keyed by `(DocId, VertexLabel)`:
//!   a vertex's base list depends on nothing but its document and its
//!   label, so *any* later query using the same vertex shape reuses it
//!   (unlike the old per-graph `VertexId` keying, which died with the
//!   env);
//! * **plans** — keyed by [`JoinGraph::fingerprint`]: the edge order an
//!   optimizing run discovered, the physical operator ([`EdgeOpKind`]) it
//!   chose per edge, and the per-edge cardinalities it observed. Under
//!   [`PlanReuse::ReuseValidated`] a repeat of the same query shape
//!   replays that order through the **guarded replay** ([`crate::guard`]):
//!   budget-capped sampled spot checks plus free observed checks defend
//!   the replay against data drift, and a breach demotes it mid-query to a
//!   fresh run-time optimization of the remaining edges. Any fingerprint
//!   mismatch, canonical-form collision, stale edge set, or stale
//!   statistics epoch bypasses the cache and re-optimizes.
//!
//! Plans are **versioned against per-document statistics**: the engine
//! keeps an epoch per document URI, [`RoxEngine::invalidate_document`]
//! bumps the epoch *before* dropping derived data, and both plan lookup
//! and plan seeding verify the epochs they captured are still current —
//! so a replay racing an invalidation can never serve (or cache) a plan
//! versioned against dropped statistics. [`RoxEngine::reindex_document`]
//! refreshes a document's derived data *without* dropping its plans —
//! modeling in-place updates whose plans the guard revalidates on the
//! next replay.
//!
//! A query runs inside a *session* ([`RoxEngine::session`]) — a thin
//! [`RoxEnv`] view borrowing the engine's caches — and the engine owns one
//! always-on [`WorkerPool`] shared by **both** concurrency layers: the
//! intra-query sampling/partitioned-join fan-out and the inter-query
//! serving paths. [`RoxEngine::run_many`] fans a batch of queries out over
//! that pool (results in job order), and [`RoxEngine::try_submit`] is the
//! open-loop face: it enqueues one query behind a **bounded admission
//! queue** ([`RoxOptions::max_queued`]) and returns an [`EngineTicket`]
//! immediately, rejecting with [`ServeError::Overloaded`] when the queue
//! is full — backpressure instead of unbounded buffering. Nested fan-out
//! is deadlock-free by construction: every `par_map` caller drives its own
//! batch, so a worker running a query that fans out inward never waits on
//! a pool slot. Results are bit-identical to fresh standalone runs: every
//! cached structure is value-equal to the fresh build it replaces, and
//! `run` with [`PlanReuse::AlwaysOptimize`] (the default) performs the
//! exact same sampling an un-cached [`crate::run_rox`] would.

use crate::env::{EnvError, RoxEnv};
use crate::guard::{self, EdgeExpectation, GuardSpec, GuardVerdict, SpotCheck};
use crate::optimizer::{run_rox_with_env, RoxOptions, RoxReport};
use crate::plan::validate_plan;
use crate::state::EdgeExec;
use rox_index::IndexedStore;
use rox_joingraph::{EdgeId, JoinGraph, VertexLabel};
use rox_ops::{Cost, EdgeOpKind, Relation};
use rox_par::{Parallelism, WorkerPool};
use rox_storage::wal::{DocPut, Lsn, Wal, WalIo, WalRecord, WalStats};
use rox_storage::{
    recovery, PoolStats, RecoveryReport, SaveReport, Snapshot, SnapshotSource, StdWalIo,
    StorageError, DEFAULT_PAGE_SIZE,
};
use rox_xmldb::{Catalog, DocId, Pre};
use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Plan-cache policy for [`RoxEngine::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanReuse {
    /// Optimize every run (the paper's behaviour). Discovered plans still
    /// *seed* the cache so a later `ReuseValidated` run can hit.
    #[default]
    AlwaysOptimize,
    /// Replay the cached plan when the query's fingerprint matches a
    /// cached entry that validates against the graph (canonical form
    /// equal, edge order still covering every non-redundant edge,
    /// statistics epochs current). The replay is *guarded*
    /// ([`crate::guard`]): cheap sampled spot checks and free observed
    /// checks compare the live run against the recorded cardinalities,
    /// and a drift breach demotes the run mid-query to a fresh
    /// optimization of the remaining edges. Anything else falls back to a
    /// full optimizing run.
    ReuseValidated,
}

/// How one engine-served run was answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunMode {
    /// Full optimizing run (plan-cache miss or [`PlanReuse::AlwaysOptimize`]).
    Optimized,
    /// Guarded replay of a cached plan; every drift check passed.
    Revalidated,
    /// Guarded replay breached a drift check after `at_edge` executed
    /// edges and finished as a fresh optimization of the remaining edges.
    Demoted {
        /// Executed-prefix length at the breach (0 = a pre-execution
        /// sampled check fired).
        at_edge: usize,
    },
}

/// Cross-query base-list cache, keyed by `(DocId, VertexLabel)`.
///
/// The key is sound because a base list is a pure function of the document
/// and the vertex label (see `RoxEnv::build_base_list`); the label is
/// keyed through its injective [`VertexLabel::cache_key`]. Shared behind
/// an `RwLock` — warm lookups are read-locked only. Under a first-touch
/// race both threads build and the first insert wins, so the `builds`
/// counter is exact for sequential warm-path assertions and an upper
/// bound under contention.
pub struct BaseListCache {
    lists: RwLock<BaseListMap>,
    builds: AtomicUsize,
    hits: AtomicUsize,
}

/// `(document, canonical label key)` → shared base list.
type BaseListMap = HashMap<(DocId, String), Arc<Vec<Pre>>>;

/// Safety valve on the base-list cache: parameterized traffic (a fresh
/// range constant per query) mints a fresh `(DocId, label)` key per
/// constant, and each entry holds a materialized pre list — unbounded
/// growth would leak on a long-lived server. Past the cap an arbitrary
/// entry is evicted per insert (outstanding `Arc`s stay valid; a future
/// touch simply rebuilds).
const MAX_CACHED_BASE_LISTS: usize = 8192;

/// Same safety valve for the plan cache (canonical strings + edge
/// orders); evicted FIFO past the cap.
const MAX_CACHED_PLANS: usize = 1024;

impl Default for BaseListCache {
    fn default() -> Self {
        Self::new()
    }
}

impl BaseListCache {
    /// An empty cache.
    pub fn new() -> Self {
        BaseListCache {
            lists: RwLock::new(HashMap::new()),
            builds: AtomicUsize::new(0),
            hits: AtomicUsize::new(0),
        }
    }

    /// The list for `(doc, label)`, building it via `build` on a miss.
    pub(crate) fn get_or_build(
        &self,
        doc: DocId,
        label: &VertexLabel,
        build: impl FnOnce() -> Vec<Pre>,
    ) -> Arc<Vec<Pre>> {
        let key = (doc, label.cache_key());
        if let Some(list) = self.lists.read().expect("base-list cache").get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(list);
        }
        let built = Arc::new(build());
        self.builds.fetch_add(1, Ordering::Relaxed);
        let mut map = self.lists.write().expect("base-list cache");
        if map.len() >= MAX_CACHED_BASE_LISTS && !map.contains_key(&key) {
            if let Some(victim) = map.keys().next().cloned() {
                map.remove(&victim);
            }
        }
        Arc::clone(map.entry(key).or_insert(built))
    }

    /// How many base lists were built (not served from cache).
    pub fn build_count(&self) -> usize {
        self.builds.load(Ordering::Relaxed)
    }

    /// How many lookups were served from the shared cache.
    pub fn hit_count(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of cached lists.
    pub fn len(&self) -> usize {
        self.lists.read().expect("base-list cache").len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every list of `doc` (after a document reload).
    fn invalidate_doc(&self, doc: DocId) {
        self.lists
            .write()
            .expect("base-list cache")
            .retain(|(d, _), _| *d != doc);
    }
}

/// One plan-cache entry: what an optimizing (or demoted) run discovered
/// for one query fingerprint, plus everything a guarded replay needs to
/// check the plan against the live data.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The non-redundant edges in the order ROX executed them — the "pure
    /// plan" replayed on a hit.
    pub order: Vec<EdgeId>,
    /// The physical operator the kernel chose per executed edge (parallel
    /// to `order`). Advisory: a replay re-derives its choices through the
    /// same kernel and cost function, so on unchanged documents it picks
    /// these exact operators again.
    pub ops: Vec<EdgeOpKind>,
    /// Per-edge recorded cardinalities and reduction factors (parallel to
    /// `order`) — the expectations the guarded replay spot-checks.
    pub expected: Vec<EdgeExpectation>,
    /// Sample size τ the seeding run used (the guard reproduces Phase 1
    /// under it).
    pub tau: usize,
    /// RNG seed of the seeding run.
    pub seed: u64,
    /// Per-document statistics epochs `(uri, epoch)` captured when the
    /// seeding run started, sorted by URI. A replay or re-seed whose
    /// current epochs differ is refused — the plan was versioned against
    /// statistics that [`RoxEngine::invalidate_document`] has dropped.
    pub stats_epochs: Vec<(String, u64)>,
    /// Collision guard: the full canonical form the fingerprint hashed.
    canonical: String,
    /// Documents the plan touches (for invalidation).
    doc_uris: Vec<String>,
}

/// A serving-path error: admission rejection, query failure, or an
/// aborted job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The bounded admission queue was full at submission time
    /// ([`RoxOptions::max_queued`]); the job never entered the system.
    Overloaded {
        /// Queue depth observed at rejection.
        queued: usize,
        /// The bound the job's options asked for.
        max_queued: usize,
    },
    /// The query itself failed (unknown document, ...).
    Env(EnvError),
    /// The job was admitted but never completed: it panicked mid-run, or
    /// the pool shut down while it was still queued.
    Aborted,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued, max_queued } => write!(
                f,
                "overloaded: {queued} jobs queued (admission bound {max_queued})"
            ),
            ServeError::Env(e) => write!(f, "{e}"),
            ServeError::Aborted => write!(f, "job aborted before completion"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<EnvError> for ServeError {
    fn from(e: EnvError) -> Self {
        ServeError::Env(e)
    }
}

/// What a completed [`EngineTicket`] resolves to.
#[derive(Debug)]
pub struct TicketOutcome {
    /// The run result (or why it failed).
    pub result: Result<EngineRun, ServeError>,
    /// When the worker finished the job — latency measured here excludes
    /// any delay in the collector picking the ticket up.
    pub finished_at: Instant,
}

enum TicketState {
    Pending,
    Done(Box<TicketOutcome>),
    Taken,
}

struct TicketInner {
    state: Mutex<TicketState>,
    cv: Condvar,
}

impl TicketInner {
    /// First completion wins; later calls (e.g. the drop guard after a
    /// normal finish) are no-ops.
    fn complete(&self, result: Result<EngineRun, ServeError>) -> bool {
        let mut state = self.state.lock().expect("ticket state");
        if !matches!(*state, TicketState::Pending) {
            return false;
        }
        *state = TicketState::Done(Box::new(TicketOutcome {
            result,
            finished_at: Instant::now(),
        }));
        self.cv.notify_all();
        true
    }
}

/// A handle to one query admitted through [`RoxEngine::try_submit`]. The
/// submitter never blocks; the result is claimed with
/// [`EngineTicket::wait`]. Every admitted job resolves its ticket exactly
/// once — on completion, on panic, or (as [`ServeError::Aborted`]) when
/// the pool shuts down with the job still queued.
pub struct EngineTicket {
    inner: Arc<TicketInner>,
}

impl EngineTicket {
    /// Block until the job resolves and take its outcome.
    ///
    /// Do not call this from inside the same pool's worker (it would
    /// occupy the worker while waiting on work only that pool can run);
    /// tickets are for external collectors — dispatch loops, benches,
    /// request handlers.
    pub fn wait(self) -> TicketOutcome {
        let mut state = self.inner.state.lock().expect("ticket state");
        loop {
            if matches!(*state, TicketState::Done(_)) {
                match std::mem::replace(&mut *state, TicketState::Taken) {
                    TicketState::Done(out) => return *out,
                    _ => unreachable!("just matched Done"),
                }
            }
            state = self.inner.cv.wait(state).expect("ticket state");
        }
    }
}

/// Completion guard moved into every submitted job closure. Whatever
/// happens to the closure — runs to completion, panics inside `run`, or
/// gets dropped unrun at pool shutdown — the drop leg settles the
/// admission-queue gauge and resolves the ticket, so a collector blocked
/// in [`EngineTicket::wait`] can never hang and the serving counters
/// always reconcile.
struct JobGuard {
    engine: Arc<RoxEngine>,
    inner: Arc<TicketInner>,
    dequeued: bool,
    finished: bool,
}

impl JobGuard {
    /// The job left the admission queue and started running.
    fn dequeue(&mut self) {
        if !self.dequeued {
            self.dequeued = true;
            self.engine.queued.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn finish(&mut self, result: Result<EngineRun, ServeError>) {
        self.finished = true;
        self.engine.jobs_served.fetch_add(1, Ordering::Relaxed);
        self.inner.complete(result);
    }
}

impl Drop for JobGuard {
    fn drop(&mut self) {
        self.dequeue();
        if !self.finished {
            self.engine.jobs_aborted.fetch_add(1, Ordering::Relaxed);
            self.inner.complete(Err(ServeError::Aborted));
        }
    }
}

/// An observer of document storage events. The engine routes every
/// [`RoxEngine::invalidate_document`] / [`RoxEngine::reindex_document`]
/// through the registered sinks *before* any derived data is dropped —
/// this is how snapshot-backed state learns that a stored epoch is dead
/// and must never be served again ([`RoxEngine::open_snapshot`] registers
/// a sink that marks the snapshot's per-document index segments stale).
pub trait StorageEventSink: Send + Sync {
    /// `uri` was reloaded/replaced; `epoch` is its *new* statistics epoch.
    /// Persistent state derived from the old content (stored indexes,
    /// cached segments) is dead. `id` is `None` when the URI was never
    /// registered in the catalog.
    fn document_invalidated(&self, uri: &str, id: Option<DocId>, epoch: u64);

    /// `uri` changed in place (no epoch bump): derived index data must be
    /// refreshed from the live document, but plans stay servable.
    fn document_reindexed(&self, uri: &str, id: Option<DocId>);
}

/// The sink [`RoxEngine::open_snapshot`] registers: both event kinds make
/// the snapshot's stored *index* segments for the document unservable (the
/// stored document segment stays, as the content ground truth for ids that
/// were never reloaded — and both events always leave a newer resident
/// copy, so it is never consulted for this id again).
struct SnapshotStalenessSink {
    source: Arc<SnapshotSource>,
}

impl StorageEventSink for SnapshotStalenessSink {
    fn document_invalidated(&self, _uri: &str, id: Option<DocId>, _epoch: u64) {
        if let Some(id) = id {
            rox_index::DocSource::mark_stale(&*self.source, id);
        }
    }

    fn document_reindexed(&self, _uri: &str, id: Option<DocId>) {
        if let Some(id) = id {
            rox_index::DocSource::mark_stale(&*self.source, id);
        }
    }
}

/// Counters describing how much work the engine's caches absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineStats {
    /// `DocIndexes::build` runs in the shared store.
    pub index_builds: usize,
    /// Base lists built (shared-cache misses).
    pub base_list_builds: usize,
    /// Base-list lookups served from the shared cache.
    pub base_list_hits: usize,
    /// `run` calls answered by (revalidated) plan replay.
    pub plan_hits: u64,
    /// `run` calls that ran the optimizer (including every
    /// `AlwaysOptimize` call and every demoted replay).
    pub plan_misses: u64,
    /// Guarded replays that breached a drift check and demoted mid-query
    /// (each also counts as a miss).
    pub plan_demotions: u64,
    /// Plans currently cached.
    pub cached_plans: usize,
    /// Jobs offered to the serving path ([`RoxEngine::try_submit`] and
    /// [`RoxEngine::run_many`]), admitted or not.
    pub jobs_submitted: u64,
    /// Jobs that ran to completion (successfully or with a query error).
    pub jobs_served: u64,
    /// Jobs rejected at admission with [`ServeError::Overloaded`].
    pub jobs_rejected: u64,
    /// Admitted jobs that never completed (panicked mid-run, or dropped
    /// at pool shutdown). At quiescence
    /// `submitted == served + rejected + aborted`.
    pub jobs_aborted: u64,
    /// Jobs currently admitted but not yet started (the live admission
    /// queue gauge [`RoxOptions::max_queued`] bounds).
    pub queue_depth: usize,
    /// Buffer-pool traffic of the snapshot backing this engine — page
    /// hits/misses/evictions and frame occupancy. All zero for an
    /// in-memory engine (no snapshot).
    pub pages: PoolStats,
    /// Total pages in the backing snapshot file (0 without one) — the
    /// 100% mark the pool's `capacity` is a fraction of.
    pub snapshot_pages: u64,
    /// Documents/index sets decoded from the snapshot instead of being
    /// parsed/built (the store's fault counter).
    pub storage_loads: usize,
    /// Write-ahead-log counters (records, bytes, commits vs fsyncs,
    /// LSN water marks). All zero for an engine without a durable
    /// directory (see [`RoxEngine::make_durable`]).
    pub wal: WalStats,
    /// WAL records replayed when this engine was built by
    /// [`RoxEngine::recover`]; 0 otherwise.
    pub wal_replayed: u64,
}

impl EngineStats {
    /// `plan_hits / (plan_hits + plan_misses)`, 0 when nothing ran.
    pub fn plan_hit_rate(&self) -> f64 {
        let total = self.plan_hits + self.plan_misses;
        if total == 0 {
            return 0.0;
        }
        self.plan_hits as f64 / total as f64
    }
}

/// Everything one engine-served query run produces. Unlike
/// [`RoxReport`], this is uniform across optimizing runs and plan-cache
/// replays (a revalidated replay's `sample_cost` holds only its
/// budget-capped spot checks).
#[derive(Debug)]
pub struct EngineRun {
    /// The query output after the plan tail (π·δ·τ·π).
    pub output: Relation,
    /// The fully joined Join Graph result (pre-tail).
    pub joined: Relation,
    /// Edges in the order they were executed (discovered or replayed).
    pub executed_order: Vec<EdgeId>,
    /// Per-execution result sizes and operator choices.
    pub edge_log: Vec<EdgeExec>,
    /// Work done by full executions.
    pub exec_cost: Cost,
    /// Work done by sampling — for a revalidated replay, only the
    /// spot-check charge (bounded by the seeding run's Phase-1 cost and by
    /// [`rox_ops::revalidation_budget`]).
    pub sample_cost: Cost,
    /// Wall-clock of the run.
    pub total_wall: Duration,
    /// True when the plan cache answered this run end-to-end (mode
    /// [`RunMode::Revalidated`]).
    pub plan_cache_hit: bool,
    /// How the run was answered: optimized, revalidated, or demoted.
    pub mode: RunMode,
    /// The drift checks the guarded replay performed (empty for
    /// optimizing runs).
    pub spot_checks: Vec<SpotCheck>,
    /// The query's join-graph fingerprint (the plan-cache key).
    pub fingerprint: u64,
}

impl EngineRun {
    fn from_report(report: RoxReport, fingerprint: u64) -> Self {
        EngineRun {
            output: report.output,
            joined: report.joined,
            executed_order: report.executed_order,
            edge_log: report.edge_log,
            exec_cost: report.exec_cost,
            sample_cost: report.sample_cost,
            total_wall: report.total_wall,
            plan_cache_hit: false,
            mode: RunMode::Optimized,
            spot_checks: Vec::new(),
            fingerprint,
        }
    }

    fn from_guarded(run: guard::GuardedRun, fingerprint: u64) -> Self {
        let mode = match run.verdict {
            GuardVerdict::Revalidated => RunMode::Revalidated,
            GuardVerdict::Demoted { at_edge } => RunMode::Demoted { at_edge },
        };
        EngineRun {
            output: run.output,
            joined: run.joined,
            executed_order: run.executed_order,
            edge_log: run.edge_log,
            exec_cost: run.exec_cost,
            sample_cost: run.sample_cost,
            total_wall: run.wall,
            plan_cache_hit: mode == RunMode::Revalidated,
            mode,
            spot_checks: run.checks,
            fingerprint,
        }
    }
}

/// The long-lived, thread-safe query-serving layer: one engine per
/// catalog, shared by reference across every query and worker thread.
///
/// ```
/// use std::sync::Arc;
/// use rox_core::{PlanReuse, RoxEngine, RoxOptions};
///
/// let catalog = Arc::new(rox_xmldb::Catalog::new());
/// catalog.load_str("d.xml", "<site><auction><bidder/></auction></site>").unwrap();
/// let engine = RoxEngine::new(catalog);
/// let graph = rox_joingraph::compile_query(
///     r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#,
/// ).unwrap();
/// let options = RoxOptions { plan_reuse: PlanReuse::ReuseValidated, ..Default::default() };
/// let cold = engine.run(&graph, options).unwrap(); // optimizes, seeds the plan cache
/// let warm = engine.run(&graph, options).unwrap(); // guarded replay
/// assert!(!cold.plan_cache_hit && warm.plan_cache_hit);
/// assert_eq!(warm.output, cold.output);
/// // The replay's only sampling is its drift spot checks, bounded by
/// // what the seeding run's Phase 1 charged.
/// assert!(warm.sample_cost.total() <= cold.sample_cost.total());
/// ```
pub struct RoxEngine {
    store: Arc<IndexedStore>,
    base_lists: Arc<BaseListCache>,
    plans: Mutex<PlanCache>,
    /// Per-document statistics epochs, keyed by URI (absent = epoch 0).
    /// [`RoxEngine::invalidate_document`] bumps an epoch *before* touching
    /// any derived data, and plan lookup/seeding compare captured epochs
    /// against current ones — the versioning rule that closes the
    /// invalidate-vs-replay race.
    doc_epochs: RwLock<HashMap<String, u64>>,
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
    plan_demotions: AtomicU64,
    /// The always-on worker pool shared by intra-query fan-out (sampling,
    /// partitioned joins) and the inter-query serving paths.
    workers: Arc<WorkerPool>,
    /// Jobs admitted through [`RoxEngine::try_submit`] but not yet
    /// started — the gauge the bounded admission queue checks.
    queued: AtomicUsize,
    jobs_submitted: AtomicU64,
    jobs_served: AtomicU64,
    jobs_rejected: AtomicU64,
    jobs_aborted: AtomicU64,
    /// The snapshot this engine was opened from, when it was
    /// ([`RoxEngine::open_snapshot`]); carries the buffer pool whose
    /// counters [`RoxEngine::stats`] surfaces.
    snapshot: Option<Arc<SnapshotSource>>,
    /// Observers of invalidate/reindex events (see [`StorageEventSink`]).
    storage_sinks: RwLock<Vec<Arc<dyn StorageEventSink>>>,
    /// The durable half, when [`RoxEngine::make_durable`] or
    /// [`RoxEngine::recover`] attached one: mutations append to its WAL
    /// and are acknowledged only after the group fsync.
    durable: RwLock<Option<Arc<DurableState>>>,
    /// Records [`RoxEngine::recover`] replayed to build this engine.
    wal_replayed: AtomicU64,
}

/// The durable half of an engine: the directory, the I/O layer writes
/// go through (real, or fault-injected in tests), the log itself, and
/// the mutation-order lock.
struct DurableState {
    dir: PathBuf,
    io: Arc<dyn WalIo>,
    wal: Wal,
    /// Serializes durable mutations against each other and against
    /// checkpoints: the epoch bump, the interner-delta capture, and the
    /// record append must form one atomic step so replay reconstructs
    /// the exact original order (and the exact symbol-id assignment).
    order: Mutex<DurableCursor>,
}

/// The per-directory high-water marks the order lock protects.
struct DurableCursor {
    /// Symbols already persisted (in the snapshot or an earlier
    /// record); the next document record logs the interner delta from
    /// here.
    symbols_logged: usize,
}

/// The bounded plan store behind the engine's mutex: fingerprint → plan
/// plus insertion order for FIFO eviction past [`MAX_CACHED_PLANS`]. The
/// FIFO may hold fingerprints whose entries invalidation already removed;
/// eviction pops through those harmlessly.
#[derive(Default)]
struct PlanCache {
    map: HashMap<u64, CachedPlan>,
    fifo: std::collections::VecDeque<u64>,
}

impl PlanCache {
    fn insert(&mut self, fingerprint: u64, plan: CachedPlan) {
        if self.map.insert(fingerprint, plan).is_none() {
            self.fifo.push_back(fingerprint);
        }
        while self.map.len() > MAX_CACHED_PLANS {
            match self.fifo.pop_front() {
                Some(old) => {
                    self.map.remove(&old);
                }
                None => break,
            }
        }
    }
}

impl std::fmt::Debug for RoxEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("RoxEngine")
            .field("documents", &self.catalog().len())
            .field("stats", &stats)
            .finish()
    }
}

impl RoxEngine {
    /// An engine over `catalog`, with all caches empty and a worker pool
    /// sized to the machine (logical core count, floor of two).
    pub fn new(catalog: Arc<Catalog>) -> Self {
        Self::with_workers(
            catalog,
            Arc::new(WorkerPool::new(Parallelism::Auto.threads().max(2))),
        )
    }

    /// As [`RoxEngine::new`] with an explicit worker pool — for serving
    /// setups that size the pool themselves or share one pool across
    /// several engines.
    pub fn with_workers(catalog: Arc<Catalog>, workers: Arc<WorkerPool>) -> Self {
        Self::from_store(Arc::new(IndexedStore::new(catalog)), workers, None)
    }

    /// Open a snapshot file (see [`rox_storage::Snapshot`]) and serve
    /// queries straight off it: every stored URI resolves immediately, and
    /// document content plus prebuilt indices are *faulted in on first
    /// touch* through a buffer pool of `frames` pages (`None` sizes the
    /// pool to the whole file). The cold path this replaces — re-parsing
    /// and re-shredding the XML, then rebuilding every index — never runs.
    ///
    /// The engine registers a [`StorageEventSink`] that marks stored index
    /// segments stale on [`RoxEngine::invalidate_document`] /
    /// [`RoxEngine::reindex_document`], so the snapshot can never serve an
    /// index from a superseded epoch.
    pub fn open_snapshot(path: &Path, frames: Option<usize>) -> Result<Self, StorageError> {
        let (catalog, source) = Snapshot::open(path, frames)?;
        let store = Arc::new(IndexedStore::with_source(
            catalog,
            Arc::<SnapshotSource>::clone(&source),
        ));
        let engine = Self::from_store(
            store,
            Arc::new(WorkerPool::new(Parallelism::Auto.threads().max(2))),
            Some(Arc::clone(&source)),
        );
        engine.register_storage_sink(Arc::new(SnapshotStalenessSink { source }));
        Ok(engine)
    }

    /// Persist this engine's catalog — documents, symbol heap, and the
    /// element/value indices (building any missing ones) — as a snapshot
    /// page file at `path`, ready for [`RoxEngine::open_snapshot`].
    pub fn save_snapshot(&self, path: &Path) -> Result<SaveReport, StorageError> {
        Snapshot::save(path, &self.store)
    }

    /// The snapshot this engine serves from, if opened via
    /// [`RoxEngine::open_snapshot`].
    pub fn snapshot(&self) -> Option<&Arc<SnapshotSource>> {
        self.snapshot.as_ref()
    }

    /// Attach a durable directory at `dir`: persist the current catalog
    /// as `snapshot.rox`, start `wal.rox`, and from here on route every
    /// [`RoxEngine::invalidate_document`] / [`RoxEngine::reindex_document`]
    /// through the write-ahead log — each mutation is acknowledged only
    /// after its record is fsynced, and [`RoxEngine::recover`] on the
    /// directory rebuilds this engine's exact state after any crash.
    pub fn make_durable(&self, dir: &Path) -> Result<SaveReport, StorageError> {
        self.make_durable_with_io(dir, Arc::new(StdWalIo))
    }

    /// As [`RoxEngine::make_durable`] with an explicit I/O layer — the
    /// seam the fault-injection torture suite interposes on (see
    /// [`rox_storage::failpoint`]).
    pub fn make_durable_with_io(
        &self,
        dir: &Path,
        io: Arc<dyn WalIo>,
    ) -> Result<SaveReport, StorageError> {
        std::fs::create_dir_all(dir)?;
        // Sample the symbol high-water mark *before* encoding: the
        // snapshot then holds at least [0, symbols_logged), so a record
        // logging the delta from here can never skip a symbol (it may
        // duplicate one already in the snapshot, which replay dedups).
        let symbols_logged = self.catalog().interner().len();
        let epochs = self.epoch_table();
        let out = recovery::write_checkpoint(dir, &self.store, epochs, 1, &*io, DEFAULT_PAGE_SIZE)?;
        let state = DurableState {
            dir: dir.to_path_buf(),
            io,
            wal: Wal::open(out.wal_file, 1, 1, out.wal_bytes),
            order: Mutex::new(DurableCursor { symbols_logged }),
        };
        *self.durable.write().expect("durable state") = Some(Arc::new(state));
        Ok(out.report)
    }

    /// Checkpoint the durable directory: persist a fresh snapshot of
    /// the current catalog and rotate the log to a new generation whose
    /// only record is the checkpoint (truncation — every record of the
    /// old generation is baked into the new snapshot). Runs the
    /// tmp-write → verify → rename → dir-fsync state machine of
    /// [`rox_storage::recovery::write_checkpoint`]; a crash anywhere in
    /// it recovers. Errors if the engine has no durable directory.
    pub fn checkpoint(&self) -> Result<SaveReport, StorageError> {
        let durable = self.durable.read().expect("durable state").clone();
        let Some(d) = durable else {
            return Err(StorageError::Format(
                "checkpoint without a durable directory (call make_durable first)".to_string(),
            ));
        };
        // The order lock stalls durable mutations for the duration: no
        // record with an LSN above the checkpoint's can exist yet.
        let mut cur = d.order.lock().expect("durable order");
        // The symbol high-water mark advances only once the checkpoint
        // is durably on disk: advancing it first and then failing would
        // leave symbols in [old mark, new mark) in neither the old
        // snapshot nor any later record's delta.
        let symbols_logged = self.catalog().interner().len();
        let epochs = self.epoch_table();
        let cp_lsn = d.wal.last_lsn() + 1;
        let out = recovery::write_checkpoint(
            &d.dir,
            &self.store,
            epochs,
            cp_lsn,
            &*d.io,
            DEFAULT_PAGE_SIZE,
        )?;
        d.wal.install_rotated(out.wal_file, cp_lsn, out.wal_bytes);
        cur.symbols_logged = symbols_logged;
        Ok(out.report)
    }

    /// Recover the durable directory at `dir` into a serving engine:
    /// open the newest valid snapshot, replay the WAL tail over it
    /// (torn tail detected and truncated), and return the engine plus
    /// what recovery found. The recovered engine is bit-identical — in
    /// query output, document columns, and epoch table — to the engine
    /// that wrote the directory, as of its last durable LSN, and it is
    /// itself durable: mutations keep appending to the recovered log.
    pub fn recover(
        dir: &Path,
        frames: Option<usize>,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        Self::recover_with_io(dir, frames, Arc::new(StdWalIo))
    }

    /// As [`RoxEngine::recover`] with an explicit I/O layer for the
    /// recovered engine's subsequent writes.
    pub fn recover_with_io(
        dir: &Path,
        frames: Option<usize>,
        io: Arc<dyn WalIo>,
    ) -> Result<(Self, RecoveryReport), StorageError> {
        let state = recovery::recover(dir, frames, &*io)?;
        let store = Arc::new(IndexedStore::with_source(
            state.catalog,
            Arc::<SnapshotSource>::clone(&state.source),
        ));
        let engine = Self::from_store(
            store,
            Arc::new(WorkerPool::new(Parallelism::Auto.threads().max(2))),
            Some(Arc::clone(&state.source)),
        );
        engine.register_storage_sink(Arc::new(SnapshotStalenessSink {
            source: state.source,
        }));
        *engine.doc_epochs.write().expect("doc epochs") = state.epochs.into_iter().collect();
        engine
            .wal_replayed
            .store(state.report.replayed as u64, Ordering::Relaxed);
        let symbols_logged = engine.catalog().interner().len();
        *engine.durable.write().expect("durable state") = Some(Arc::new(DurableState {
            dir: dir.to_path_buf(),
            io,
            wal: state.wal,
            order: Mutex::new(DurableCursor { symbols_logged }),
        }));
        Ok((engine, state.report))
    }

    /// The durable directory this engine writes to, if any.
    pub fn durable_dir(&self) -> Option<PathBuf> {
        self.durable
            .read()
            .expect("durable state")
            .as_ref()
            .map(|d| d.dir.clone())
    }

    /// The full `(uri, epoch)` table, sorted by URI.
    fn epoch_table(&self) -> Vec<(String, u64)> {
        let mut epochs: Vec<(String, u64)> = self
            .doc_epochs
            .read()
            .expect("doc epochs")
            .iter()
            .map(|(uri, &e)| (uri.clone(), e))
            .collect();
        epochs.sort();
        epochs
    }

    fn from_store(
        store: Arc<IndexedStore>,
        workers: Arc<WorkerPool>,
        snapshot: Option<Arc<SnapshotSource>>,
    ) -> Self {
        RoxEngine {
            store,
            base_lists: Arc::new(BaseListCache::new()),
            plans: Mutex::new(PlanCache::default()),
            doc_epochs: RwLock::new(HashMap::new()),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
            plan_demotions: AtomicU64::new(0),
            workers,
            queued: AtomicUsize::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_served: AtomicU64::new(0),
            jobs_rejected: AtomicU64::new(0),
            jobs_aborted: AtomicU64::new(0),
            snapshot,
            storage_sinks: RwLock::new(Vec::new()),
            durable: RwLock::new(None),
            wal_replayed: AtomicU64::new(0),
        }
    }

    /// Register an observer of invalidate/reindex events. Sinks are
    /// notified *before* any derived data is dropped, in registration
    /// order.
    pub fn register_storage_sink(&self, sink: Arc<dyn StorageEventSink>) {
        self.storage_sinks
            .write()
            .expect("storage sinks")
            .push(sink);
    }

    /// Drop the in-memory residency of every snapshot-backed document —
    /// resident node tables, index cells, and base lists — without
    /// touching epochs, plans, or the snapshot's validity. The next query
    /// faults everything back in through the buffer pool; the
    /// benchmark's `xmark-churn` workload sweeps residency this way to
    /// keep the pool under pressure. Returns the number of documents released (always 0 for an
    /// engine without a snapshot — releasing would lose the only copy).
    pub fn release_residency(&self) -> usize {
        let Some(source) = &self.snapshot else {
            return 0;
        };
        let mut released = 0;
        for id in self.catalog().doc_ids() {
            // A stale document's only current copy is the resident one —
            // evicting it would re-fault the superseded stored content.
            if source.is_stale(id) {
                continue;
            }
            if self.store.release(id) {
                released += 1;
            }
            self.base_lists.invalidate_doc(id);
        }
        released
    }

    /// The engine's always-on worker pool.
    pub fn workers(&self) -> &Arc<WorkerPool> {
        &self.workers
    }

    /// Jobs admitted but not yet started (the live admission-queue depth).
    pub fn queue_depth(&self) -> usize {
        self.queued.load(Ordering::Acquire)
    }

    /// The catalog this engine serves.
    pub fn catalog(&self) -> &Arc<Catalog> {
        self.store.catalog()
    }

    /// The shared document-index store.
    pub fn store(&self) -> &Arc<IndexedStore> {
        &self.store
    }

    /// The shared cross-query base-list cache.
    pub fn base_lists(&self) -> &Arc<BaseListCache> {
        &self.base_lists
    }

    /// A per-query session: a thin [`RoxEnv`] view borrowing this engine's
    /// index store and base-list cache. Cheap enough to create per call —
    /// the only per-session work is resolving the graph's document URIs.
    pub fn session(&self, graph: &JoinGraph) -> Result<RoxEnv, EnvError> {
        RoxEnv::from_shared(
            Arc::clone(&self.store),
            Arc::clone(&self.base_lists),
            Some(Arc::clone(&self.workers)),
            graph,
            Parallelism::Sequential,
        )
    }

    /// Serve one query: guarded replay of the cached plan when
    /// [`RoxOptions::plan_reuse`] allows it and a validated entry exists
    /// (revalidating or demoting per [`crate::guard`]), else run the full
    /// optimizer ([`crate::run_rox`] semantics — the result is
    /// bit-identical to a fresh standalone run) and seed the plan cache
    /// with what it discovered.
    pub fn run(&self, graph: &JoinGraph, options: RoxOptions) -> Result<EngineRun, EnvError> {
        // Serialize the canonical form once per run; the fingerprint, the
        // collision compare, and (on a miss) the seeded entry all reuse it.
        let canonical = graph.canonical_form();
        let fingerprint = rox_joingraph::fingerprint_of(&canonical);
        // Capture the statistics epochs *before* any derived data is
        // touched: a concurrent `invalidate_document` bumps its epoch
        // first, so any invalidation racing this run makes the captured
        // vector stale and the seed/replay below refuses it.
        let epochs = self.capture_epochs(graph);
        if options.plan_reuse == PlanReuse::ReuseValidated {
            if let Some(spec) = self.lookup_validated(fingerprint, &canonical, graph, &epochs) {
                let env = self.session(graph)?;
                let run = guard::run_guarded(&env, graph, &spec, options)
                    .map_err(|e| EnvError { message: e.message })?;
                match run.verdict {
                    GuardVerdict::Revalidated => {
                        self.plan_hits.fetch_add(1, Ordering::Relaxed);
                    }
                    GuardVerdict::Demoted { .. } => {
                        // A demotion is an optimizing run that kept its
                        // executed prefix: count it as a miss, and re-seed
                        // the cache with the refreshed plan, versioned
                        // against the epochs captured at run start.
                        self.plan_demotions.fetch_add(1, Ordering::Relaxed);
                        self.plan_misses.fetch_add(1, Ordering::Relaxed);
                        let expected = guard::plan_expectations(
                            &env,
                            graph,
                            &run.executed_order,
                            &run.edge_log,
                            &options,
                        );
                        let ops = run.edge_log.iter().map(|x| x.op).collect();
                        self.insert_plan(
                            fingerprint,
                            canonical,
                            graph,
                            run.executed_order.clone(),
                            ops,
                            expected,
                            &options,
                            epochs,
                        );
                    }
                }
                return Ok(EngineRun::from_guarded(run, fingerprint));
            }
        }
        let env = self.session(graph)?;
        let report = run_rox_with_env(&env, graph, options)?;
        // Count the miss only once the optimizer actually ran — failed
        // sessions (unknown documents) must not skew the hit rate.
        self.plan_misses.fetch_add(1, Ordering::Relaxed);
        self.seed_plan(
            fingerprint,
            canonical,
            graph,
            &env,
            &report,
            &options,
            epochs,
        );
        Ok(EngineRun::from_report(report, fingerprint))
    }

    /// Serve a batch of queries concurrently on the engine's worker pool
    /// with a concurrency window of `par` threads, all against this
    /// engine's shared caches. Results come back in job order; each job is
    /// exactly one [`RoxEngine::run`].
    ///
    /// The batch is closed-loop, so admission is resolved up front: all
    /// jobs arrive at once, `par` of them start immediately, the next
    /// [`RoxOptions::max_queued`] wait their turn, and any job deeper than
    /// that is rejected with [`ServeError::Overloaded`] — deterministic in
    /// the job index, exactly what an open-loop submitter racing a full
    /// queue would see. (For live open-loop traffic use
    /// [`RoxEngine::try_submit`].)
    pub fn run_many(
        &self,
        jobs: &[(&JoinGraph, RoxOptions)],
        par: Parallelism,
    ) -> Vec<Result<EngineRun, ServeError>> {
        let threads = par.effective_threads(jobs.len(), 1);
        self.jobs_submitted
            .fetch_add(jobs.len() as u64, Ordering::Relaxed);
        self.workers.par_map(threads, jobs.len(), |i| {
            let (graph, options) = jobs[i];
            if let Some(max) = options.max_queued {
                if i >= threads + max {
                    self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded {
                        queued: max,
                        max_queued: max,
                    });
                }
            }
            let run = self.run(graph, options).map_err(ServeError::Env);
            self.jobs_served.fetch_add(1, Ordering::Relaxed);
            run
        })
    }

    /// Submit one query to the serving pool behind the bounded admission
    /// queue, without blocking: returns an [`EngineTicket`] immediately,
    /// or [`ServeError::Overloaded`] when
    /// [`RoxOptions::max_queued`] jobs are already waiting (backpressure —
    /// the caller sheds load instead of buffering unboundedly). The
    /// admission check never blocks and never occupies a worker.
    ///
    /// The job owns a clone of `graph`; the ticket resolves when a worker
    /// finishes the run (or with [`ServeError::Aborted`] if the job
    /// panics or the pool shuts down first).
    pub fn try_submit(
        self: &Arc<Self>,
        graph: &JoinGraph,
        options: RoxOptions,
    ) -> Result<EngineTicket, ServeError> {
        self.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        if let Some(max) = options.max_queued {
            // Claim a queue slot only below the bound (CAS loop — a plain
            // increment could overshoot under contention).
            let mut depth = self.queued.load(Ordering::Acquire);
            loop {
                if depth >= max {
                    self.jobs_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(ServeError::Overloaded {
                        queued: depth,
                        max_queued: max,
                    });
                }
                match self.queued.compare_exchange_weak(
                    depth,
                    depth + 1,
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(_) => break,
                    Err(current) => depth = current,
                }
            }
        } else {
            self.queued.fetch_add(1, Ordering::AcqRel);
        }
        let inner = Arc::new(TicketInner {
            state: Mutex::new(TicketState::Pending),
            cv: Condvar::new(),
        });
        let mut job = JobGuard {
            engine: Arc::clone(self),
            inner: Arc::clone(&inner),
            dequeued: false,
            finished: false,
        };
        let graph = graph.clone();
        self.workers.execute(move || {
            job.dequeue();
            let result = job.engine.run(&graph, options).map_err(ServeError::Env);
            job.finish(result);
        });
        Ok(EngineTicket { inner })
    }

    /// The cached plan for `graph`, if a validated one exists.
    pub fn cached_plan(&self, graph: &JoinGraph) -> Option<CachedPlan> {
        let canonical = graph.canonical_form();
        let fingerprint = rox_joingraph::fingerprint_of(&canonical);
        let epochs = self.capture_epochs(graph);
        self.lookup_validated(fingerprint, &canonical, graph, &epochs)?;
        self.plans
            .lock()
            .expect("plan cache")
            .map
            .get(&fingerprint)
            .cloned()
    }

    /// Cache-effectiveness counters (cheap; all atomics).
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            index_builds: self.store.build_count(),
            base_list_builds: self.base_lists.build_count(),
            base_list_hits: self.base_lists.hit_count(),
            plan_hits: self.plan_hits.load(Ordering::Relaxed),
            plan_misses: self.plan_misses.load(Ordering::Relaxed),
            plan_demotions: self.plan_demotions.load(Ordering::Relaxed),
            cached_plans: self.plans.lock().expect("plan cache").map.len(),
            jobs_submitted: self.jobs_submitted.load(Ordering::Relaxed),
            jobs_served: self.jobs_served.load(Ordering::Relaxed),
            jobs_rejected: self.jobs_rejected.load(Ordering::Relaxed),
            jobs_aborted: self.jobs_aborted.load(Ordering::Relaxed),
            queue_depth: self.queued.load(Ordering::Acquire),
            pages: self
                .snapshot
                .as_ref()
                .map(|s| s.pool_stats())
                .unwrap_or_default(),
            snapshot_pages: self
                .snapshot
                .as_ref()
                .map(|s| s.page_count() as u64)
                .unwrap_or(0),
            storage_loads: self.store.load_count(),
            wal: self
                .durable
                .read()
                .expect("durable state")
                .as_ref()
                .map(|d| d.wal.stats())
                .unwrap_or_default(),
            wal_replayed: self.wal_replayed.load(Ordering::Relaxed),
        }
    }

    /// The current statistics epoch of `uri` (0 until the first
    /// invalidation). Plans record the epochs of every document they touch
    /// and are refused once any recorded epoch is stale.
    pub fn doc_epoch(&self, uri: &str) -> u64 {
        self.doc_epochs
            .read()
            .expect("doc epochs")
            .get(uri)
            .copied()
            .unwrap_or(0)
    }

    /// The `(uri, epoch)` vector for every document `graph` touches,
    /// sorted and deduplicated by URI.
    fn capture_epochs(&self, graph: &JoinGraph) -> Vec<(String, u64)> {
        let mut uris: Vec<String> = graph.vertices().iter().map(|v| v.doc_uri.clone()).collect();
        uris.sort();
        uris.dedup();
        let epochs = self.doc_epochs.read().expect("doc epochs");
        uris.into_iter()
            .map(|uri| {
                let epoch = epochs.get(&uri).copied().unwrap_or(0);
                (uri, epoch)
            })
            .collect()
    }

    /// Drop every cached plan (counters are kept).
    pub fn clear_plan_cache(&self) {
        let mut plans = self.plans.lock().expect("plan cache");
        plans.map.clear();
        plans.fifo.clear();
    }

    /// Invalidate everything derived from document `uri` after a reload:
    /// its statistics epoch (bumped **first** — the versioning rule), its
    /// indexes, its base lists, and every cached plan touching it.
    /// (A stale plan would still produce correct output — any edge order
    /// does — but its order and operator choices were discovered on the
    /// old data.)
    ///
    /// The epoch bump strictly precedes every drop, so any plan lookup or
    /// seed that captured its epochs before this call observes the
    /// mismatch and refuses — a replay racing this invalidation can never
    /// serve, nor re-insert, a plan versioned against the dropped
    /// statistics.
    /// On a durable engine this is [`RoxEngine::try_invalidate_document`]
    /// and panics on a storage failure (the log is poisoned and every
    /// further durable mutation would error anyway); serving setups that
    /// want the error use the `try_` form directly.
    pub fn invalidate_document(&self, uri: &str) {
        self.try_invalidate_document(uri)
            .unwrap_or_else(|e| panic!("durable invalidate of {uri:?} failed: {e}"));
    }

    /// As [`RoxEngine::invalidate_document`], but on a durable engine
    /// the mutation is written ahead: an `epoch-bump` or
    /// `document-invalidate` record (the latter carrying the resident
    /// content and the interner delta) is appended and group-fsynced
    /// **before** any in-memory state changes beyond the epoch bump.
    /// Returns the record's LSN (`None` without a durable directory) —
    /// when this returns `Ok`, the mutation survives any crash.
    pub fn try_invalidate_document(&self, uri: &str) -> Result<Option<Lsn>, StorageError> {
        let durable = self.durable.read().expect("durable state").clone();
        let Some(d) = durable else {
            let epoch = self.bump_epoch(uri);
            self.finish_invalidate(uri, epoch);
            return Ok(None);
        };
        let (lsn, epoch) = {
            let mut cur = d.order.lock().expect("durable order");
            let epoch = self.bump_epoch(uri);
            let record = match self
                .catalog()
                .resolve(uri)
                .and_then(|id| self.catalog().get(id))
            {
                Some(doc) => WalRecord::DocInvalidate {
                    uri: uri.to_string(),
                    epoch,
                    put: self.capture_put(&doc, &mut cur),
                },
                // No resident content to log: only the epoch moves
                // (stored segments become unservable via the sinks).
                None => WalRecord::EpochBump {
                    uri: uri.to_string(),
                    epoch,
                },
            };
            (d.wal.append(&record)?, epoch)
        };
        // The group fsync is the acknowledgement point: after this
        // line the mutation is durable, whatever happens next.
        d.wal.commit(lsn)?;
        self.finish_invalidate(uri, epoch);
        Ok(Some(lsn))
    }

    /// Bump `uri`'s statistics epoch (strictly before any derived data
    /// is dropped — the versioning rule).
    fn bump_epoch(&self, uri: &str) -> u64 {
        let mut epochs = self.doc_epochs.write().expect("doc epochs");
        let e = epochs.entry(uri.to_string()).or_insert(0);
        *e += 1;
        *e
    }

    /// The in-memory half of an invalidation: sinks, index and
    /// base-list drops, plan sweep. The epoch was already bumped.
    fn finish_invalidate(&self, uri: &str, epoch: u64) {
        let id = self.catalog().resolve(uri);
        // Storage sinks first: persistent state derived from the old
        // content (stored index segments) must be unservable before the
        // in-memory derived data is dropped and can be refilled.
        for sink in self.storage_sinks.read().expect("storage sinks").iter() {
            sink.document_invalidated(uri, id, epoch);
        }
        if let Some(id) = id {
            self.store.invalidate(id);
            self.base_lists.invalidate_doc(id);
        }
        self.plans
            .lock()
            .expect("plan cache")
            .map
            .retain(|_, p| !p.doc_uris.iter().any(|u| u == uri));
    }

    /// Capture `doc`'s content for the log along with the interner
    /// delta since the last logged record (under the order lock, so the
    /// delta ranges of successive records tile the symbol space).
    fn capture_put(&self, doc: &Arc<rox_xmldb::Document>, cur: &mut DurableCursor) -> DocPut {
        let interner = self.catalog().interner();
        let base = cur.symbols_logged;
        let new_symbols = interner.dump_from(base);
        cur.symbols_logged = base + new_symbols.len();
        DocPut::from_document(doc, base as u32, new_symbols)
    }

    /// Refresh the derived data of `uri` (indexes, base lists) after an
    /// in-place content change **without** dropping its cached plans or
    /// bumping its statistics epoch — the incremental-update path the
    /// guarded replay defends: plans stay servable, and the next
    /// `ReuseValidated` replay revalidates them against the new data,
    /// demoting mid-query if the content drifted past the thresholds.
    /// On a durable engine this is [`RoxEngine::try_reindex_document`]
    /// and panics on a storage failure.
    pub fn reindex_document(&self, uri: &str) {
        self.try_reindex_document(uri)
            .unwrap_or_else(|e| panic!("durable reindex of {uri:?} failed: {e}"));
    }

    /// As [`RoxEngine::reindex_document`]; on a durable engine a
    /// `document-reindex` record carrying the resident content is
    /// appended and fsynced first (a reindex of a non-resident document
    /// logs nothing — rebuilding indexes from unchanged stored content
    /// is idempotent, so recovery loses nothing by not knowing).
    pub fn try_reindex_document(&self, uri: &str) -> Result<Option<Lsn>, StorageError> {
        let durable = self.durable.read().expect("durable state").clone();
        let lsn = match &durable {
            None => None,
            Some(d) => {
                let mut cur = d.order.lock().expect("durable order");
                match self
                    .catalog()
                    .resolve(uri)
                    .and_then(|id| self.catalog().get(id))
                {
                    Some(doc) => {
                        let record = WalRecord::DocReindex {
                            uri: uri.to_string(),
                            put: self.capture_put(&doc, &mut cur),
                        };
                        Some(d.wal.append(&record)?)
                    }
                    None => None,
                }
            }
        };
        if let (Some(d), Some(lsn)) = (&durable, lsn) {
            d.wal.commit(lsn)?;
        }
        let id = self.catalog().resolve(uri);
        for sink in self.storage_sinks.read().expect("storage sinks").iter() {
            sink.document_reindexed(uri, id);
        }
        if let Some(id) = id {
            self.store.invalidate(id);
            self.base_lists.invalidate_doc(id);
        }
        Ok(lsn)
    }

    /// A cache entry usable for `graph`: fingerprint present, canonical
    /// form equal (collision guard), the stored order still valid for the
    /// graph's edge set, and the plan's statistics epochs equal to the
    /// current ones. Anything less is a miss. Returns the replayable
    /// [`GuardSpec`], so the critical section clones no strings.
    fn lookup_validated(
        &self,
        fingerprint: u64,
        canonical: &str,
        graph: &JoinGraph,
        current_epochs: &[(String, u64)],
    ) -> Option<GuardSpec> {
        let plans = self.plans.lock().expect("plan cache");
        let plan = plans.map.get(&fingerprint)?;
        if plan.canonical != canonical {
            return None;
        }
        if plan.stats_epochs != current_epochs {
            return None;
        }
        if validate_plan(graph, &plan.order).is_err() {
            return None;
        }
        Some(GuardSpec {
            order: plan.order.clone(),
            expected: plan.expected.clone(),
            tau: plan.tau,
            seed: plan.seed,
        })
    }

    #[allow(clippy::too_many_arguments)] // thin shim over insert_plan
    fn seed_plan(
        &self,
        fingerprint: u64,
        canonical: String,
        graph: &JoinGraph,
        env: &RoxEnv,
        report: &RoxReport,
        options: &RoxOptions,
        epochs: Vec<(String, u64)>,
    ) {
        let ops = report.edge_log.iter().map(|x| x.op).collect();
        // Record each edge's observed cardinalities plus — for the
        // spot-check window — the probe estimate a future guarded replay
        // will recompute with the identical procedure (bit-equal on
        // unchanged data).
        let expected = guard::plan_expectations(
            env,
            graph,
            &report.executed_order,
            &report.edge_log,
            options,
        );
        self.insert_plan(
            fingerprint,
            canonical,
            graph,
            report.executed_order.clone(),
            ops,
            expected,
            options,
            epochs,
        );
    }

    /// Insert a plan versioned against `epochs` (captured at run start).
    /// If any of those epochs has advanced since — a concurrent
    /// `invalidate_document` — the insert is refused: the plan was
    /// discovered on statistics that no longer exist. The epoch re-read
    /// happens *inside* the plan-cache critical section, and the
    /// invalidator bumps epochs strictly before its retain-sweep takes the
    /// same lock, so every interleaving either refuses the insert here or
    /// sweeps the entry there.
    #[allow(clippy::too_many_arguments)] // one call site per seeding path
    fn insert_plan(
        &self,
        fingerprint: u64,
        canonical: String,
        graph: &JoinGraph,
        order: Vec<EdgeId>,
        ops: Vec<EdgeOpKind>,
        expected: Vec<EdgeExpectation>,
        options: &RoxOptions,
        epochs: Vec<(String, u64)>,
    ) {
        let mut doc_uris: Vec<String> =
            graph.vertices().iter().map(|v| v.doc_uri.clone()).collect();
        doc_uris.sort();
        doc_uris.dedup();
        let mut plans = self.plans.lock().expect("plan cache");
        {
            let current = self.doc_epochs.read().expect("doc epochs");
            let stale = epochs
                .iter()
                .any(|(uri, epoch)| current.get(uri).copied().unwrap_or(0) != *epoch);
            if stale {
                return;
            }
        }
        plans.insert(
            fingerprint,
            CachedPlan {
                order,
                ops,
                expected,
                tau: options.tau,
                seed: options.seed,
                stats_epochs: epochs,
                canonical,
                doc_uris,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_rox;
    use rox_joingraph::compile_query;

    const SITE: &str = r#"<site><auction><cheap/><bidder><personref person="p1"/></bidder></auction><auction><bidder><personref person="p2"/></bidder><bidder><personref person="p1"/></bidder></auction><person id="p1"/><person id="p2"/></site>"#;

    const Q_STEP: &str = r#"for $a in doc("d.xml")//auction, $b in $a/bidder return $b"#;
    const Q_JOIN: &str = r#"for $r in doc("d.xml")//personref, $p in doc("d.xml")//person
                            where $r/@person = $p/@id return $r"#;

    fn engine() -> RoxEngine {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", SITE).unwrap();
        RoxEngine::new(cat)
    }

    fn reuse() -> RoxOptions {
        RoxOptions {
            plan_reuse: PlanReuse::ReuseValidated,
            ..Default::default()
        }
    }

    #[test]
    fn engine_run_matches_standalone_run_rox() {
        let engine = engine();
        let g = compile_query(Q_JOIN).unwrap();
        let standalone = run_rox(Arc::clone(engine.catalog()), &g, RoxOptions::default()).unwrap();
        let served = engine.run(&g, RoxOptions::default()).unwrap();
        assert_eq!(served.output, standalone.output);
        assert_eq!(served.executed_order, standalone.executed_order);
        assert_eq!(served.edge_log, standalone.edge_log);
        assert_eq!(served.exec_cost, standalone.exec_cost);
        assert_eq!(served.sample_cost, standalone.sample_cost);
    }

    #[test]
    fn warm_identical_query_does_zero_redundant_work() {
        let engine = engine();
        let g = compile_query(Q_STEP).unwrap();
        let cold = engine.run(&g, reuse()).unwrap();
        assert!(!cold.plan_cache_hit);
        let after_cold = engine.stats();
        assert!(after_cold.index_builds > 0);
        assert!(after_cold.base_list_builds > 0);

        let warm = engine.run(&g, reuse()).unwrap();
        let after_warm = engine.stats();
        // The acceptance bar: no index build, no base-list rebuild, and
        // the warm path's only sampling is the guard's spot checks —
        // bounded by what the seeding run's Phase 1 already charged.
        assert_eq!(after_warm.index_builds, after_cold.index_builds);
        assert_eq!(after_warm.base_list_builds, after_cold.base_list_builds);
        assert!(warm.plan_cache_hit);
        assert_eq!(warm.mode, RunMode::Revalidated);
        assert!(warm.sample_cost.total() <= cold.sample_cost.total());
        assert!(!warm.spot_checks.is_empty());
        assert!(warm.spot_checks.iter().all(|c| !c.breached));
        assert_eq!(warm.output, cold.output);
        assert_eq!(warm.executed_order, cold.executed_order);
        assert_eq!(after_warm.plan_hits, 1);
        assert_eq!(after_warm.plan_demotions, 0);
    }

    #[test]
    fn replay_reproduces_operator_choices() {
        let engine = engine();
        let g = compile_query(Q_JOIN).unwrap();
        let cold = engine.run(&g, reuse()).unwrap();
        let warm = engine.run(&g, reuse()).unwrap();
        assert_eq!(warm.edge_log, cold.edge_log);
        let plan = engine.cached_plan(&g).unwrap();
        let replayed: Vec<EdgeOpKind> = warm.edge_log.iter().map(|x| x.op).collect();
        assert_eq!(plan.ops, replayed);
    }

    #[test]
    fn always_optimize_never_replays_but_still_seeds() {
        let engine = engine();
        let g = compile_query(Q_STEP).unwrap();
        let r1 = engine.run(&g, RoxOptions::default()).unwrap();
        let r2 = engine.run(&g, RoxOptions::default()).unwrap();
        assert!(!r1.plan_cache_hit && !r2.plan_cache_hit);
        assert!(r2.sample_cost.total() > 0, "AlwaysOptimize must sample");
        let stats = engine.stats();
        assert_eq!(stats.plan_hits, 0);
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.cached_plans, 1);
        // The seeded plan serves a later ReuseValidated run.
        let r3 = engine.run(&g, reuse()).unwrap();
        assert!(r3.plan_cache_hit);
        assert_eq!(r3.output, r1.output);
    }

    #[test]
    fn different_fingerprints_do_not_cross_hit() {
        let engine = engine();
        let g1 = compile_query(Q_STEP).unwrap();
        let g2 = compile_query(Q_JOIN).unwrap();
        engine.run(&g1, reuse()).unwrap();
        let r2 = engine.run(&g2, reuse()).unwrap();
        assert!(!r2.plan_cache_hit, "distinct query must not hit");
        assert_eq!(engine.stats().cached_plans, 2);
    }

    #[test]
    fn invalidate_document_drops_plans_and_rebuilds() {
        let engine = engine();
        let g = compile_query(Q_STEP).unwrap();
        let cold = engine.run(&g, reuse()).unwrap();
        // Reload with one more bidder; stale caches must not survive.
        let reloaded = SITE.replace(
            "<auction><cheap/>",
            "<auction><cheap/><bidder><personref person=\"p9\"/></bidder>",
        );
        engine.catalog().load_str("d.xml", &reloaded).unwrap();
        engine.invalidate_document("d.xml");
        assert_eq!(engine.stats().cached_plans, 0);
        let fresh = engine.run(&g, reuse()).unwrap();
        assert!(!fresh.plan_cache_hit);
        assert_eq!(fresh.output.len(), cold.output.len() + 1);
    }

    #[test]
    fn run_many_serves_a_mixed_batch() {
        let engine = engine();
        let g1 = compile_query(Q_STEP).unwrap();
        let g2 = compile_query(Q_JOIN).unwrap();
        // Seed both shapes deterministically — a concurrent cold batch may
        // race several optimizing runs per shape, which would make any
        // hit-count assertion scheduling-dependent.
        engine.run(&g1, reuse()).unwrap();
        engine.run(&g2, reuse()).unwrap();
        let jobs: Vec<(&JoinGraph, RoxOptions)> = (0..8)
            .map(|i| (if i % 2 == 0 { &g1 } else { &g2 }, reuse()))
            .collect();
        let runs = engine.run_many(&jobs, Parallelism::Threads(4));
        assert_eq!(runs.len(), 8);
        let expect1 = run_rox(Arc::clone(engine.catalog()), &g1, RoxOptions::default()).unwrap();
        let expect2 = run_rox(Arc::clone(engine.catalog()), &g2, RoxOptions::default()).unwrap();
        for (i, run) in runs.into_iter().enumerate() {
            let run = run.unwrap();
            let expect = if i % 2 == 0 { &expect1 } else { &expect2 };
            assert_eq!(run.output, expect.output, "job {i}");
            assert!(run.plan_cache_hit, "warm job {i} missed the plan cache");
        }
        let stats = engine.stats();
        assert_eq!(stats.plan_hits, 8, "every warm job must replay: {stats:?}");
        assert_eq!(stats.plan_misses, 2);
        assert_eq!(stats.jobs_submitted, 8);
        assert_eq!(stats.jobs_served, 8);
        assert_eq!(stats.jobs_rejected, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    #[test]
    fn try_submit_serves_tickets_and_counts_reconcile() {
        let engine = Arc::new(engine());
        let g = compile_query(Q_JOIN).unwrap();
        let expect = engine.run(&g, RoxOptions::default()).unwrap();
        let tickets: Vec<EngineTicket> = (0..6)
            .map(|_| engine.try_submit(&g, RoxOptions::default()).unwrap())
            .collect();
        for ticket in tickets {
            let outcome = ticket.wait();
            assert_eq!(outcome.result.unwrap().output, expect.output);
        }
        let stats = engine.stats();
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_served, 6);
        assert_eq!(stats.jobs_rejected, 0);
        assert_eq!(stats.jobs_aborted, 0);
        assert_eq!(stats.queue_depth, 0);
    }

    /// The bounded admission queue: with the lone worker pinned, the first
    /// `max_queued` submissions are admitted and the next is rejected with
    /// `Overloaded` — immediately, on the submitter's thread, without ever
    /// blocking or occupying a worker. After the worker is released every
    /// admitted ticket resolves and the counters reconcile.
    #[test]
    fn saturated_queue_rejects_with_overloaded() {
        use rox_par::WorkerPool;
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", SITE).unwrap();
        let engine = Arc::new(RoxEngine::with_workers(cat, Arc::new(WorkerPool::new(1))));
        let g = compile_query(Q_STEP).unwrap();

        // Pin the single worker on a gate so admitted jobs pile up queued.
        let gate = Arc::new((Mutex::new(false), Condvar::new()));
        let g2 = Arc::clone(&gate);
        engine.workers().execute(move || {
            let (lock, cv) = &*g2;
            let mut open = lock.lock().unwrap();
            while !*open {
                open = cv.wait(open).unwrap();
            }
        });

        let options = RoxOptions {
            max_queued: Some(2),
            ..Default::default()
        };
        let t1 = engine.try_submit(&g, options).unwrap();
        let t2 = engine.try_submit(&g, options).unwrap();
        assert_eq!(engine.queue_depth(), 2);
        match engine.try_submit(&g, options) {
            Err(ServeError::Overloaded { queued, max_queued }) => {
                assert_eq!(queued, 2);
                assert_eq!(max_queued, 2);
            }
            other => panic!("expected Overloaded, got {:?}", other.map(|_| "ticket")),
        }

        // Release the worker; both admitted jobs must resolve.
        {
            let (lock, cv) = &*gate;
            *lock.lock().unwrap() = true;
            cv.notify_all();
        }
        assert!(t1.wait().result.is_ok());
        assert!(t2.wait().result.is_ok());
        let stats = engine.stats();
        assert_eq!(stats.jobs_submitted, 3);
        assert_eq!(stats.jobs_served, 2);
        assert_eq!(stats.jobs_rejected, 1);
        assert_eq!(stats.jobs_aborted, 0);
        assert_eq!(stats.queue_depth, 0);
        assert_eq!(
            stats.jobs_submitted,
            stats.jobs_served + stats.jobs_rejected + stats.jobs_aborted
        );
    }

    /// `run_many`'s closed-loop admission rule is deterministic in the job
    /// index: with a window of `threads` and a bound of `m`, exactly the
    /// jobs deeper than `threads + m` come back `Overloaded`.
    #[test]
    fn run_many_admission_is_deterministic() {
        let engine = engine();
        let g = compile_query(Q_STEP).unwrap();
        engine.run(&g, reuse()).unwrap();
        let options = RoxOptions {
            max_queued: Some(1),
            ..reuse()
        };
        let jobs: Vec<(&JoinGraph, RoxOptions)> = (0..6).map(|_| (&g, options)).collect();
        // Threads(2) over 6 jobs → a window of 2, so jobs 0..3 are
        // admitted (2 running + 1 queued) and 3..6 are rejected.
        let runs = engine.run_many(&jobs, Parallelism::Threads(2));
        for (i, run) in runs.iter().enumerate() {
            if i < 3 {
                assert!(run.is_ok(), "job {i} should be admitted");
            } else {
                assert!(
                    matches!(run, Err(ServeError::Overloaded { .. })),
                    "job {i} should be rejected"
                );
            }
        }
        let stats = engine.stats();
        // The seeding run() does not go through the serving path.
        assert_eq!(stats.jobs_submitted, 6);
        assert_eq!(stats.jobs_served, 3);
        assert_eq!(stats.jobs_rejected, 3);
    }

    /// A query failure inside an admitted job comes back through the
    /// ticket as `ServeError::Env`, and still counts as served.
    #[test]
    fn ticket_surfaces_query_errors() {
        let engine = Arc::new(engine());
        let g = compile_query(r#"for $a in doc("missing.xml")//a return $a"#).unwrap();
        let outcome = engine.try_submit(&g, RoxOptions::default()).unwrap().wait();
        assert!(matches!(outcome.result, Err(ServeError::Env(_))));
        let stats = engine.stats();
        assert_eq!(stats.jobs_served, 1);
        assert_eq!(stats.jobs_rejected, 0);
    }

    /// A document with enough structure that drift ratios clear the
    /// absolute floor: `auctions` auctions with `bidders` bidders each.
    fn sized_site(auctions: usize, bidders: usize) -> String {
        let mut xml = String::from("<site>");
        for i in 0..auctions {
            xml.push_str("<auction>");
            if i % 3 == 0 {
                xml.push_str("<cheap/>");
            }
            for b in 0..bidders {
                xml.push_str(&format!(
                    "<bidder><personref person=\"p{}\"/></bidder>",
                    b % 7
                ));
            }
            xml.push_str("</auction>");
        }
        for p in 0..7 {
            xml.push_str(&format!("<person id=\"p{p}\"/>"));
        }
        xml.push_str("</site>");
        xml
    }

    #[test]
    fn invalidate_document_bumps_the_stats_epoch_first() {
        let engine = engine();
        assert_eq!(engine.doc_epoch("d.xml"), 0);
        engine.invalidate_document("d.xml");
        assert_eq!(engine.doc_epoch("d.xml"), 1);
        engine.invalidate_document("d.xml");
        assert_eq!(engine.doc_epoch("d.xml"), 2);
        // Unknown documents have epoch 0 and bumping them is harmless.
        assert_eq!(engine.doc_epoch("other.xml"), 0);
    }

    #[test]
    fn reindex_keeps_plans_and_replay_revalidates() {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", &sized_site(40, 2)).unwrap();
        let engine = RoxEngine::new(cat);
        let g = compile_query(Q_STEP).unwrap();
        let cold = engine.run(&g, reuse()).unwrap();
        // Refresh derived data without content drift: the plan survives
        // and the guarded replay revalidates it against the new indexes.
        engine
            .catalog()
            .load_str("d.xml", &sized_site(40, 2))
            .unwrap();
        engine.reindex_document("d.xml");
        assert_eq!(engine.stats().cached_plans, 1);
        let warm = engine.run(&g, reuse()).unwrap();
        assert_eq!(warm.mode, RunMode::Revalidated);
        assert!(warm.plan_cache_hit);
        assert_eq!(warm.output, cold.output);
        assert_eq!(engine.stats().plan_demotions, 0);
    }

    #[test]
    fn drifted_reindex_demotes_and_reseeds_the_plan() {
        let cat = Arc::new(Catalog::new());
        cat.load_str("d.xml", &sized_site(40, 1)).unwrap();
        let engine = RoxEngine::new(cat);
        let g = compile_query(Q_STEP).unwrap();
        engine.run(&g, reuse()).unwrap();
        // 20x more bidders per auction: the sampled spot check on the
        // step edge breaches long before DRIFT_RATIO allows.
        engine
            .catalog()
            .load_str("d.xml", &sized_site(40, 20))
            .unwrap();
        engine.reindex_document("d.xml");
        let drifted = engine.run(&g, reuse()).unwrap();
        assert!(
            matches!(drifted.mode, RunMode::Demoted { .. }),
            "{:?}",
            drifted.mode
        );
        assert!(!drifted.plan_cache_hit);
        assert!(drifted.spot_checks.iter().any(|c| c.breached));
        let stats = engine.stats();
        assert_eq!(stats.plan_demotions, 1);
        // Output matches a fresh optimizing run on the drifted catalog.
        let fresh = run_rox(Arc::clone(engine.catalog()), &g, RoxOptions::default()).unwrap();
        assert_eq!(drifted.output, fresh.output);
        // The cache now holds the refreshed plan and serves it cleanly.
        assert_eq!(stats.cached_plans, 1);
        let rewarm = engine.run(&g, reuse()).unwrap();
        assert_eq!(rewarm.mode, RunMode::Revalidated);
        assert_eq!(rewarm.output, fresh.output);
    }

    #[test]
    fn unknown_document_surfaces_as_env_error() {
        let engine = engine();
        let g = compile_query(r#"for $i in doc("nope.xml")//x return $i"#).unwrap();
        let e = engine.run(&g, reuse()).unwrap_err();
        assert!(e.message.contains("nope.xml"));
    }
}
