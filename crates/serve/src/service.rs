//! The always-on annotation service: a bounded submission queue, a
//! supervised batcher worker coalescing columns across requests, and an
//! atomically swappable, canary-validated serving artifact.
//!
//! ```text
//!  clients ──▶ submit() ──▶ [bounded queue] ──▶ batcher ──▶ predictor ──▶ splitter ──▶ responses
//!                │                │                │            ▲
//!             Overloaded       deadline        micro-batch   Arc swap
//!             (admission)      (expiry)        (batch_cols)  (validated)
//!                                                  │
//!                                             supervisor
//!                                      (catch_unwind / quarantine /
//!                                       restart with backoff)
//! ```
//!
//! See the [crate docs](crate) for the architecture and guarantees.

use crate::stats::{ServiceStats, StatsCell};
use sato::{ArtifactMeta, PredictorError, SatoPredictor, ServingScratch, TablePrediction};
use sato_index::{ColumnRef, HnswConfig, HnswIndex, IndexError, Neighbor};
use sato_tabular::colstore::{self, ColStoreError};
use sato_tabular::table::{Column, Corpus, Table};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// How often the idle/paused worker wakes to refresh its liveness
/// heartbeat (busy workers beat once per round on top of this).
const HEARTBEAT_TICK: Duration = Duration::from_millis(100);

/// First supervisor restart delay; doubles per consecutive no-progress
/// crash up to [`RESTART_BACKOFF_MAX`].
const RESTART_BACKOFF: Duration = Duration::from_millis(1);

/// Ceiling of the supervisor's exponential restart backoff.
const RESTART_BACKOFF_MAX: Duration = Duration::from_millis(64);

/// Consecutive worker crashes with no completed round in between before
/// the supervisor stops restarting and fail-stops the service: queued
/// requests are answered [`ServeError::Stopped`], new submissions get
/// [`ServeError::ShuttingDown`]. A crash loop that makes no progress is a
/// systemic fault (not a poison pill — those are quarantined inside one
/// worker lifetime) and restarting forever would just burn CPU.
pub const MAX_CONSECUTIVE_RESTARTS: u32 = 8;

/// Artifact-load attempts per [`SatoService::load_artifact`] call:
/// transient I/O errors are retried with doubling backoff this many times
/// before the swap is abandoned and rolled back.
pub const SWAP_LOAD_ATTEMPTS: u32 = 4;

/// First retry delay of [`SatoService::load_artifact`]; doubles per
/// attempt up to [`SWAP_RETRY_BACKOFF_MAX`].
const SWAP_RETRY_BACKOFF: Duration = Duration::from_millis(2);

/// Ceiling of the artifact-load retry backoff.
const SWAP_RETRY_BACKOFF_MAX: Duration = Duration::from_millis(50);

/// Lock a mutex, recovering the guard if a previous holder panicked. All
/// service state guarded by mutexes (queue, predictor `Arc`) is kept
/// consistent *before* any panic can fire — the panic-prone work (feature
/// extraction, inference) runs with no lock held — so a poisoned lock
/// carries no torn data and clients must keep working after a worker
/// crash rather than cascading the panic forever.
fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Microseconds elapsed since `since`, saturating into `u64`.
fn elapsed_us(since: Instant) -> u64 {
    since.elapsed().as_micros().min(u128::from(u64::MAX)) as u64
}

/// Tuning knobs of a [`SatoService`]. The defaults are a reasonable
/// starting point for a single-worker, CPU-bound deployment; the `satobench`
/// `serve` workload measures the defaults.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Target columns per shared micro-batch: the batcher keeps pulling
    /// queued requests until at least this many columns are pending (a
    /// batch can overshoot when a wide table lands on the boundary, and
    /// undershoots rather than waits when the queue runs dry — latency is
    /// never traded for fill when there is nothing else to coalesce).
    pub batch_cols: usize,
    /// Admission bound: submissions beyond this many queued requests are
    /// rejected with [`ServeError::Overloaded`] instead of growing the
    /// queue (and its tail latency) without limit.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry their own. `None`
    /// means no deadline: requests wait as long as the queue takes.
    pub default_deadline: Option<Duration>,
    /// Capacity of the worker's topic memo (0 disables it): topic vectors
    /// cached by table content and reused when the same table is served
    /// again (invalidated across hot-swaps automatically).
    pub topic_memo_capacity: usize,
    /// Opt-in **index-on-annotate**: when set, every column served by the
    /// batcher also has its embedding inserted into a shared in-process
    /// [`HnswIndex`] (built with this configuration), keyed by
    /// `(table_id, col_idx)` — so a data lake becomes ANN-searchable as a
    /// side effect of being annotated. The index is keyed to the artifact
    /// that embedded its vectors and is invalidated by hot-swaps; inserts
    /// are idempotent, so re-submitted tables (including quarantine
    /// re-serves) never duplicate nodes. `None` (the default) disables
    /// indexing entirely — the serving hot path is untouched.
    pub index_on_annotate: Option<HnswConfig>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            batch_cols: 64,
            queue_depth: 256,
            default_deadline: None,
            topic_memo_capacity: 0,
            index_on_annotate: None,
        }
    }
}

/// Per-request submission options.
#[derive(Debug, Clone, Copy, Default)]
pub struct RequestOptions {
    /// Deadline for *this* request, overriding
    /// [`ServiceConfig::default_deadline`]. A request whose deadline passes
    /// while it is still queued is dropped **at batch formation** — before
    /// any feature extraction or network work is spent on it — and answered
    /// with [`ServeError::Expired`].
    pub deadline: Option<Duration>,
}

/// Everything that can go wrong between submitting a request and receiving
/// its response.
#[derive(Debug)]
pub enum ServeError {
    /// Admission control: the queue was at [`ServiceConfig::queue_depth`]
    /// when the request arrived. `queued` is the depth observed.
    Overloaded {
        /// Requests queued at the moment of rejection.
        queued: usize,
    },
    /// The service is shutting down and no longer admits requests.
    ShuttingDown,
    /// The request's deadline passed before its batch was formed.
    Expired,
    /// The service stopped before answering (worker gone).
    Stopped,
    /// A colstore submission failed to decode.
    Corpus(ColStoreError),
    /// Quarantine verdict: serving panicked on every round containing this
    /// request and on the request alone, so bisection isolated it as the
    /// culprit. Only the poisoned request sees this error — every other
    /// request of the panicking round was re-served normally.
    Poisoned,
    /// A hot-swap was rejected and rolled back: the candidate artifact
    /// could not be loaded (after transient-I/O retries) or failed canary
    /// validation. The incumbent artifact is still serving, untouched.
    Swap(PredictorError),
    /// An index operation failed. For [`SatoService::load_index`] this is a
    /// rejected-and-rolled-back sidecar (unreadable, corrupt, or keyed to a
    /// different artifact than the one serving) — the incumbent index, if
    /// any, is untouched.
    Index(IndexError),
    /// The annotate-time ANN index is not available: indexing is disabled
    /// ([`ServiceConfig::index_on_annotate`] is `None`), nothing has been
    /// annotated yet, or a hot-swap invalidated the index and no round has
    /// rebuilt it since.
    IndexUnavailable,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { queued } => {
                write!(f, "service overloaded: {queued} requests queued")
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
            ServeError::Expired => write!(f, "request deadline expired before batching"),
            ServeError::Stopped => write!(f, "service stopped before responding"),
            ServeError::Corpus(e) => write!(f, "colstore submission: {e}"),
            ServeError::Poisoned => {
                write!(f, "request quarantined: serving it panics the predictor")
            }
            ServeError::Swap(e) => write!(f, "hot-swap rolled back: {e}"),
            ServeError::Index(e) => write!(f, "index operation failed: {e}"),
            ServeError::IndexUnavailable => {
                write!(
                    f,
                    "annotate-time index unavailable (disabled, empty or invalidated)"
                )
            }
        }
    }
}

impl std::error::Error for ServeError {}

impl From<ColStoreError> for ServeError {
    fn from(e: ColStoreError) -> Self {
        ServeError::Corpus(e)
    }
}

/// A completed annotation: one [`TablePrediction`] per submitted table, in
/// submission order, tagged with the identity of the artifact that served
/// it.
#[derive(Debug, Clone, PartialEq)]
pub struct AnnotationResponse {
    /// One prediction per submitted table, in order — bit-identical to
    /// running [`SatoPredictor::predict_corpus_batched`] over the request's
    /// tables on the tagged artifact.
    pub predictions: Vec<TablePrediction>,
    /// [`SatoPredictor::content_hash`] of the artifact that served this
    /// request (a whole request is always served by exactly one artifact,
    /// even when its tables span several micro-batches).
    pub artifact_hash: u64,
    /// Submission-to-response wall-clock time.
    pub latency: Duration,
}

/// The client's end of a pending request.
///
/// A handle yields **exactly one terminal result**. After
/// [`wait_timeout`](Self::wait_timeout) has returned `Some(..)` once —
/// or the service stopped and dropped its sender — every further call
/// returns `Some(Err(ServeError::Stopped))` immediately instead of
/// leaving pollers on `None` forever.
pub struct ResponseHandle {
    rx: mpsc::Receiver<Result<AnnotationResponse, ServeError>>,
    /// Set once a terminal result (response or disconnect) has been
    /// observed; later polls short-circuit to `Stopped`.
    terminal: Cell<bool>,
}

impl ResponseHandle {
    fn new(rx: mpsc::Receiver<Result<AnnotationResponse, ServeError>>) -> Self {
        ResponseHandle {
            rx,
            terminal: Cell::new(false),
        }
    }

    /// Block until the response arrives (or the service stops).
    pub fn wait(self) -> Result<AnnotationResponse, ServeError> {
        if self.terminal.get() {
            return Err(ServeError::Stopped);
        }
        self.rx.recv().unwrap_or(Err(ServeError::Stopped))
    }

    /// Block for at most `timeout`; `None` means still pending. Once a
    /// result has been yielded (or the service stopped), every subsequent
    /// call returns `Some(Err(ServeError::Stopped))` — a poller never
    /// spins on `None` against a dead service.
    pub fn wait_timeout(
        &self,
        timeout: Duration,
    ) -> Option<Result<AnnotationResponse, ServeError>> {
        if self.terminal.get() {
            return Some(Err(ServeError::Stopped));
        }
        match self.rx.recv_timeout(timeout) {
            Ok(result) => {
                self.terminal.set(true);
                Some(result)
            }
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                self.terminal.set(true);
                Some(Err(ServeError::Stopped))
            }
        }
    }
}

/// One queued annotation request.
struct QueuedRequest {
    tables: Vec<Table>,
    cols: usize,
    deadline: Option<Instant>,
    enqueued: Instant,
    tx: mpsc::Sender<Result<AnnotationResponse, ServeError>>,
}

/// Queue state behind the mutex (counters live lock-free in [`StatsCell`]).
struct QueueState {
    deque: VecDeque<QueuedRequest>,
    /// `false` once shutdown begins: no further admissions; the worker
    /// drains what is queued, answers it, and exits.
    open: bool,
    /// While `true` the worker forms no batches (queued requests wait).
    /// Maintenance/testing seam; cleared by shutdown so a paused service
    /// still drains.
    paused: bool,
}

/// State shared between the service handle, its clients, the worker and
/// the supervisor.
struct Shared {
    queue: Mutex<QueueState>,
    cond: Condvar,
    /// The serving artifact. Hot-swap is an atomic pointer swap under this
    /// mutex (held only to clone/replace the `Arc`, never during
    /// inference); the worker re-reads it at every batch-formation round,
    /// so in-flight rounds drain on the artifact they started with.
    predictor: Mutex<Arc<SatoPredictor>>,
    /// The annotate-time ANN index (see
    /// [`ServiceConfig::index_on_annotate`]). `None` until the first
    /// indexed round, and again after a hot-swap invalidates it. Locked
    /// only outside the unwind boundary of a round — a panicking round
    /// never touches it, so the graph can never be observed torn.
    index: Mutex<Option<HnswIndex>>,
    stats: StatsCell,
    config: ServiceConfig,
    /// Service start time: the origin of the heartbeat clock.
    started: Instant,
}

/// A long-running, in-process annotation service over a frozen
/// [`SatoPredictor`]: many concurrent clients submit tables, corpora or
/// colstore streams; a single batcher worker coalesces columns from
/// *different* requests into shared micro-batches, runs one forward pass
/// per batch, and splits the probability rows back per request.
///
/// The worker runs under a supervisor: each round is panic-contained
/// (`catch_unwind`), a panicking round is bisected to quarantine the
/// poison-pill request ([`ServeError::Poisoned`]) while every innocent
/// request is re-served bit-identically, and a worker that dies anyway is
/// restarted with capped exponential backoff. All locks recover from
/// poisoning, so clients keep submitting across worker crashes.
///
/// See the [crate docs](crate) for the full architecture, and
/// [`ServiceConfig`] for the admission/batching/deadline knobs.
pub struct SatoService {
    shared: Arc<Shared>,
    supervisor: Option<std::thread::JoinHandle<()>>,
}

impl SatoService {
    /// Start the service over `predictor`, spawning the supervisor (which
    /// spawns and babysits the batcher worker).
    pub fn start(predictor: SatoPredictor, config: ServiceConfig) -> Self {
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState {
                deque: VecDeque::new(),
                open: true,
                paused: false,
            }),
            cond: Condvar::new(),
            predictor: Mutex::new(Arc::new(predictor)),
            index: Mutex::new(None),
            stats: StatsCell::new(),
            config,
            started: Instant::now(),
        });
        let supervisor_shared = Arc::clone(&shared);
        let supervisor = std::thread::Builder::new()
            .name("sato-serve-supervisor".to_string())
            .spawn(move || supervisor_loop(supervisor_shared))
            .expect("spawn sato-serve supervisor thread");
        SatoService {
            shared,
            supervisor: Some(supervisor),
        }
    }

    /// Submit a multi-table request. Admission is checked under the queue
    /// lock: beyond [`ServiceConfig::queue_depth`] pending requests the
    /// submission is rejected with [`ServeError::Overloaded`] (counted in
    /// [`ServiceStats::rejected`]) instead of queuing.
    pub fn submit(
        &self,
        tables: Vec<Table>,
        options: RequestOptions,
    ) -> Result<ResponseHandle, ServeError> {
        let deadline = options.deadline.or(self.shared.config.default_deadline);
        let now = Instant::now();
        let cols = tables.iter().map(|t| t.num_columns()).sum();
        let (tx, rx) = mpsc::channel();
        {
            let mut q = lock_recover(&self.shared.queue);
            if !q.open {
                return Err(ServeError::ShuttingDown);
            }
            if q.deque.len() >= self.shared.config.queue_depth {
                self.shared.stats.rejected.fetch_add(1, Relaxed);
                return Err(ServeError::Overloaded {
                    queued: q.deque.len(),
                });
            }
            q.deque.push_back(QueuedRequest {
                tables,
                cols,
                deadline: deadline.map(|d| now + d),
                enqueued: now,
                tx,
            });
            self.shared.stats.admitted.fetch_add(1, Relaxed);
        }
        self.shared.cond.notify_all();
        Ok(ResponseHandle::new(rx))
    }

    /// Submit a single table.
    pub fn submit_table(
        &self,
        table: Table,
        options: RequestOptions,
    ) -> Result<ResponseHandle, ServeError> {
        self.submit(vec![table], options)
    }

    /// Submit every table of a corpus as one request (the response's
    /// predictions are in corpus order).
    pub fn submit_corpus(
        &self,
        corpus: Corpus,
        options: RequestOptions,
    ) -> Result<ResponseHandle, ServeError> {
        self.submit(corpus.tables, options)
    }

    /// Submit a `SATOCOL1` colstore byte stream: frames are decoded at
    /// submission time (the ingest path parses, the batcher only batches)
    /// and served like any other multi-table request. A corrupt stream
    /// fails only this submission with [`ServeError::Corpus`]; the service
    /// is untouched.
    pub fn submit_colstore_bytes(
        &self,
        bytes: &[u8],
        options: RequestOptions,
    ) -> Result<ResponseHandle, ServeError> {
        let corpus = colstore::corpus_from_bytes(bytes)?;
        self.submit(corpus.tables, options)
    }

    /// Blocking convenience: submit and wait.
    pub fn annotate(&self, tables: Vec<Table>) -> Result<AnnotationResponse, ServeError> {
        self.submit(tables, RequestOptions::default())?.wait()
    }

    /// Blocking convenience: submit one table and wait.
    pub fn annotate_table(&self, table: Table) -> Result<AnnotationResponse, ServeError> {
        self.annotate(vec![table])
    }

    /// **Zero-downtime hot-swap**: atomically replace the serving artifact.
    /// The swap is an `Arc` pointer swap — no queued request is dropped, no
    /// client blocks, and any batch-formation round already holding the old
    /// artifact drains on it (its responses stay tagged with the old
    /// content hash). Requests batched after the swap serve on — and are
    /// tagged with — the new artifact.
    ///
    /// The predictor handed in here is swapped in as-is (the caller built
    /// it in-process, so it is already structurally valid). The file-based
    /// path, [`Self::load_artifact`], additionally canary-validates the
    /// candidate and rolls back on any failure.
    pub fn swap_predictor(&self, predictor: SatoPredictor) -> ArtifactMeta {
        let meta = predictor.artifact_meta();
        let hash = predictor.content_hash();
        *lock_recover(&self.shared.predictor) = Arc::new(predictor);
        self.shared.stats.swaps.fetch_add(1, Relaxed);
        // The annotate-time index is keyed to the artifact that embedded
        // its vectors: embeddings across artifacts are not comparable, so a
        // swap to a different artifact invalidates the index outright (it
        // rebuilds from subsequent annotated traffic, or via
        // [`Self::load_index`] from a sidecar of the new artifact).
        let mut index = lock_recover(&self.shared.index);
        if index.as_ref().is_some_and(|i| i.artifact_hash() != hash) {
            *index = None;
        }
        meta
    }

    /// **Validated hot-swap** from a `SATOART1` binary artifact file.
    ///
    /// The swap only happens after the candidate has fully proven itself;
    /// on any failure the incumbent artifact keeps serving, untouched, and
    /// the attempt is counted in [`ServiceStats::swap_rollbacks`]:
    ///
    /// 1. **Load with retry**: transient I/O errors (file mid-write, a
    ///    flaky network mount) are retried up to [`SWAP_LOAD_ATTEMPTS`]
    ///    times with doubling backoff. Structural corruption (bad magic,
    ///    checksum mismatch, truncation) is rejected immediately — it will
    ///    not heal by waiting.
    /// 2. **Canary validation**: the candidate smoke-predicts a small
    ///    fixed table inside `catch_unwind`; a panic, a wrong output
    ///    shape or a non-finite probability rejects the swap.
    /// 3. Only then the `Arc` swap of [`Self::swap_predictor`] runs — so a
    ///    client can never observe a half-swapped or invalid artifact.
    pub fn load_artifact(
        &self,
        path: impl AsRef<std::path::Path>,
    ) -> Result<ArtifactMeta, ServeError> {
        let path = path.as_ref();
        let mut backoff = SWAP_RETRY_BACKOFF;
        let mut attempt = 1u32;
        let candidate = loop {
            match SatoPredictor::load(path) {
                Ok(candidate) => break candidate,
                Err(PredictorError::Io(_)) if attempt < SWAP_LOAD_ATTEMPTS => {
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff = (backoff * 2).min(SWAP_RETRY_BACKOFF_MAX);
                }
                Err(e) => return Err(self.reject_swap(e)),
            }
        };
        if let Err(e) = validate_candidate(&candidate) {
            return Err(self.reject_swap(e));
        }
        Ok(self.swap_predictor(candidate))
    }

    /// Record a rolled-back swap attempt and build its error.
    fn reject_swap(&self, error: PredictorError) -> ServeError {
        self.shared.stats.swap_rollbacks.fetch_add(1, Relaxed);
        ServeError::Swap(error)
    }

    /// Identity of the artifact currently serving new rounds.
    pub fn artifact_meta(&self) -> ArtifactMeta {
        lock_recover(&self.shared.predictor).artifact_meta()
    }

    /// Columns currently in the annotate-time ANN index: 0 when indexing is
    /// disabled, nothing has been annotated yet, or a hot-swap invalidated
    /// the index.
    pub fn index_len(&self) -> usize {
        lock_recover(&self.shared.index)
            .as_ref()
            .map_or(0, HnswIndex::len)
    }

    /// k-nearest-neighbour search over the annotate-time index: which
    /// already-annotated columns embed closest to `query`? Returns up to
    /// `k` neighbours in ascending distance. `query` is a column embedding
    /// of the serving artifact (e.g. from
    /// [`sato::SatoPredictor::column_embeddings_into`] or a previous
    /// response's tables re-embedded client-side).
    pub fn search_index(&self, query: &[f32], k: usize) -> Result<Vec<Neighbor>, ServeError> {
        let guard = lock_recover(&self.shared.index);
        let Some(index) = guard.as_ref() else {
            return Err(ServeError::IndexUnavailable);
        };
        if query.len() != index.dim() {
            return Err(ServeError::Index(IndexError::Corrupt(format!(
                "query dimension {} does not match index dimension {}",
                query.len(),
                index.dim()
            ))));
        }
        Ok(index.search_knn(query, k))
    }

    /// Persist the annotate-time index as a `SATOIDX1` sidecar file (keyed
    /// to the artifact that embedded its vectors, so it can only ever be
    /// loaded back next to that artifact).
    pub fn save_index(&self, path: impl AsRef<std::path::Path>) -> Result<(), ServeError> {
        let guard = lock_recover(&self.shared.index);
        let Some(index) = guard.as_ref() else {
            return Err(ServeError::IndexUnavailable);
        };
        index.save(path).map_err(ServeError::Index)
    }

    /// **Validated index load** from a `SATOIDX1` sidecar file, mirroring
    /// [`Self::load_artifact`]'s rollback contract: the candidate must
    /// parse, checksum, pass graph validation *and* be keyed to the
    /// artifact currently serving. On any failure the incumbent index (if
    /// any) keeps serving untouched and the attempt is counted in
    /// [`ServiceStats::index_rollbacks`]. Returns the loaded column count.
    pub fn load_index(&self, path: impl AsRef<std::path::Path>) -> Result<usize, ServeError> {
        // Parse and checksum without any lock held (file I/O is slow), then
        // pin the serving artifact while validating the pairing and
        // publishing the index, so a concurrent hot-swap cannot slip a
        // mismatched artifact in between validation and publication.
        let candidate = match HnswIndex::load(&path) {
            Ok(candidate) => candidate,
            Err(e) => return Err(self.reject_index(e)),
        };
        let predictor = lock_recover(&self.shared.predictor);
        if let Err(e) = candidate.verify_artifact(predictor.content_hash()) {
            return Err(self.reject_index(e));
        }
        let len = candidate.len();
        *lock_recover(&self.shared.index) = Some(candidate);
        drop(predictor);
        Ok(len)
    }

    /// Record a rolled-back index load/apply and build its error.
    fn reject_index(&self, error: IndexError) -> ServeError {
        self.shared.stats.index_rollbacks.fetch_add(1, Relaxed);
        ServeError::Index(error)
    }

    /// Requests currently queued.
    pub fn queue_len(&self) -> usize {
        lock_recover(&self.shared.queue).deque.len()
    }

    /// Point-in-time counter snapshot (see [`ServiceStats`]).
    pub fn stats(&self) -> ServiceStats {
        let queue_len = self.queue_len();
        let stats = &self.shared.stats;
        ServiceStats {
            admitted: stats.admitted.load(Relaxed),
            rejected: stats.rejected.load(Relaxed),
            expired: stats.expired.load(Relaxed),
            completed: stats.completed.load(Relaxed),
            swaps: stats.swaps.load(Relaxed),
            swap_rollbacks: stats.swap_rollbacks.load(Relaxed),
            batches: stats.batches.load(Relaxed),
            batched_columns: stats.batched_columns.load(Relaxed),
            rounds: stats.rounds.load(Relaxed),
            worker_restarts: stats.worker_restarts.load(Relaxed),
            quarantined: stats.quarantined.load(Relaxed),
            indexed_columns: stats.indexed_columns.load(Relaxed),
            index_rollbacks: stats.index_rollbacks.load(Relaxed),
            heartbeat_age_us: elapsed_us(self.shared.started)
                .saturating_sub(stats.heartbeat_us.load(Relaxed)),
            queue_len,
            artifact: self.artifact_meta(),
            batch_fill_deciles: std::array::from_fn(|i| stats.fill[i].load(Relaxed)),
            latency: stats.latency.snapshot(),
        }
    }

    /// Stop forming batches; submissions still queue (up to the admission
    /// bound) and deadlines keep ticking. A maintenance/testing seam —
    /// shutdown un-pauses so a paused service still drains.
    pub fn pause(&self) {
        lock_recover(&self.shared.queue).paused = true;
        self.shared.cond.notify_all();
    }

    /// Resume batch formation after [`Self::pause`].
    pub fn resume(&self) {
        lock_recover(&self.shared.queue).paused = false;
        self.shared.cond.notify_all();
    }

    /// Graceful shutdown: stop admitting, drain and answer everything
    /// queued, join the supervision tree, and return the final counter
    /// snapshot.
    pub fn shutdown(mut self) -> ServiceStats {
        self.begin_shutdown();
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join().expect("sato-serve supervisor panicked");
        }
        self.stats()
    }

    fn begin_shutdown(&self) {
        let mut q = lock_recover(&self.shared.queue);
        q.open = false;
        q.paused = false;
        drop(q);
        self.shared.cond.notify_all();
    }
}

impl Drop for SatoService {
    fn drop(&mut self) {
        self.begin_shutdown();
        if let Some(supervisor) = self.supervisor.take() {
            supervisor.join().expect("sato-serve supervisor panicked");
        }
    }
}

/// A fresh, empty serving scratch sized for `config`. Also used to replace
/// a scratch whose owning round panicked — the panic may have fired
/// mid-write, so nothing inside the old scratch can be trusted.
fn fresh_scratch(config: &ServiceConfig) -> ServingScratch {
    if config.topic_memo_capacity > 0 {
        ServingScratch::new().with_topic_memo_capacity(config.topic_memo_capacity)
    } else {
        ServingScratch::new()
    }
}

/// The supervisor: spawn the batcher worker, join it, and decide what a
/// death means. A clean exit is shutdown — the supervisor exits too. A
/// panic is counted ([`ServiceStats::worker_restarts`]) and the worker is
/// respawned after an exponential backoff (capped at
/// [`RESTART_BACKOFF_MAX`]); the backoff and the give-up counter reset
/// whenever the dead worker had completed at least one round since the
/// previous crash. [`MAX_CONSECUTIVE_RESTARTS`] no-progress crashes in a
/// row fail-stop the service instead of looping forever.
fn supervisor_loop(shared: Arc<Shared>) {
    let mut backoff = RESTART_BACKOFF;
    let mut consecutive = 0u32;
    let mut rounds_at_last_crash = 0u64;
    loop {
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name("sato-serve-batcher".to_string())
            .spawn(move || worker_loop(worker_shared))
            .expect("spawn sato-serve batcher thread");
        if worker.join().is_ok() {
            return; // clean drain: shutdown complete
        }
        shared.stats.worker_restarts.fetch_add(1, Relaxed);
        let rounds = shared.stats.rounds.load(Relaxed);
        if rounds != rounds_at_last_crash {
            rounds_at_last_crash = rounds;
            consecutive = 1;
            backoff = RESTART_BACKOFF;
        } else {
            consecutive += 1;
        }
        if consecutive >= MAX_CONSECUTIVE_RESTARTS {
            fail_stop(&shared);
            return;
        }
        std::thread::sleep(backoff);
        backoff = (backoff * 2).min(RESTART_BACKOFF_MAX);
    }
}

/// Give up on restarting: close admission and answer everything queued
/// with [`ServeError::Stopped`] so no client blocks on a worker that will
/// never come back.
fn fail_stop(shared: &Shared) {
    let mut q = lock_recover(&shared.queue);
    q.open = false;
    while let Some(req) = q.deque.pop_front() {
        let _ = req.tx.send(Err(ServeError::Stopped));
    }
    drop(q);
    shared.cond.notify_all();
}

/// The batcher worker: wait for work, form a round, expire what is past
/// deadline, pin the serving artifact, serve the round in shared
/// micro-batches (panic-contained, with quarantine bisection), answer each
/// request. Beats the liveness heartbeat at least every
/// [`HEARTBEAT_TICK`], even while idle or paused.
fn worker_loop(shared: Arc<Shared>) {
    let mut scratch = fresh_scratch(&shared.config);
    let target = shared.config.batch_cols.max(1);
    loop {
        shared.stats.beat(elapsed_us(shared.started));
        // Round formation: pull queued requests until the target column
        // count is pending (or the queue runs dry — a lone request is
        // served immediately rather than waiting for fill).
        let round: Vec<QueuedRequest> = {
            let mut q = lock_recover(&shared.queue);
            loop {
                if !q.open && q.deque.is_empty() {
                    return; // drained; exit
                }
                if !q.deque.is_empty() && (!q.paused || !q.open) {
                    break;
                }
                let (guard, _) = shared
                    .cond
                    .wait_timeout(q, HEARTBEAT_TICK)
                    .unwrap_or_else(PoisonError::into_inner);
                q = guard;
                shared.stats.beat(elapsed_us(shared.started));
            }
            // Named injection point `serve.round_formation`, keyed by the
            // queue depth (chaos builds only). It fires *before* any
            // request is popped, so a panic here kills the worker — and
            // poisons the queue mutex — without losing a single request:
            // the restarted worker picks the queue up where it stood.
            #[cfg(feature = "faults")]
            sato_faults::fire_panic("serve.round_formation", q.deque.len() as u64);
            let mut round = Vec::new();
            let mut cols = 0usize;
            while let Some(front) = q.deque.front() {
                if !round.is_empty() && cols >= target {
                    break;
                }
                cols += front.cols;
                round.push(q.deque.pop_front().expect("front exists"));
            }
            round
        };
        shared.stats.rounds.fetch_add(1, Relaxed);

        // Deadlines are enforced here — *before* the batch is formed — so an
        // expired request costs neither feature extraction nor a forward
        // pass, and never displaces live work from the batch.
        let now = Instant::now();
        let mut live = Vec::with_capacity(round.len());
        for req in round {
            if req.deadline.is_some_and(|d| now >= d) {
                shared.stats.expired.fetch_add(1, Relaxed);
                let _ = req.tx.send(Err(ServeError::Expired));
            } else {
                live.push(req);
            }
        }
        if live.is_empty() {
            continue;
        }

        // Pin the serving artifact for this round: every table of every
        // request in the round — even one spanning several micro-batches —
        // is served by this one predictor, so a response is never a
        // mixed-artifact patchwork across a concurrent hot-swap.
        let predictor: Arc<SatoPredictor> = lock_recover(&shared.predictor).clone();
        serve_round(&shared, &predictor, &mut scratch, live, target);
    }
}

/// Serve one round with panic containment: compute every request's
/// predictions inside `catch_unwind`, and only then move the requests into
/// their responses. On a panic nothing has been answered yet — the scratch
/// is replaced (the panic may have torn it mid-write) and the round goes
/// to quarantine bisection, which re-serves the innocent requests through
/// this same function and fails only the culprit.
fn serve_round(
    shared: &Shared,
    predictor: &SatoPredictor,
    scratch: &mut ServingScratch,
    live: Vec<QueuedRequest>,
    target: usize,
) {
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        compute_outputs(shared, predictor, scratch, &live, target)
    }));
    match outcome {
        Ok((outputs, pending)) => {
            // The round succeeded: apply its captured embeddings to the
            // shared ANN index *before* answering, so a client that reads
            // its response and immediately queries the index sees its own
            // columns. On a panicking round `pending` is simply dropped —
            // the index never observes a half-computed round.
            apply_index(shared, predictor, pending);
            respond(shared, predictor.content_hash(), live, outputs);
        }
        Err(_) => {
            *scratch = fresh_scratch(&shared.config);
            quarantine(shared, predictor, scratch, live, target);
        }
    }
}

/// Column embeddings captured while a round computes, applied to the
/// shared ANN index only after the round's unwind boundary is crossed.
/// Rows are `dim`-wide, one per key, in batch order.
#[derive(Default)]
struct PendingIndex {
    dim: usize,
    keys: Vec<ColumnRef>,
    vecs: Vec<f32>,
}

/// Apply one round's captured embeddings to the shared annotate-time index
/// (opt-in via [`ServiceConfig::index_on_annotate`]; a no-op otherwise).
///
/// Indexing is best-effort and must never fail annotation: the inserts run
/// inside their own unwind boundary, and a panic while growing the graph
/// (e.g. an injected `index.insert` fault) may have torn links mid-write,
/// so the whole index is dropped — counted in
/// [`ServiceStats::index_rollbacks`] — and rebuilds from subsequent
/// traffic, while the round's clients are answered normally. Hot-swaps
/// also invalidate lazily here: an index keyed to a different artifact
/// than the round's pinned predictor is replaced with a fresh one before
/// any insert (embeddings across artifacts are not comparable).
fn apply_index(shared: &Shared, predictor: &SatoPredictor, pending: PendingIndex) {
    let Some(hnsw_config) = shared.config.index_on_annotate else {
        return;
    };
    if pending.keys.is_empty() {
        return;
    }
    let hash = predictor.content_hash();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        let mut guard = lock_recover(&shared.index);
        let index = match guard.as_mut() {
            Some(index) if index.artifact_hash() == hash => index,
            _ => guard.insert(HnswIndex::new(pending.dim, hash, hnsw_config)),
        };
        let mut inserted = 0u64;
        for (i, &key) in pending.keys.iter().enumerate() {
            let vector = &pending.vecs[i * pending.dim..(i + 1) * pending.dim];
            if index.insert(key, vector) {
                inserted += 1;
            }
        }
        inserted
    }));
    match outcome {
        Ok(inserted) => {
            shared.stats.indexed_columns.fetch_add(inserted, Relaxed);
        }
        Err(_) => {
            *lock_recover(&shared.index) = None;
            shared.stats.index_rollbacks.fetch_add(1, Relaxed);
        }
    }
}

/// Bisect a panicking round to isolate the poison pill. Each half is
/// re-served through [`serve_round`]; a half that still panics keeps
/// splitting until a single request remains, which is failed with
/// [`ServeError::Poisoned`] and counted in [`ServiceStats::quarantined`].
///
/// Innocent requests re-served along the way stay **bit-identical** to the
/// sequential oracle: micro-batch composition never changes serving output
/// (every eval-mode stage is row-independent — the same invariant that
/// makes cross-request coalescing exact), so serving them in smaller
/// rounds yields the bytes the original round would have.
fn quarantine(
    shared: &Shared,
    predictor: &SatoPredictor,
    scratch: &mut ServingScratch,
    mut live: Vec<QueuedRequest>,
    target: usize,
) {
    if live.len() <= 1 {
        if let Some(req) = live.pop() {
            shared.stats.quarantined.fetch_add(1, Relaxed);
            let _ = req.tx.send(Err(ServeError::Poisoned));
        }
        return;
    }
    let right = live.split_off(live.len() / 2);
    serve_round(shared, predictor, scratch, live, target);
    serve_round(shared, predictor, scratch, right, target);
}

/// Compute one round's predictions: coalesce the requests' tables into
/// micro-batches of at least `target` columns with the predictor's batch
/// former (so outputs are bit-identical to `predict_corpus_batched`), one
/// forward pass per batch, and split the predictions back per request.
/// Pure compute — nothing is sent to clients here, so the caller's
/// `catch_unwind` can treat a panic as "nobody was answered".
fn compute_outputs(
    shared: &Shared,
    predictor: &SatoPredictor,
    scratch: &mut ServingScratch,
    live: &[QueuedRequest],
    target: usize,
) -> (Vec<Vec<TablePrediction>>, PendingIndex) {
    // Named injection point `serve.round`, keyed by the number of requests
    // in the round (chaos builds only). Inside the unwind boundary: an
    // injected panic exercises quarantine, an injected delay stalls the
    // round without blocking submitters.
    #[cfg(feature = "faults")]
    sato_faults::fire_panic("serve.round", live.len() as u64);
    let indexing = shared.config.index_on_annotate.is_some();
    let mut embeddings = PendingIndex::default();
    let tables = live.iter().flat_map(|req| &req.tables);
    let mut predictions = predictor
        .predict_tables_batched(tables, target, scratch, |batch, scratch| {
            let cols = batch.iter().map(|t| t.num_columns()).sum();
            shared.stats.record_batch(cols, target);
            // Index-on-annotate capture: the batch's column embeddings (one
            // row per column, in batch order) are still in the scratch — the
            // head reads them without overwriting — so indexing costs a row
            // copy, never a second forward pass.
            if indexing {
                let rows = scratch.embeddings();
                embeddings.dim = rows.cols();
                let keys = batch.iter().flat_map(|t| {
                    (0..t.num_columns() as u32).map(|col_idx| ColumnRef {
                        table_id: t.id,
                        col_idx,
                    })
                });
                for (row, key) in keys.enumerate() {
                    embeddings.keys.push(key);
                    embeddings.vecs.extend_from_slice(rows.row(row));
                }
            }
        })
        .into_iter();
    let outputs = live
        .iter()
        .map(|req| predictions.by_ref().take(req.tables.len()).collect())
        .collect();
    (outputs, embeddings)
}

/// Answer every request of a computed round: record latency and completion
/// and send each response tagged with the round's artifact.
fn respond(
    shared: &Shared,
    artifact_hash: u64,
    live: Vec<QueuedRequest>,
    outputs: Vec<Vec<TablePrediction>>,
) {
    for (req, predictions) in live.into_iter().zip(outputs) {
        let latency = req.enqueued.elapsed();
        shared
            .stats
            .latency
            .record(latency.as_micros().min(u128::from(u64::MAX)) as u64);
        shared.stats.completed.fetch_add(1, Relaxed);
        let _ = req.tx.send(Ok(AnnotationResponse {
            predictions,
            artifact_hash,
            latency,
        }));
    }
}

/// The fixed table smoke-predicted on every [`SatoService::load_artifact`]
/// candidate before it may swap in: one textual and one numeric column,
/// enough to drive feature extraction, topic estimation (when the model
/// carries one) and a forward pass end to end.
fn canary_table() -> Table {
    Table::unlabelled(
        u64::MAX,
        vec![
            Column::new(["Warsaw", "London", "Springfield"]),
            Column::new(["12.5", "7", "19.25"]),
        ],
    )
}

/// Canary validation of a hot-swap candidate: predict the fixed canary
/// table inside `catch_unwind` and sanity-check the output shape. The
/// checksum/consistency layers of the artifact codec catch file-level
/// corruption; this catches the rest — any candidate that would panic or
/// emit garbage on its very first real request is rejected *before* the
/// swap, while the incumbent still serves.
fn validate_candidate(candidate: &SatoPredictor) -> Result<(), PredictorError> {
    let canary = canary_table();
    let expected = canary.num_columns();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        (candidate.predict_proba(&canary), candidate.predict(&canary))
    }));
    let Ok((probs, types)) = outcome else {
        return Err(PredictorError::Corrupt(
            "hot-swap candidate panicked predicting the canary table".to_string(),
        ));
    };
    if probs.len() != expected || types.len() != expected {
        return Err(PredictorError::Corrupt(format!(
            "hot-swap candidate predicted {} probability rows / {} types for the \
             {expected}-column canary table",
            probs.len(),
            types.len(),
        )));
    }
    if probs
        .iter()
        .any(|row| row.is_empty() || row.iter().any(|p| !p.is_finite()))
    {
        return Err(PredictorError::Corrupt(
            "hot-swap candidate produced empty or non-finite canary probabilities".to_string(),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sato::{SatoConfig, SatoModel, SatoVariant};
    use sato_tabular::corpus::default_corpus;
    use std::sync::OnceLock;

    fn tiny_config() -> SatoConfig {
        let mut config = SatoConfig::fast();
        config.network.epochs = 4;
        config
    }

    /// Two distinct trained Base-variant predictors (no LDA/CRF training
    /// cost), shared across tests. Base keeps these unit tests fast; the
    /// full variant × sampler × hot-swap matrix lives in the integration
    /// proptest suite.
    fn predictors() -> &'static (SatoPredictor, SatoPredictor) {
        static PREDICTORS: OnceLock<(SatoPredictor, SatoPredictor)> = OnceLock::new();
        PREDICTORS.get_or_init(|| {
            let a = SatoModel::train(&default_corpus(20, 7), tiny_config(), SatoVariant::Base)
                .into_predictor();
            let b = SatoModel::train(&default_corpus(20, 8), tiny_config(), SatoVariant::Base)
                .into_predictor();
            assert_ne!(a.content_hash(), b.content_hash());
            (a, b)
        })
    }

    /// A predictor is immutable and not `Clone`; round-trip its canonical
    /// bytes to hand an owned copy to a service.
    fn copy_of(p: &SatoPredictor) -> SatoPredictor {
        SatoPredictor::from_bytes(&p.to_bytes()).unwrap()
    }

    /// Sequential single-table reference prediction.
    fn reference_one(p: &SatoPredictor, table: &Table) -> TablePrediction {
        p.predict_corpus(&Corpus::new(vec![table.clone()]))
            .pop()
            .unwrap()
    }

    /// A unique temp-file path for this test run.
    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("sato_serve_{}_{name}", std::process::id()))
    }

    #[test]
    fn coalesced_serving_is_bit_identical_to_batched_reference() {
        let (a, _) = predictors();
        let corpus = default_corpus(6, 42);
        let config = ServiceConfig {
            batch_cols: 5,
            ..ServiceConfig::default()
        };
        let reference = a.predict_corpus_batched(&corpus, config.batch_cols);
        let service = SatoService::start(copy_of(a), config);
        // Several concurrent requests over slices of the corpus: coalesced
        // micro-batches must reproduce the per-table reference exactly.
        let handles: Vec<ResponseHandle> = corpus
            .tables
            .iter()
            .map(|t| {
                service
                    .submit_table(t.clone(), RequestOptions::default())
                    .unwrap()
            })
            .collect();
        let mut served = Vec::new();
        for handle in handles {
            let response = handle.wait().unwrap();
            assert_eq!(response.artifact_hash, a.content_hash());
            assert_eq!(response.predictions.len(), 1);
            served.extend(response.predictions);
        }
        assert_eq!(reference, served);
        // A zero-table request is answered (empty), not wedged.
        let empty = service.annotate(Vec::new()).unwrap();
        assert!(empty.predictions.is_empty());
        let stats = service.shutdown();
        assert_eq!(stats.admitted, corpus.tables.len() as u64 + 1);
        assert_eq!(stats.completed, stats.admitted);
        assert_eq!(stats.rejected, 0);
        assert_eq!(stats.expired, 0);
        assert!(stats.batches >= 1);
        assert_eq!(stats.latency.count(), stats.completed);
        // A healthy run: rounds advanced, nothing crashed or quarantined,
        // no swap was rolled back, and the worker's heartbeat was fresh.
        assert!(stats.rounds >= 1);
        assert_eq!(stats.worker_restarts, 0);
        assert_eq!(stats.quarantined, 0);
        assert_eq!(stats.swap_rollbacks, 0);
        assert!(stats.heartbeat_age_us < 10_000_000, "stale heartbeat");
    }

    #[test]
    fn admission_control_rejects_beyond_queue_depth() {
        let (a, _) = predictors();
        let corpus = default_corpus(5, 9);
        let service = SatoService::start(
            copy_of(a),
            ServiceConfig {
                queue_depth: 3,
                ..ServiceConfig::default()
            },
        );
        service.pause(); // deterministic: nothing drains while we overfill
        let mut handles = Vec::new();
        for table in corpus.tables.iter().take(3).cloned() {
            handles.push(
                service
                    .submit_table(table, RequestOptions::default())
                    .unwrap(),
            );
        }
        let overflow = service.submit_table(corpus.tables[3].clone(), RequestOptions::default());
        assert!(matches!(
            overflow,
            Err(ServeError::Overloaded { queued: 3 })
        ));
        service.resume();
        for handle in handles {
            assert!(handle.wait().is_ok());
        }
        let stats = service.shutdown();
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.completed, 3);
    }

    #[test]
    fn expired_deadlines_are_dropped_before_batching() {
        let (a, _) = predictors();
        let corpus = default_corpus(3, 11);
        let service = SatoService::start(copy_of(a), ServiceConfig::default());
        service.pause();
        let doomed = service
            .submit_table(
                corpus.tables[0].clone(),
                RequestOptions {
                    deadline: Some(Duration::ZERO),
                },
            )
            .unwrap();
        let alive = service
            .submit_table(
                corpus.tables[1].clone(),
                RequestOptions {
                    deadline: Some(Duration::from_secs(600)),
                },
            )
            .unwrap();
        service.resume();
        assert!(matches!(doomed.wait(), Err(ServeError::Expired)));
        assert!(alive.wait().is_ok());
        let stats = service.shutdown();
        assert_eq!(stats.expired, 1);
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn hot_swap_tags_responses_with_serving_artifact() {
        let (a, b) = predictors();
        let corpus = default_corpus(4, 13);
        let service = SatoService::start(copy_of(a), ServiceConfig::default());
        assert_eq!(service.artifact_meta(), a.artifact_meta());
        let before = service.annotate_table(corpus.tables[0].clone()).unwrap();
        assert_eq!(before.artifact_hash, a.content_hash());

        let meta = service.swap_predictor(copy_of(b));
        assert_eq!(meta, b.artifact_meta());
        assert_eq!(service.artifact_meta(), b.artifact_meta());
        let after = service.annotate_table(corpus.tables[1].clone()).unwrap();
        assert_eq!(after.artifact_hash, b.content_hash());
        // Responses match each serving artifact's own sequential reference.
        assert_eq!(before.predictions[0], reference_one(a, &corpus.tables[0]));
        assert_eq!(after.predictions[0], reference_one(b, &corpus.tables[1]));

        let stats = service.shutdown();
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.artifact.content_hash, b.content_hash());
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let (a, _) = predictors();
        let corpus = default_corpus(3, 17);
        let service = SatoService::start(copy_of(a), ServiceConfig::default());
        service.pause();
        let queued = service
            .submit_table(corpus.tables[0].clone(), RequestOptions::default())
            .unwrap();
        // shutdown() un-pauses, drains the queue, then joins the worker.
        let stats = service.shutdown();
        assert!(queued.wait().is_ok());
        assert_eq!(stats.completed, 1);
    }

    #[test]
    fn locks_recover_after_a_client_panic_poisons_them() {
        let (a, b) = predictors();
        let corpus = default_corpus(3, 19);
        let service = SatoService::start(copy_of(a), ServiceConfig::default());
        // Poison both service mutexes the way a buggy client callback
        // would: lock, panic, unwind.
        let shared = Arc::clone(&service.shared);
        let poisoner = std::thread::spawn(move || {
            let _queue = shared.queue.lock().unwrap();
            let _predictor = shared.predictor.lock().unwrap();
            panic!("deliberate poisoning of the service mutexes");
        });
        assert!(poisoner.join().is_err());
        assert!(service.shared.queue.is_poisoned());
        assert!(service.shared.predictor.is_poisoned());
        // Every public entry point — and the worker itself — recovers.
        assert_eq!(service.queue_len(), 0);
        service.pause();
        service.resume();
        assert_eq!(service.artifact_meta(), a.artifact_meta());
        let response = service.annotate_table(corpus.tables[0].clone()).unwrap();
        assert_eq!(response.predictions[0], reference_one(a, &corpus.tables[0]));
        service.swap_predictor(copy_of(b));
        let swapped = service.annotate_table(corpus.tables[1].clone()).unwrap();
        assert_eq!(swapped.artifact_hash, b.content_hash());
        let stats = service.shutdown();
        assert_eq!(stats.completed, 2);
        assert_eq!(stats.worker_restarts, 0);
    }

    #[test]
    fn wait_timeout_surfaces_stopped_after_terminal_result() {
        let (a, _) = predictors();
        let corpus = default_corpus(2, 23);
        let service = SatoService::start(copy_of(a), ServiceConfig::default());
        let handle = service
            .submit_table(corpus.tables[0].clone(), RequestOptions::default())
            .unwrap();
        let mut first = None;
        for _ in 0..2000 {
            if let Some(result) = handle.wait_timeout(Duration::from_millis(10)) {
                first = Some(result);
                break;
            }
        }
        assert!(first.expect("response within 20 s").is_ok());
        // The one terminal result is spent: polling again reports Stopped
        // immediately instead of pretending the request is still pending.
        assert!(matches!(
            handle.wait_timeout(Duration::from_millis(1)),
            Some(Err(ServeError::Stopped))
        ));
        assert!(matches!(handle.wait(), Err(ServeError::Stopped)));
        service.shutdown();
    }

    #[test]
    fn dropping_the_service_mid_wait_resolves_pollers() {
        let (a, _) = predictors();
        let corpus = default_corpus(2, 29);
        let service = SatoService::start(copy_of(a), ServiceConfig::default());
        let handle = service
            .submit_table(corpus.tables[0].clone(), RequestOptions::default())
            .unwrap();
        let poller = std::thread::spawn(move || {
            // Poll forever: the drop below must terminate this loop, either
            // with the drained response or with Stopped — never a hang.
            loop {
                if let Some(result) = handle.wait_timeout(Duration::from_millis(5)) {
                    // A second poll after the terminal result is Stopped.
                    let next = handle.wait_timeout(Duration::from_millis(1));
                    assert!(matches!(next, Some(Err(ServeError::Stopped))));
                    return result;
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        drop(service); // drains the queue, then drops the worker's senders
        let result = poller.join().expect("poller never hangs");
        // Drop drains gracefully, so the queued request was answered.
        assert!(result.is_ok());
    }

    #[test]
    fn corrupt_artifact_hot_swap_rolls_back_to_incumbent() {
        let (a, b) = predictors();
        let corpus = default_corpus(3, 31);
        let service = SatoService::start(copy_of(a), ServiceConfig::default());

        // Truncated artifact: valid magic, torn tail — a torn write.
        let truncated = temp_path("truncated.satoart");
        let bytes = b.to_bytes();
        std::fs::write(&truncated, &bytes[..bytes.len() / 2]).unwrap();
        let err = service.load_artifact(&truncated).unwrap_err();
        assert!(matches!(err, ServeError::Swap(_)), "{err}");

        // Garbage artifact: not even the magic survives.
        let garbage = temp_path("garbage.satoart");
        std::fs::write(&garbage, b"definitely not a SATOART1 artifact").unwrap();
        assert!(matches!(
            service.load_artifact(&garbage),
            Err(ServeError::Swap(PredictorError::BadMagic))
        ));

        // Missing artifact: I/O, retried with backoff, then rolled back.
        let missing = temp_path("does_not_exist.satoart");
        assert!(matches!(
            service.load_artifact(&missing),
            Err(ServeError::Swap(PredictorError::Io(_)))
        ));

        // The incumbent never stopped serving, bit-identically.
        assert_eq!(service.artifact_meta(), a.artifact_meta());
        let response = service.annotate_table(corpus.tables[0].clone()).unwrap();
        assert_eq!(response.artifact_hash, a.content_hash());
        assert_eq!(response.predictions[0], reference_one(a, &corpus.tables[0]));

        // A healthy artifact file still swaps in.
        let good = temp_path("good.satoart");
        std::fs::write(&good, &bytes).unwrap();
        let meta = service.load_artifact(&good).unwrap();
        assert_eq!(meta, b.artifact_meta());
        let swapped = service.annotate_table(corpus.tables[1].clone()).unwrap();
        assert_eq!(swapped.artifact_hash, b.content_hash());

        let stats = service.shutdown();
        assert_eq!(stats.swap_rollbacks, 3);
        assert_eq!(stats.swaps, 1);
        assert_eq!(stats.artifact.content_hash, b.content_hash());
        for path in [truncated, garbage, good] {
            let _ = std::fs::remove_file(path);
        }
    }

    #[test]
    fn canary_validation_accepts_healthy_predictors() {
        let (a, b) = predictors();
        assert!(validate_candidate(a).is_ok());
        assert!(validate_candidate(b).is_ok());
    }

    #[test]
    fn indexing_is_off_by_default() {
        let (a, _) = predictors();
        let service = SatoService::start(copy_of(a), ServiceConfig::default());
        let corpus = default_corpus(4, 61);
        service.annotate(corpus.tables).unwrap();
        assert_eq!(service.index_len(), 0);
        assert!(matches!(
            service.search_index(&[0.0; 4], 3),
            Err(ServeError::IndexUnavailable)
        ));
        assert!(matches!(
            service.save_index(temp_path("never_written.satoidx")),
            Err(ServeError::IndexUnavailable)
        ));
        let stats = service.shutdown();
        assert_eq!(stats.indexed_columns, 0);
        assert_eq!(stats.index_rollbacks, 0);
    }

    #[test]
    fn index_on_annotate_builds_searchable_idempotent_index() {
        let (a, _) = predictors();
        let corpus = default_corpus(8, 91);
        let total_cols: usize = corpus.iter().map(|t| t.num_columns()).sum();
        let config = ServiceConfig {
            batch_cols: 7, // force the round to span several micro-batches
            index_on_annotate: Some(HnswConfig::default()),
            ..ServiceConfig::default()
        };
        let service = SatoService::start(copy_of(a), config);
        assert!(matches!(
            service.search_index(&[0.0; 4], 3),
            Err(ServeError::IndexUnavailable)
        ));

        service.annotate(corpus.tables.clone()).unwrap();
        assert_eq!(service.index_len(), total_cols);

        // Self-lookup: each annotated column's own embedding (recomputed on
        // the reference copy of the same artifact) finds itself at distance
        // zero — the index holds exactly the bytes the serving path
        // embedded, across micro-batch boundaries.
        for table in corpus.iter().take(4) {
            for (c, embedding) in a.column_embeddings(table).iter().enumerate() {
                let hits = service.search_index(embedding, 1).unwrap();
                assert_eq!(
                    hits[0].key,
                    ColumnRef {
                        table_id: table.id,
                        col_idx: c as u32
                    },
                    "table {} col {c}",
                    table.id
                );
                assert_eq!(hits[0].distance, 0.0);
            }
        }

        // A query of the wrong width is a typed error, not a panic.
        assert!(matches!(
            service.search_index(&[0.0; 3], 1),
            Err(ServeError::Index(IndexError::Corrupt(_)))
        ));

        // Re-annotating the same tables re-serves fine and indexes nothing
        // new: inserts are idempotent by (table_id, col_idx).
        service.annotate(corpus.tables.clone()).unwrap();
        assert_eq!(service.index_len(), total_cols);

        let stats = service.shutdown();
        assert_eq!(stats.indexed_columns, total_cols as u64);
        assert_eq!(stats.index_rollbacks, 0);
    }

    #[test]
    fn hot_swap_invalidates_index_and_sidecar_load_is_validated() {
        let (a, b) = predictors();
        let config = ServiceConfig {
            index_on_annotate: Some(HnswConfig::default()),
            ..ServiceConfig::default()
        };
        let service = SatoService::start(copy_of(a), config);
        let corpus = default_corpus(5, 92);
        service.annotate(corpus.tables.clone()).unwrap();
        let built = service.index_len();
        assert!(built > 0);

        // Persist the index under artifact A, then hot-swap to B: the
        // index is keyed to A's embeddings, so the swap invalidates it.
        let sidecar = temp_path("swap.satoidx");
        service.save_index(&sidecar).unwrap();
        service.swap_predictor(copy_of(b));
        assert_eq!(service.index_len(), 0, "hot-swap must invalidate the index");

        // The sidecar is keyed to A; loading it while B serves is rejected
        // and rolled back (there is no incumbent to disturb).
        assert!(matches!(
            service.load_index(&sidecar),
            Err(ServeError::Index(IndexError::ArtifactMismatch { .. }))
        ));
        assert_eq!(service.index_len(), 0);

        // Annotating under B rebuilds the index from B's embeddings.
        service.annotate(corpus.tables.clone()).unwrap();
        assert_eq!(service.index_len(), built);

        // Swapping back to A invalidates again, and A's sidecar restores
        // the saved index wholesale.
        service.swap_predictor(copy_of(a));
        assert_eq!(service.index_len(), 0);
        assert_eq!(service.load_index(&sidecar).unwrap(), built);
        assert_eq!(service.index_len(), built);

        // A corrupt sidecar is rejected with the incumbent untouched.
        let corrupt = temp_path("corrupt.satoidx");
        let mut bytes = std::fs::read(&sidecar).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        std::fs::write(&corrupt, &bytes).unwrap();
        assert!(matches!(
            service.load_index(&corrupt),
            Err(ServeError::Index(IndexError::Checksum(_)))
        ));
        assert_eq!(service.index_len(), built);

        let stats = service.shutdown();
        assert_eq!(stats.index_rollbacks, 2);
        assert_eq!(stats.swaps, 2);
        for path in [sidecar, corrupt] {
            let _ = std::fs::remove_file(path);
        }
    }
}
