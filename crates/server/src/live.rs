//! A real, thread-based mini inference server.
//!
//! Where [`crate::Experiment`] *models* the paper's server with calibrated
//! costs, this module *is* a server: crossbeam channels connect real
//! preprocessing workers (JPEG decode via `vserve-codec`, resize +
//! normalize via `vserve-tensor`), a dynamic batcher with a bounded
//! queueing delay, and inference workers executing a real `vserve-dnn`
//! model. It exists to validate the pipeline structure end-to-end and to
//! let the examples measure genuine per-stage times on the host machine.
//!
//! Three properties make it a throughput-oriented server rather than a
//! demo loop:
//!
//! * **True batched execution** — assembled batches run through
//!   [`Model::forward_batch`] as *one* inference call (a single batched
//!   im2col/GEMM per layer), not a per-item `forward` loop, so dynamic
//!   batching actually amortizes work.
//! * **Backpressure** — the ingress queue is bounded
//!   ([`LiveOptions::queue_cap`]); requests beyond the cap fail fast with
//!   [`LiveError::Overloaded`], and an optional per-request
//!   [`LiveOptions::deadline`] sheds stale work instead of serving it
//!   late, so overload degrades gracefully instead of growing memory.
//! * **Metrics** — [`LiveServer::metrics`] snapshots the same quantities
//!   the simulator's `ServerReport` exposes (throughput, latency summary,
//!   per-stage breakdown, mean batch size, queue depth), reducible to the
//!   shared [`ServingSummary`] shape for one-to-one sim-vs-live
//!   comparison.
//!
//! # No-panic guarantee
//!
//! This module is reachable from remote clients through `vserve-net`, so
//! its non-test paths never `unwrap()` a lock or channel: metrics locks
//! recover from poisoning ([`Shared::lock`] takes the inner value), cache
//! and coalescing locks degrade to a cache miss on failure, and every
//! reply/channel send ignores a disconnected peer. A failure anywhere in
//! the pipeline fails *the request* (with a [`LiveError`] the front-end
//! maps to a typed status frame), never the process. The
//! `drop_with_requests_in_flight_answers_or_disconnects` test pins the
//! shutdown half of this contract.
//!
//! # Examples
//!
//! ```
//! use std::time::Duration;
//! use vserve_dnn::{models, Model};
//! use vserve_server::live::{LiveOptions, LiveServer};
//! use vserve_workload::synthetic_jpeg;
//! use vserve_device::ImageSpec;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let model = Model::from_graph(models::micro_cnn(32, 10)?, 7);
//! let server = LiveServer::start(model, LiveOptions { input_side: 32, ..LiveOptions::default() });
//! let jpeg = synthetic_jpeg(&ImageSpec::new(64, 48, 0), 1);
//! let result = server.infer(jpeg)?;
//! assert_eq!(result.output.len(), 10);
//! let m = server.metrics();
//! assert_eq!(m.completed, 1);
//! # Ok(())
//! # }
//! ```

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use crossbeam::channel::{bounded, Receiver, RecvTimeoutError, Sender, TrySendError};
use vserve_compute::{Backend, Scratch};
use vserve_dnn::Model;
use vserve_metrics::{
    LatencyStats, LatencySummary, RateMeter, StageBreakdown, TimeWeightedGauge, Welford,
};
use vserve_sched::{SchedOptions, Scheduler, TenantSpec, TokenBucket};
use vserve_tensor::{ops, Tensor};
use vserve_trace::{TraceHandle, Tracer};

use crate::cache::{
    preproc_spec_fingerprint, resolve_capacity_mb, CacheKey, PreprocCache, PreprocCacheStats,
};
use crate::report::{stages, ServingSummary};

/// Span/event names the live server records beyond the canonical
/// [`stages`](crate::report::stages) constants.
///
/// Stage spans (`1-queue`, `2-preproc`, `4-inference`) reuse the
/// breakdown's constants so per-stage span sums reconcile with
/// `StageBreakdown` totals; the names here are the extra zero-duration
/// marker events and the batch-level bookkeeping spans.
pub mod trace_events {
    /// Request accepted into the bounded ingress queue (event; bytes =
    /// payload size).
    pub const INGRESS: &str = "ingress";
    /// Preprocessed-tensor cache hit (event).
    pub const CACHE_HIT: &str = "cache-hit";
    /// Preprocessed-tensor cache miss — a real decode follows (event).
    pub const CACHE_MISS: &str = "cache-miss";
    /// Duplicate request parked on an in-flight leader decode (event).
    pub const COALESCE: &str = "cache-coalesce";
    /// Batcher flushed a batch (event; `batch_id` set, bytes = batch
    /// size).
    pub const BATCH: &str = "batch-flush";
    /// Inference worker delivering a batch's replies (span; request_id 0,
    /// bytes = batch size).
    pub const RESPOND: &str = "respond";
}

/// Environment variable read by [`LiveOptions::default`] for the batch
/// linger (the batcher's maximum queueing delay) in **microseconds**.
/// Unset or unparsable falls back to 2000 µs.
pub const BATCH_LINGER_US_ENV: &str = "VSERVE_BATCH_LINGER_US";

/// Default batch linger when [`BATCH_LINGER_US_ENV`] is unset.
pub const DEFAULT_BATCH_LINGER: Duration = Duration::from_millis(2);

fn default_batch_linger() -> Duration {
    std::env::var(BATCH_LINGER_US_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<u64>().ok())
        .map(Duration::from_micros)
        .unwrap_or(DEFAULT_BATCH_LINGER)
}

/// Tenant specs read from [`vserve_sched::TENANTS_ENV`]
/// (`VSERVE_TENANTS`) by [`LiveOptions::default`]; unset or unparsable
/// yields the empty (single-lane) configuration.
fn tenants_from_env() -> Vec<TenantSpec> {
    std::env::var(vserve_sched::TENANTS_ENV)
        .ok()
        .and_then(|v| vserve_sched::parse_tenants(&v).ok())
        .unwrap_or_default()
}

/// Configuration for a [`LiveServer`].
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Preprocessing worker threads.
    pub preproc_workers: usize,
    /// Inference worker threads.
    pub inference_workers: usize,
    /// Maximum batch size assembled by the batcher (initial value; a
    /// controller may retune it at runtime via
    /// [`LiveServer::set_max_batch`]).
    pub max_batch: usize,
    /// Maximum time the batcher waits to fill a batch (the batch
    /// *linger*; initial value, retunable via
    /// [`LiveServer::set_batch_linger`]). The default reads
    /// [`BATCH_LINGER_US_ENV`].
    pub max_queue_delay: Duration,
    /// Side of the square model input.
    pub input_side: usize,
    /// Ingress queue capacity; submissions beyond it are rejected with
    /// [`LiveError::Overloaded`] instead of queueing unboundedly.
    pub queue_cap: usize,
    /// Optional per-request deadline measured from submission; requests
    /// still unserved past it fail with [`LiveError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Threads in the shared compute [`Backend`] used by JPEG decode,
    /// preprocessing, and the model's kernels. `0` reads `VSERVE_THREADS`
    /// or falls back to the host's available parallelism (the paper's
    /// testbed pins stages to cores of an i9-13900K the same way).
    /// Results are bit-identical for any value.
    pub backend_threads: usize,
    /// Use the DCT-domain scaled decode + fused resize/normalize fast
    /// path ([`vserve_codec::preprocess_jpeg_with`]) instead of the
    /// unfused full-resolution chain. The fast path approximates the
    /// baseline numerics (not bit-identical to it) but is itself
    /// deterministic across thread counts and cache settings.
    pub fast_preproc: bool,
    /// Capacity of the content-addressed preprocessed-tensor cache in
    /// MiB. `Some(0)` disables it; `None` reads
    /// [`PREPROC_CACHE_MB_ENV`](crate::cache::PREPROC_CACHE_MB_ENV) and
    /// falls back to
    /// [`DEFAULT_PREPROC_CACHE_MB`](crate::cache::DEFAULT_PREPROC_CACHE_MB).
    pub preproc_cache_mb: Option<usize>,
    /// Coalesce concurrent duplicate requests: while one worker
    /// preprocesses a payload, other requests with identical bytes park
    /// and share its result instead of decoding again.
    pub coalesce: bool,
    /// Request-level tracer. The default reads `VSERVE_TRACE` /
    /// `VSERVE_TRACE_BUF` ([`Tracer::from_env`]); a disabled tracer (env
    /// unset) costs one branch per record site. Pass
    /// [`Tracer::with_capacity`] to trace programmatically and read the
    /// timeline back through [`LiveServer::tracer`].
    pub trace: Tracer,
    /// Multi-tenant lane specs (`{model, weight, priority, deadline,
    /// quota}` per tenant). Empty — the default — runs the classic
    /// single-lane server; otherwise one [`ModelLane`-backed
    /// lane](vserve_sched) is created per tenant, scheduled by weighted
    /// deficit round-robin with strict priority classes, with per-tenant
    /// token-bucket quotas and EDF-style admission shedding typed
    /// [`LiveError::QuotaExceeded`] / [`LiveError::SloInfeasible`]
    /// before work is queued. The default reads `VSERVE_TENANTS`
    /// ([`vserve_sched::TENANTS_ENV`], parsed by
    /// [`vserve_sched::parse_tenants`]).
    pub tenants: Vec<TenantSpec>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            preproc_workers: 2,
            inference_workers: 1,
            max_batch: 8,
            max_queue_delay: default_batch_linger(),
            input_side: 224,
            queue_cap: 256,
            deadline: None,
            backend_threads: 0,
            fast_preproc: true,
            preproc_cache_mb: None,
            coalesce: true,
            trace: Tracer::from_env(),
            tenants: tenants_from_env(),
        }
    }
}

/// Per-request result with measured stage times.
///
/// Stage semantics mirror the simulator's per-request breakdown:
/// `inference` is the *per-item* share of the batch wall time
/// (`batch wall / batch_size`, matching the sim's per-image attribution),
/// so summing `inference` across a batch's results recovers the batch
/// wall. `total` is the full round trip and therefore exceeds
/// `queue + preproc + inference` for batched requests by the batch
/// co-residency time.
#[derive(Debug, Clone)]
pub struct LiveResult {
    /// Model output (flat logits/probabilities).
    pub output: Vec<f32>,
    /// Time spent decoding + resizing + normalizing.
    pub preproc: Duration,
    /// Time spent waiting (ingress queue + batcher).
    pub queue: Duration,
    /// Per-item share of model execution: batch wall time / batch size.
    pub inference: Duration,
    /// Size of the batch this request executed in.
    pub batch_size: usize,
    /// Submission-to-response round trip.
    pub total: Duration,
}

/// Errors returned by [`LiveServer::infer`].
#[derive(Debug)]
pub enum LiveError {
    /// The JPEG payload failed to decode.
    Decode(vserve_codec::DecodeJpegError),
    /// The model rejected the preprocessed tensor.
    Model(vserve_dnn::DnnError),
    /// The bounded ingress queue was full; the request was shed
    /// immediately rather than queued.
    Overloaded,
    /// The request's deadline passed before it reached inference.
    DeadlineExceeded,
    /// The tenant's token-bucket quota was empty at admission; the
    /// request was shed before any work was queued.
    QuotaExceeded,
    /// EDF admission estimated the lane could not serve the request
    /// within its tenant deadline (queued depth × learned per-item cost
    /// + linger exceeds the SLO), so it was shed before queueing.
    SloInfeasible,
    /// The server shut down before responding.
    Disconnected,
}

impl std::fmt::Display for LiveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LiveError::Decode(e) => write!(f, "decode failed: {e}"),
            LiveError::Model(e) => write!(f, "model failed: {e}"),
            LiveError::Overloaded => write!(f, "ingress queue full"),
            LiveError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            LiveError::QuotaExceeded => write!(f, "tenant quota exceeded"),
            LiveError::SloInfeasible => write!(f, "tenant SLO infeasible at admission"),
            LiveError::Disconnected => write!(f, "server shut down"),
        }
    }
}

impl std::error::Error for LiveError {}

/// Snapshot of a [`LiveServer`]'s metrics since start, taken with
/// [`LiveServer::metrics`].
///
/// Field-for-field this mirrors the simulator's `ServerReport` where the
/// quantity exists on a real host; use [`summary`](Self::summary) for the
/// shared [`ServingSummary`] shape.
#[derive(Debug, Clone)]
pub struct LiveMetrics {
    /// Completed requests per second since the server started.
    pub throughput: f64,
    /// Round-trip latency distribution of completed requests.
    pub latency: LatencySummary,
    /// Mean seconds per request attributed to each stage (see
    /// [`stages`](crate::report::stages)).
    pub breakdown: StageBreakdown,
    /// Requests completed successfully.
    pub completed: u64,
    /// Requests shed with [`LiveError::Overloaded`].
    pub rejected: u64,
    /// Requests shed with [`LiveError::DeadlineExceeded`].
    pub expired: u64,
    /// Batched forward calls executed (one per formed batch).
    pub forward_calls: u64,
    /// Mean inference batch size actually formed by the batcher.
    pub mean_batch: f64,
    /// Time-averaged ingress + batcher queue depth.
    pub queue_depth_mean: f64,
    /// Peak ingress + batcher queue depth.
    pub queue_depth_peak: f64,
    /// Total wall time spent inside batched forward calls.
    pub inference_wall: Duration,
    /// Threads in the shared compute backend (resolved from
    /// [`LiveOptions::backend_threads`]).
    pub backend_threads: usize,
    /// Mean parallel efficiency of the backend's work regions:
    /// `busy / (wall × threads)` accumulated over every parallel region
    /// the decode, preprocessing, and kernel stages ran.
    pub parallel_efficiency: f64,
    /// Preprocessed-tensor cache and coalescing counters
    /// (hits/misses/coalesced/evictions and resident bytes).
    pub preproc_cache: PreprocCacheStats,
    /// Forward passes that found the model's shared scratch arena busy
    /// and allocated a throwaway local arena instead (see
    /// [`Model::scratch_fallbacks`]). Non-zero values mean concurrent
    /// inference workers are contending on one model instance and paying
    /// per-call allocations. Summed over every zoo model.
    pub scratch_fallbacks: u64,
    /// Per-lane counters, one entry per tenant lane in lane order.
    /// Single-lane servers report exactly one entry (the default lane).
    pub lanes: Vec<LaneMetrics>,
}

/// Per-lane snapshot inside [`LiveMetrics::lanes`] — the quantities the
/// VRM1 exposition renders as `vserve_lane_{depth,completed,shed,p99_us}`.
#[derive(Debug, Clone)]
pub struct LaneMetrics {
    /// Tenant name (the lane's identity for wire routing).
    pub name: String,
    /// Zoo model the lane executes on.
    pub model: String,
    /// Requests admitted and not yet dispatched to inference.
    pub depth: usize,
    /// Requests completed on this lane.
    pub completed: u64,
    /// Requests shed at admission with [`LiveError::QuotaExceeded`] or
    /// [`LiveError::SloInfeasible`].
    pub shed: u64,
    /// 99th-percentile round-trip latency of this lane's completed
    /// requests, microseconds (0 until the first completion).
    pub p99_us: u64,
}

/// One model of a multi-model zoo passed to [`LiveServer::start_zoo`].
#[derive(Debug)]
pub struct ZooModel {
    /// Name tenants reference via [`TenantSpec::model`] and clients
    /// route to on the wire.
    pub name: String,
    /// The model itself; rebound to the server's shared backend.
    pub model: Model,
    /// Side of the square input this model expects.
    pub input_side: usize,
}

impl LiveMetrics {
    /// Reduces to the [`ServingSummary`] shape shared with the simulator's
    /// `ServerReport`.
    pub fn summary(&self) -> ServingSummary {
        ServingSummary {
            throughput: self.throughput,
            latency: self.latency,
            breakdown: self.breakdown.clone(),
            completed: self.completed,
            mean_batch: self.mean_batch,
        }
    }

    /// Fraction of mean latency spent preprocessing.
    pub fn preproc_share(&self) -> f64 {
        self.summary().preproc_share()
    }

    /// Fraction of mean latency spent in DNN inference.
    pub fn inference_share(&self) -> f64 {
        self.summary().inference_share()
    }

    /// Fraction of mean latency spent queued.
    pub fn queue_share(&self) -> f64 {
        self.summary().queue_share()
    }
}

struct MetricsInner {
    latency: LatencyStats,
    /// Resettable copy of `latency` drained by
    /// [`LiveServer::take_latency_window`]: the controller's view of the
    /// *recent* distribution, where the cumulative stats answer "since
    /// start".
    window: LatencyStats,
    breakdown: StageBreakdown,
    meter: RateMeter,
    batch_sizes: Welford,
    queue_depth: TimeWeightedGauge,
    rejected: u64,
    expired: u64,
    forward_calls: u64,
    inference_wall_s: f64,
}

/// Metrics state shared between the public handle and worker threads.
/// Times are converted to seconds since server start at the boundary, the
/// same convention the simulator uses.
struct Shared {
    epoch: Instant,
    inner: Mutex<MetricsInner>,
}

impl Shared {
    fn new() -> Self {
        let mut meter = RateMeter::new();
        meter.open(0.0);
        Shared {
            epoch: Instant::now(),
            inner: Mutex::new(MetricsInner {
                latency: LatencyStats::new(),
                window: LatencyStats::new(),
                breakdown: StageBreakdown::new(),
                meter,
                batch_sizes: Welford::new(),
                queue_depth: TimeWeightedGauge::new(0.0, 0.0),
                rejected: 0,
                expired: 0,
                forward_calls: 0,
                inference_wall_s: 0.0,
            }),
        }
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    fn lock(&self) -> MutexGuard<'_, MetricsInner> {
        // A worker panicking mid-update must not take metrics down with it.
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records a request leaving the pre-inference pipeline without being
    /// served (decode failure or expired deadline).
    fn drop_queued(&self, now: Instant, expired: bool) {
        let t = self.secs(now);
        let mut m = self.lock();
        m.queue_depth.add(t, -1.0);
        if expired {
            m.expired += 1;
        }
    }
}

/// The receiver half of a request's reply channel, as returned by
/// [`LiveServer::submit`] and [`LiveServer::submit_request`]. Named so
/// downstream crates (the net front-end) can store it without depending
/// on the channel crate directly.
pub type ReplyReceiver = Receiver<Result<LiveResult, LiveError>>;

/// Where a [`Request`] dispatches: a tenant lane of the live server, or a
/// registered cascade pipeline (whose executor fans the frame out across
/// lanes itself).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Target<'a> {
    /// A lane by index (0 is the default lane of a single-model server);
    /// see [`LiveServer::lane_of`].
    Lane(usize),
    /// A pipeline by the name it was registered under
    /// ([`LiveServer::register_pipeline`]).
    Pipeline(&'a str),
}

/// An encoded image: the tail of one owned buffer.
///
/// A wire request arrives as a frame body whose last field is the JPEG;
/// the net front-end hands the whole body over with the offset the JPEG
/// starts at, so the bytes the socket read filled are the bytes the
/// decoder reads. In-process callers convert a `Vec<u8>` with `.into()`
/// (offset 0).
#[derive(Debug)]
pub struct Payload {
    buf: Vec<u8>,
    start: usize,
}

impl Payload {
    /// The bytes of `buf` from `start` on (all of it when `start` is past
    /// the end — an empty payload, never a panic).
    pub fn tail_of(buf: Vec<u8>, start: usize) -> Payload {
        let start = start.min(buf.len());
        Payload { buf, start }
    }
}

impl std::ops::Deref for Payload {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        &self.buf[self.start..]
    }
}

impl From<Vec<u8>> for Payload {
    fn from(buf: Vec<u8>) -> Payload {
        Payload { buf, start: 0 }
    }
}

impl From<Payload> for Vec<u8> {
    /// Free for a payload that starts its buffer; otherwise the head is
    /// cut off (one move of the bytes).
    fn from(mut p: Payload) -> Vec<u8> {
        p.buf.drain(..p.start);
        p.buf
    }
}

/// One submission to [`LiveServer::submit_request`].
pub struct Request<'a> {
    /// Lane or pipeline the request is addressed to.
    pub target: Target<'a>,
    /// The encoded image.
    pub jpeg: Payload,
    /// Per-request deadline overriding [`LiveOptions::deadline`]; `None`
    /// keeps the server-wide default. The network front-end propagates a
    /// client-supplied deadline from the wire into the shedding machinery
    /// through this.
    pub deadline: Option<Duration>,
    /// Caller-supplied trace id. The network front-end passes the id it
    /// recorded its transfer/deserialize spans under, so a wire request's
    /// spans join into one timeline across both layers. `None` assigns
    /// the next in-process id (a counter from 1).
    pub trace_id: Option<u64>,
    /// Completion hook, fired **exactly once** after the reply value is
    /// in the returned channel — including the shed paths and, on
    /// shutdown, a dropped-unreplied request (`try_recv` then yields
    /// `Err`, which callers should treat as [`LiveError::Disconnected`]).
    /// This is the bridge for readiness-driven callers: the net
    /// front-end's hook pushes a completion token and wakes its poller,
    /// so no thread ever blocks on the receiver.
    pub hook: Option<Box<dyn FnOnce() + Send>>,
}

impl Request<'_> {
    /// A request for lane 0 with no deadline override, an auto-assigned
    /// trace id and no hook; set the fields that differ.
    pub fn new(jpeg: Vec<u8>) -> Self {
        Request {
            target: Target::Lane(0),
            jpeg: jpeg.into(),
            deadline: None,
            trace_id: None,
            hook: None,
        }
    }
}

/// A per-request reply channel plus an optional completion hook
/// ([`Request::hook`]).
///
/// Blocking callers just `recv()` the channel. The net front-end cannot
/// park a thread per request, so its hook enqueues a completion token and
/// wakes the event loop, which then `try_recv`s the already-filled
/// channel without blocking. If a slot is dropped unreplied (worker
/// shutdown, a send path skipped), `Drop` fires the hook anyway so the
/// front-end sees the request die as `Disconnected` instead of leaking
/// the connection slot.
struct ReplySlot {
    tx: Sender<Result<LiveResult, LiveError>>,
    hook: Option<Box<dyn FnOnce() + Send>>,
}

impl ReplySlot {
    /// Delivers the reply, then fires the hook. Consumes the slot so the
    /// hook cannot fire twice (Drop sees it already taken).
    fn send(mut self, msg: Result<LiveResult, LiveError>) {
        let _ = self.tx.send(msg);
        if let Some(hook) = self.hook.take() {
            hook();
        }
    }
}

impl Drop for ReplySlot {
    fn drop(&mut self) {
        if let Some(hook) = self.hook.take() {
            hook();
        }
    }
}

struct Job {
    /// Trace identity: joins this request's spans across threads (and,
    /// for wire requests, to the front-end's transfer spans).
    id: u64,
    /// Tenant lane index the request was admitted to.
    lane: u32,
    jpeg: Payload,
    submitted: Instant,
    deadline: Option<Instant>,
    reply: ReplySlot,
}

struct Ready {
    id: u64,
    /// Tenant lane index; routes the item to its lane's batch queue.
    lane: u32,
    tensor: Arc<Tensor>,
    submitted: Instant,
    /// Wait in the bounded ingress queue before preprocessing started.
    ingress_wait: Duration,
    preproc: Duration,
    preproc_done: Instant,
    deadline: Option<Instant>,
    reply: ReplySlot,
}

/// Runtime state of one tenant lane, shared (inside an
/// `Arc<Vec<LaneRt>>`) by the submitters, preproc workers, the lane
/// scheduler, and the inference workers.
///
/// Admission control lives here rather than in the scheduler thread so
/// typed sheds ([`LiveError::QuotaExceeded`] / [`LiveError::SloInfeasible`])
/// happen on the submitter's thread *before* any work is queued — the
/// scheduler only ever sees admitted work.
struct LaneRt {
    spec: TenantSpec,
    /// Model this lane executes on (possibly shared with other lanes).
    model: Arc<Model>,
    /// Input side of the lane's model.
    side: usize,
    /// Preproc-spec fingerprint for [`CacheKey::spec`]: lanes with
    /// identical pipelines share cache entries, differing ones cannot
    /// alias.
    spec_fp: u64,
    /// Token-bucket quota, when the tenant configured one.
    bucket: Option<Mutex<TokenBucket>>,
    /// EWMA per-item inference cost in µs (f64 bits; 0.0 = no evidence
    /// yet, in which case EDF admission stays optimistic).
    unit_cost_bits: AtomicU64,
    /// Requests admitted and not yet dispatched to inference.
    depth: AtomicUsize,
    completed: AtomicU64,
    /// Admission sheds (quota + SLO).
    shed: AtomicU64,
    /// Per-lane batch assembly knobs, re-read by the lane scheduler
    /// every round (the per-lane analogue of [`Knobs`]).
    max_batch: AtomicUsize,
    linger_us: AtomicU64,
    /// Per-lane round-trip latency distribution (p99 for VRM1).
    lat: Mutex<LatencyStats>,
}

impl LaneRt {
    /// Trace tenant tag: lane `i` records as `i + 1` (0 = untagged).
    fn tag(idx: usize) -> u32 {
        idx as u32 + 1
    }

    fn unit_cost_us(&self) -> f64 {
        f64::from_bits(self.unit_cost_bits.load(Ordering::Relaxed))
    }

    /// Folds one measured per-item cost into the EWMA (α = ¼). Races
    /// between inference workers lose updates, never corrupt the value.
    fn observe_unit_cost(&self, cost_us: f64) {
        if !cost_us.is_finite() || cost_us <= 0.0 {
            return;
        }
        let prev = self.unit_cost_us();
        let next = if prev <= 0.0 {
            cost_us
        } else {
            prev + (cost_us - prev) * 0.25
        };
        self.unit_cost_bits.store(next.to_bits(), Ordering::Relaxed);
    }

    fn p99_us(&self) -> u64 {
        let p99 = match self.lat.lock() {
            Ok(l) => l.summary().p99,
            Err(e) => e.into_inner().summary().p99,
        };
        (p99 * 1e6) as u64
    }
}

/// Admission control against one lane, on the submitter's thread, before
/// any work is queued. Order: quota first (cheapest, and a tenant over
/// quota should not consume an SLO estimate), then EDF feasibility
/// against the *tenant* SLO. Per-request deadlines are a separate
/// mechanism (they shed as `DeadlineExceeded` downstream) and never
/// trigger `SloInfeasible`. Shared by [`LiveServer::submit_request`] and
/// [`PipelineHandle::submit_reserved`] so cascade sub-requests face the
/// same typed sheds as direct traffic.
fn admit_lane(l: &LaneRt, shared: &Shared, now: Instant) -> Result<(), LiveError> {
    if let Some(bucket) = &l.bucket {
        let now_us = (shared.secs(now) * 1e6) as u64;
        let mut b = bucket.lock().unwrap_or_else(|e| e.into_inner());
        let ok = b.try_take(now_us);
        drop(b);
        if !ok {
            l.shed.fetch_add(1, Ordering::Relaxed);
            return Err(LiveError::QuotaExceeded);
        }
    }
    if let Some(dl) = l.spec.deadline_us {
        // Optimistic until the lane has cost evidence: a cold lane
        // never sheds on a guess.
        let unit = l.unit_cost_us();
        if unit > 0.0 {
            let est = (l.depth.load(Ordering::Relaxed) as f64 + 1.0) * unit
                + l.linger_us.load(Ordering::Relaxed) as f64;
            if est > dl as f64 {
                l.shed.fetch_add(1, Ordering::Relaxed);
                return Err(LiveError::SloInfeasible);
            }
        }
    }
    Ok(())
}

/// How long an idle preprocessing worker waits on the ingress queue
/// before re-checking the pool target (the shrink latency bound).
const PREPROC_POLL: Duration = Duration::from_millis(20);

/// The live server's runtime-tunable knob block: one cache line of
/// atomics shared by the batcher, the preprocessing pool, and the public
/// setters. The batcher re-reads `max_batch`/`linger_us` at the start of
/// every assembly round, and each preprocessing job re-reads
/// `cache_bytes`, so a controller's store is visible within one flush —
/// no locks, no channel round trips, no restart.
struct Knobs {
    /// Batch size cap read per assembly round.
    max_batch: AtomicUsize,
    /// Batch linger (max queueing delay) in microseconds.
    linger_us: AtomicU64,
    /// Mirror of the preproc cache's byte budget; `0` = disabled. Lets
    /// workers skip hashing without taking the cache lock.
    cache_bytes: AtomicUsize,
    /// Desired preprocessing worker count.
    preproc_target: AtomicUsize,
    /// Workers currently alive (spawned and not yet retired).
    preproc_live: AtomicUsize,
}

/// Current effective knob values, from [`LiveServer::knobs`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnobSnapshot {
    /// Batch size cap the batcher is assembling against.
    pub max_batch: usize,
    /// Batch linger the batcher waits to fill a batch.
    pub linger: Duration,
    /// Target preprocessing worker count.
    pub preproc_workers: usize,
    /// Preprocessing workers currently alive; trails the target briefly
    /// after a shrink (workers retire between jobs, never mid-job).
    pub preproc_workers_live: usize,
    /// Threads in the shared compute backend.
    pub backend_threads: usize,
    /// Preproc cache byte budget (`0` = disabled).
    pub preproc_cache_bytes: usize,
}

/// Everything a preprocessing worker needs, cloneable so the pool can
/// spawn additional workers after startup. The embedded `tx`/`rx` clones
/// keep the channels open while the pool can still grow; `Drop` takes the
/// pool's copy before joining so the pipeline still drains on shutdown.
#[derive(Clone)]
struct PreprocEnv {
    rx: Receiver<Job>,
    tx: Sender<Ready>,
    shared: Arc<Shared>,
    backend: Backend,
    cache: Arc<Mutex<PreprocCache>>,
    inflight: Arc<Mutex<HashMap<CacheKey, Vec<Job>>>>,
    knobs: Arc<Knobs>,
    tracer: Tracer,
    lanes: Arc<Vec<LaneRt>>,
    fast: bool,
    coalesce: bool,
}

/// Spawn-side state of the growable preprocessing pool, behind a `Mutex`
/// on the server so concurrent `set_preproc_workers` calls serialize.
struct PreprocPool {
    env: Option<PreprocEnv>,
    handles: Vec<std::thread::JoinHandle<()>>,
    /// Monotonic id for trace track names (`preproc-{id}`): a pool that
    /// shrinks and regrows never reuses a track.
    next_worker_id: usize,
}

impl PreprocPool {
    /// Spawns one worker. The caller has already accounted for it in
    /// `preproc_live`.
    fn spawn(&mut self) {
        let env = match &self.env {
            Some(e) => e.clone(),
            None => return,
        };
        let id = self.next_worker_id;
        self.next_worker_id += 1;
        let tr = env.tracer.register(&format!("preproc-{id}"));
        self.handles
            .push(std::thread::spawn(move || preproc_worker_loop(env, tr)));
    }
}

/// One worker retires iff the pool is over target (CAS on the live count,
/// so exactly `live - target` workers exit no matter how many race).
fn try_retire(knobs: &Knobs) -> bool {
    knobs
        .preproc_live
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |live| {
            let target = knobs.preproc_target.load(Ordering::SeqCst);
            (live > target && live > 1).then(|| live - 1)
        })
        .is_ok()
}

/// Body of a preprocessing worker. Jobs are taken from the shared ingress
/// receiver with a short timeout so shrink requests are honored between
/// jobs — queued requests stay in the channel for surviving workers, so a
/// shrink can never drop work.
fn preproc_worker_loop(env: PreprocEnv, tr: TraceHandle) {
    // Each worker owns a scratch arena: after the first frame the decode
    // path stops allocating its temporaries.
    let mut scratch = Scratch::new();
    loop {
        let job = match env.rx.recv_timeout(PREPROC_POLL) {
            Ok(job) => job,
            Err(RecvTimeoutError::Timeout) => {
                if try_retire(&env.knobs) {
                    return;
                }
                continue;
            }
            Err(RecvTimeoutError::Disconnected) => {
                env.knobs.preproc_live.fetch_sub(1, Ordering::SeqCst);
                return;
            }
        };
        if process_one(&env, &tr, &mut scratch, job).is_err() {
            // Ready channel closed: the server is shutting down.
            env.knobs.preproc_live.fetch_sub(1, Ordering::SeqCst);
            return;
        }
        if try_retire(&env.knobs) {
            return;
        }
    }
}

/// Decodes (or cache-serves) one job and forwards `Ready` work to the
/// batcher. `Err(())` means the ready channel is closed and the worker
/// must exit.
fn process_one(
    env: &PreprocEnv,
    tr: &TraceHandle,
    scratch: &mut Scratch,
    job: Job,
) -> Result<(), ()> {
    let start = Instant::now();
    let nbytes = job.jpeg.len() as u64;
    let lane = &env.lanes[job.lane as usize];
    let side = lane.side;
    let tag = LaneRt::tag(job.lane as usize);
    if job.deadline.is_some_and(|d| start >= d) {
        lane.depth.fetch_sub(1, Ordering::Relaxed);
        env.shared.drop_queued(start, true);
        let _ = job.reply.send(Err(LiveError::DeadlineExceeded));
        return Ok(());
    }
    // Re-read per job (not per worker lifetime) so a runtime cache resize
    // takes effect on the very next request.
    let cache_on = env.knobs.cache_bytes.load(Ordering::Relaxed) > 0;
    let key = (cache_on || env.coalesce)
        .then(|| CacheKey::for_payload_spec(&job.jpeg, side, lane.spec_fp));
    if let Some(k) = key {
        if let Some(tensor) = env.cache.lock().ok().and_then(|mut c| c.get(&k)) {
            // Cache hit: the measured preprocessing time is the content
            // hash of the whole payload plus the lookup — microseconds
            // for a thumbnail, ~0.1 ms for a 1.9 MB image, never zero.
            let done = Instant::now();
            tr.span_tagged(tag, job.id, stages::QUEUE, job.submitted, start, 0, nbytes);
            tr.span_tagged(tag, job.id, stages::PREPROC, start, done, 0, nbytes);
            tr.event_tagged(tag, job.id, trace_events::CACHE_HIT, done, nbytes);
            let ready = Ready {
                id: job.id,
                lane: job.lane,
                tensor,
                submitted: job.submitted,
                ingress_wait: start.saturating_duration_since(job.submitted),
                preproc: done - start,
                preproc_done: done,
                deadline: job.deadline,
                reply: job.reply,
            };
            return env.tx.send(ready).map_err(|_| ());
        }
        if env.coalesce {
            if let Ok(mut infl) = env.inflight.lock() {
                if let Some(waiters) = infl.get_mut(&k) {
                    let wid = job.id;
                    waiters.push(job);
                    drop(infl);
                    if let Ok(mut c) = env.cache.lock() {
                        c.note_coalesced();
                    }
                    tr.event_tagged(tag, wid, trace_events::COALESCE, start, nbytes);
                    return Ok(());
                }
                infl.insert(k, Vec::new());
            }
        }
        if cache_on {
            tr.event_tagged(tag, job.id, trace_events::CACHE_MISS, start, nbytes);
        }
    }
    let result = if env.fast {
        vserve_codec::preprocess_jpeg_with(&env.backend, scratch, &job.jpeg, side)
    } else {
        vserve_codec::decode_with(&env.backend, scratch, &job.jpeg)
            .map(|img| ops::standard_preprocess_with(&env.backend, &img, side))
    };
    let done = Instant::now();
    // Publish to the cache *before* detaching the waiter list so a
    // duplicate arriving in between finds one or the other; then serve
    // the leader and every waiter.
    let tensor = result.map(Arc::new);
    if let (Some(k), Ok(t)) = (key, &tensor) {
        if cache_on {
            if let Ok(mut c) = env.cache.lock() {
                c.insert(k, Arc::clone(t));
            }
        }
    }
    let waiters = match (key, env.coalesce) {
        (Some(k), true) => env
            .inflight
            .lock()
            .ok()
            .and_then(|mut infl| infl.remove(&k))
            .unwrap_or_default(),
        _ => Vec::new(),
    };
    match tensor {
        Ok(tensor) => {
            tr.span_tagged(tag, job.id, stages::QUEUE, job.submitted, start, 0, nbytes);
            tr.span_tagged(tag, job.id, stages::PREPROC, start, done, 0, nbytes);
            let ready = Ready {
                id: job.id,
                lane: job.lane,
                tensor: Arc::clone(&tensor),
                submitted: job.submitted,
                ingress_wait: start.saturating_duration_since(job.submitted),
                preproc: done - start,
                preproc_done: done,
                deadline: job.deadline,
                reply: job.reply,
            };
            env.tx.send(ready).map_err(|_| ())?;
            for w in waiters {
                let wtag = LaneRt::tag(w.lane as usize);
                if w.deadline.is_some_and(|d| done >= d) {
                    env.lanes[w.lane as usize]
                        .depth
                        .fetch_sub(1, Ordering::Relaxed);
                    env.shared.drop_queued(done, true);
                    let _ = w.reply.send(Err(LiveError::DeadlineExceeded));
                    continue;
                }
                // A waiter never preprocessed: the shared execution is
                // charged once to the leader, and the waiter's wait
                // counts as queueing. Mirror that in the trace: a
                // full-wait queue span plus a zero-length preproc span
                // (so span counts match breakdown counts per completed
                // request).
                tr.span_tagged(wtag, w.id, stages::QUEUE, w.submitted, done, 0, nbytes);
                tr.span_tagged(wtag, w.id, stages::PREPROC, done, done, 0, 0);
                let ready = Ready {
                    id: w.id,
                    lane: w.lane,
                    tensor: Arc::clone(&tensor),
                    submitted: w.submitted,
                    ingress_wait: done.saturating_duration_since(w.submitted),
                    preproc: Duration::ZERO,
                    preproc_done: done,
                    deadline: w.deadline,
                    reply: w.reply,
                };
                env.tx.send(ready).map_err(|_| ())?;
            }
        }
        Err(e) => {
            lane.depth.fetch_sub(1, Ordering::Relaxed);
            env.shared.drop_queued(done, false);
            let _ = job.reply.send(Err(LiveError::Decode(e)));
            for w in waiters {
                env.lanes[w.lane as usize]
                    .depth
                    .fetch_sub(1, Ordering::Relaxed);
                env.shared.drop_queued(done, false);
                let _ = w.reply.send(Err(LiveError::Decode(e)));
            }
        }
    }
    Ok(())
}

/// Body of the lane scheduler thread (the multi-tenant successor of the
/// single dynamic batcher). It owns a deterministic
/// [`vserve_sched::Scheduler`] with one lane per tenant — quota and
/// deadline admission are stripped because they already ran on the
/// submitter's thread — and alternates between draining the shared ready
/// channel into per-lane queues and dispatching batches picked by
/// weighted deficit round-robin under strict priority classes. The
/// blocking wait is bounded by the earliest lane linger expiry, so
/// flushes happen on time without polling.
fn lane_scheduler_loop(
    ready_rx: Receiver<Ready>,
    batch_tx: Sender<(u64, u32, Vec<Ready>)>,
    shared: Arc<Shared>,
    lanes: Arc<Vec<LaneRt>>,
    tr: TraceHandle,
) {
    let epoch = Instant::now();
    let mut sched: Scheduler<Ready> = Scheduler::new(SchedOptions::default());
    for l in lanes.iter() {
        let mut spec = l.spec.clone();
        spec.quota = None;
        spec.deadline_us = None;
        sched.add_lane(spec);
    }
    // The bounded ingress channel is the real backpressure; lane queues
    // must never shed admitted work.
    for i in 0..sched.lane_count() {
        sched.lane_mut(i).set_queue_cap(usize::MAX / 2);
    }
    let mut seq = 0u64;
    let mut flush = |lane_idx: usize, items: Vec<(Ready, u64)>| -> Result<(), ()> {
        let now = Instant::now();
        let t = shared.secs(now);
        let mut live = Vec::with_capacity(items.len());
        let mut dropped = Vec::new();
        for (r, _) in items {
            if r.deadline.is_some_and(|d| now >= d) {
                dropped.push(r.reply);
            } else {
                live.push(r);
            }
        }
        lanes[lane_idx]
            .depth
            .fetch_sub(live.len() + dropped.len(), Ordering::Relaxed);
        {
            let mut m = shared.lock();
            m.queue_depth.add(t, -((live.len() + dropped.len()) as f64));
            m.expired += dropped.len() as u64;
        }
        for reply in dropped {
            let _ = reply.send(Err(LiveError::DeadlineExceeded));
        }
        if live.is_empty() {
            return Ok(());
        }
        seq += 1;
        let tn = tr.secs(now);
        tr.span_at_tagged(
            LaneRt::tag(lane_idx),
            0,
            trace_events::BATCH,
            tn,
            tn,
            seq,
            live.len() as u64,
        );
        batch_tx.send((seq, lane_idx as u32, live)).map_err(|_| ())
    };
    loop {
        let now0 = epoch.elapsed().as_micros() as u64;
        let msg = match sched.next_flush_at() {
            None => match ready_rx.recv() {
                Ok(r) => Some(r),
                Err(_) => break,
            },
            Some(at) => {
                let wait = Duration::from_micros(at.saturating_sub(now0));
                match ready_rx.recv_timeout(wait) {
                    Ok(r) => Some(r),
                    Err(RecvTimeoutError::Timeout) => None,
                    Err(RecvTimeoutError::Disconnected) => break,
                }
            }
        };
        if let Some(first) = msg {
            let mut pending = vec![first];
            while let Ok(r) = ready_rx.try_recv() {
                pending.push(r);
            }
            let now = epoch.elapsed().as_micros() as u64;
            for r in pending {
                let idx = (r.lane as usize).min(lanes.len().saturating_sub(1));
                if let Err((_, r)) = sched.submit(idx, r, now) {
                    // Unreachable with the uncapped lane queues above;
                    // fail the request cleanly rather than dropping it.
                    lanes[idx].depth.fetch_sub(1, Ordering::Relaxed);
                    shared.drop_queued(Instant::now(), false);
                    let _ = r.reply.send(Err(LiveError::Overloaded));
                }
            }
        }
        // Refresh per-lane assembly knobs: a controller's store is
        // visible within one scheduling round.
        for i in 0..sched.lane_count() {
            let mb = lanes[i].max_batch.load(Ordering::Relaxed).max(1);
            let lg = lanes[i].linger_us.load(Ordering::Relaxed);
            sched.lane_mut(i).set_assembly(mb, lg);
        }
        let now = epoch.elapsed().as_micros() as u64;
        while let Some(batch) = sched.next_batch(now) {
            if flush(batch.lane, batch.items).is_err() {
                return;
            }
        }
    }
    // Ready channel disconnected (shutdown): flush everything still
    // queued so in-flight requests are answered, not leaked.
    for i in 0..sched.lane_count() {
        let items = sched.drain_lane(i);
        if !items.is_empty() && flush(i, items).is_err() {
            return;
        }
    }
}

/// Body of one inference worker: executes each lane batch as a single
/// batched forward call on the lane's model, attributes per-item cost,
/// feeds the lane's EDF cost estimate, and answers every request.
fn inference_worker_loop(
    rx: Receiver<(u64, u32, Vec<Ready>)>,
    lanes: Arc<Vec<LaneRt>>,
    shared: Arc<Shared>,
    tr: TraceHandle,
) {
    while let Ok((batch_seq, lane_idx, batch)) = rx.recv() {
        let lane = &lanes[lane_idx as usize];
        let tag = LaneRt::tag(lane_idx as usize);
        let n = batch.len();
        let start = Instant::now();
        let inputs: Vec<&Tensor> = batch.iter().map(|r| r.tensor.as_ref()).collect();
        let result = lane.model.forward_batch(&inputs);
        let finished = Instant::now();
        let wall = finished.saturating_duration_since(start);
        // Per-item attribution: each request is charged its share of the
        // batch, matching the sim's per-image accounting, so stage sums
        // do not over-count GPU time.
        let per_item = wall / n as u32;
        lane.observe_unit_cost(wall.as_secs_f64() * 1e6 / n as f64);
        // Trace mirror of the same attribution: the batch wall is sliced
        // into n contiguous per-item spans so the inference track shows
        // batch composition and span sums equal the breakdown's charges.
        let t0 = tr.secs(start);
        let p = per_item.as_secs_f64();
        let mut replies = Vec::with_capacity(n);
        {
            let mut m = shared.lock();
            m.forward_calls += 1;
            m.batch_sizes.push(n as f64);
            m.inference_wall_s += wall.as_secs_f64();
            match result {
                Ok(outputs) => {
                    let t = shared.secs(finished);
                    let mut lat = lane.lat.lock().unwrap_or_else(|e| e.into_inner());
                    for (i, (ready, out)) in batch.into_iter().zip(outputs).enumerate() {
                        let queue = ready.ingress_wait
                            + start.saturating_duration_since(ready.preproc_done);
                        let total = finished.saturating_duration_since(ready.submitted);
                        tr.span_tagged(
                            tag,
                            ready.id,
                            stages::QUEUE,
                            ready.preproc_done,
                            start,
                            batch_seq,
                            0,
                        );
                        tr.span_at_tagged(
                            tag,
                            ready.id,
                            stages::INFERENCE,
                            t0 + i as f64 * p,
                            t0 + (i + 1) as f64 * p,
                            batch_seq,
                            0,
                        );
                        lane.completed.fetch_add(1, Ordering::Relaxed);
                        lat.push(total.as_secs_f64());
                        m.latency.push(total.as_secs_f64());
                        m.window.push(total.as_secs_f64());
                        m.meter.record(t);
                        m.breakdown.record(stages::QUEUE, queue.as_secs_f64());
                        m.breakdown
                            .record(stages::PREPROC, ready.preproc.as_secs_f64());
                        m.breakdown
                            .record(stages::INFERENCE, per_item.as_secs_f64());
                        replies.push((
                            ready.reply,
                            Ok(LiveResult {
                                output: out.into_vec(),
                                preproc: ready.preproc,
                                queue,
                                inference: per_item,
                                batch_size: n,
                                total,
                            }),
                        ));
                    }
                }
                Err(e) => {
                    for ready in batch {
                        replies.push((ready.reply, Err(LiveError::Model(e.clone()))));
                    }
                }
            }
        }
        let respond_start = Instant::now();
        for (reply, msg) in replies {
            let _ = reply.send(msg);
        }
        tr.span_tagged(
            tag,
            0,
            trace_events::RESPOND,
            respond_start,
            Instant::now(),
            batch_seq,
            n as u64,
        );
    }
}

/// A running live server; dropping it shuts down all worker threads.
pub struct LiveServer {
    ingress: Option<Sender<Job>>,
    /// Distinct zoo models in zoo order (lane → model via
    /// `LaneRt::model_idx`).
    models: Vec<Arc<Model>>,
    /// Tenant lanes in lane order; index is the stable lane id.
    lanes: Arc<Vec<LaneRt>>,
    handles: Vec<std::thread::JoinHandle<()>>,
    shared: Arc<Shared>,
    deadline: Option<Duration>,
    backend: Backend,
    cache: Arc<Mutex<PreprocCache>>,
    knobs: Arc<Knobs>,
    pool: Mutex<PreprocPool>,
    tracer: Tracer,
    /// Records ingress/shed events from submitter threads.
    ingress_trace: TraceHandle,
    /// Auto-assigned trace ids for in-process submissions (the net
    /// front-end supplies its own via [`Request::trace_id`]).
    /// Shared with [`PipelineHandle`]s so cascade sub-requests draw from
    /// the same id space.
    next_req: Arc<AtomicU64>,
    /// Ingress queue capacity, exposed to pipeline executors as the
    /// fan-out reservation budget (see [`PipelineHandle::queue_cap`]).
    queue_cap: usize,
    /// Registered multi-stage pipeline executors by name
    /// ([`LiveServer::register_pipeline`]). Cleared *first* on drop: a
    /// driver's executor holds an ingress sender clone, so it must shut
    /// down before the worker joins below can observe a closed channel.
    pipelines: Mutex<HashMap<String, Arc<dyn PipelineDriver>>>,
}

impl std::fmt::Debug for LiveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveServer")
            .field("threads", &self.handles.len())
            .finish()
    }
}

impl LiveServer {
    /// Starts preprocessing, batching, and inference threads around
    /// `model`.
    ///
    /// All stages share one compute [`Backend`] sized by
    /// [`LiveOptions::backend_threads`]; the model is rebound to it, so an
    /// explicit [`Model::with_backend`] before `start` is overridden.
    ///
    /// This is the single-model convenience wrapper over
    /// [`start_zoo`](Self::start_zoo): the zoo holds one model named
    /// `"default"`, and every entry of [`LiveOptions::tenants`] maps to
    /// it regardless of its `model` field (so a tenant list written for
    /// a zoo still works when pointed at a single-model server). Empty
    /// `tenants` yields the classic single default lane.
    pub fn start(model: Model, opts: LiveOptions) -> Self {
        let zoo = vec![ZooModel {
            name: "default".to_string(),
            model,
            input_side: opts.input_side,
        }];
        Self::start_zoo(zoo, opts).expect("single-model start is infallible")
    }

    /// Starts a multi-model, multi-tenant server: one lane per entry of
    /// [`LiveOptions::tenants`] (or one default lane per zoo model when
    /// `tenants` is empty), all lanes sharing the compute backend, the
    /// preproc pool, and the inference workers.
    ///
    /// # Errors
    ///
    /// Returns an error when `zoo` is empty or a tenant references a
    /// model name not in a multi-model zoo (single-model zoos resolve
    /// every tenant to their one model).
    pub fn start_zoo(zoo: Vec<ZooModel>, opts: LiveOptions) -> Result<Self, String> {
        if zoo.is_empty() {
            return Err("start_zoo requires at least one model".to_string());
        }
        let backend = if opts.backend_threads == 0 {
            Backend::from_env()
        } else {
            Backend::new(opts.backend_threads)
        };
        let mut models = Vec::with_capacity(zoo.len());
        let mut names = Vec::with_capacity(zoo.len());
        let mut sides = Vec::with_capacity(zoo.len());
        for zm in zoo {
            models.push(Arc::new(zm.model.with_backend(backend.clone())));
            names.push(zm.name);
            sides.push(zm.input_side);
        }
        let tenants: Vec<TenantSpec> = if opts.tenants.is_empty() {
            names
                .iter()
                .map(|n| TenantSpec::new(n.clone(), n.clone()))
                .collect()
        } else {
            opts.tenants.clone()
        };
        let spec_fp =
            preproc_spec_fingerprint(opts.fast_preproc, &ops::IMAGENET_MEAN, &ops::IMAGENET_STD);
        let linger_us = opts.max_queue_delay.as_micros().min(u64::MAX as u128) as u64;
        let mut lanes = Vec::with_capacity(tenants.len());
        for spec in tenants {
            let model_idx = match names.iter().position(|n| *n == spec.model) {
                Some(i) => i,
                None if names.len() == 1 => 0,
                None => {
                    return Err(format!(
                        "tenant '{}' references unknown model '{}'",
                        spec.name, spec.model
                    ))
                }
            };
            lanes.push(LaneRt {
                model: Arc::clone(&models[model_idx]),
                side: sides[model_idx],
                spec_fp,
                bucket: spec
                    .quota
                    .clone()
                    .map(|q| Mutex::new(TokenBucket::from_spec(q))),
                unit_cost_bits: AtomicU64::new(0),
                depth: AtomicUsize::new(0),
                completed: AtomicU64::new(0),
                shed: AtomicU64::new(0),
                max_batch: AtomicUsize::new(opts.max_batch.max(1)),
                linger_us: AtomicU64::new(linger_us),
                lat: Mutex::new(LatencyStats::new()),
                spec,
            });
        }
        let lanes = Arc::new(lanes);
        let shared = Arc::new(Shared::new());
        let (ingress_tx, ingress_rx) = bounded::<Job>(opts.queue_cap.max(1));
        let (ready_tx, ready_rx) = bounded::<Ready>(opts.queue_cap.max(1));
        // Batches carry the scheduler-assigned sequence number (from 1)
        // that the trace uses as `batch_id`, plus the lane they belong to.
        let (batch_tx, batch_rx) = bounded::<(u64, u32, Vec<Ready>)>(4);
        let mut handles = Vec::new();

        // Preprocessing workers: decode → resize → normalize, with a
        // content-addressed result cache and in-flight coalescing. The
        // in-flight table maps a payload key to the jobs parked on the
        // worker currently preprocessing that payload; the completing
        // worker forwards one `Ready` per parked job, so N concurrent
        // duplicates cost exactly one decode.
        let cache_bytes = resolve_capacity_mb(opts.preproc_cache_mb) * 1024 * 1024;
        let cache = Arc::new(Mutex::new(PreprocCache::new(cache_bytes)));
        let inflight: Arc<Mutex<HashMap<CacheKey, Vec<Job>>>> =
            Arc::new(Mutex::new(HashMap::new()));
        let workers = opts.preproc_workers.max(1);
        let knobs = Arc::new(Knobs {
            max_batch: AtomicUsize::new(opts.max_batch.max(1)),
            linger_us: AtomicU64::new(linger_us),
            cache_bytes: AtomicUsize::new(cache_bytes),
            preproc_target: AtomicUsize::new(workers),
            preproc_live: AtomicUsize::new(workers),
        });
        let tracer = opts.trace.clone();
        // Registration order fixes trace thread ids: ingress, preproc
        // workers, batcher, inference workers.
        let ingress_trace = tracer.register("ingress");
        let env = PreprocEnv {
            rx: ingress_rx,
            tx: ready_tx,
            shared: Arc::clone(&shared),
            backend: backend.clone(),
            cache: Arc::clone(&cache),
            inflight,
            knobs: Arc::clone(&knobs),
            tracer: tracer.clone(),
            lanes: Arc::clone(&lanes),
            fast: opts.fast_preproc,
            coalesce: opts.coalesce,
        };
        let mut pool = PreprocPool {
            env: Some(env),
            handles: Vec::new(),
            next_worker_id: 0,
        };
        for _ in 0..workers {
            pool.spawn();
        }

        // Lane scheduler: per-lane batch assembly under weighted deficit
        // round-robin with strict priority classes (replaces the single
        // dynamic batcher; a one-lane server degenerates to exactly the
        // old fill-or-linger behavior).
        {
            let batch_tx = batch_tx.clone();
            let shared = Arc::clone(&shared);
            let lanes_rt = Arc::clone(&lanes);
            let tr = tracer.register("batcher");
            handles.push(std::thread::spawn(move || {
                lane_scheduler_loop(ready_rx, batch_tx, shared, lanes_rt, tr)
            }));
        }
        drop(batch_tx);

        // Inference workers: one batched forward call per assembled batch,
        // on the batch's lane model.
        for w in 0..opts.inference_workers.max(1) {
            let rx = batch_rx.clone();
            let lanes_rt = Arc::clone(&lanes);
            let shared = Arc::clone(&shared);
            let tr = tracer.register(&format!("inference-{w}"));
            handles.push(std::thread::spawn(move || {
                inference_worker_loop(rx, lanes_rt, shared, tr)
            }));
        }

        Ok(LiveServer {
            ingress: Some(ingress_tx),
            models,
            lanes,
            handles,
            shared,
            deadline: opts.deadline,
            backend,
            cache,
            knobs,
            pool: Mutex::new(pool),
            tracer,
            ingress_trace,
            next_req: Arc::new(AtomicU64::new(1)),
            queue_cap: opts.queue_cap.max(1),
            pipelines: Mutex::new(HashMap::new()),
        })
    }

    /// The server's tracer: snapshot it for a span timeline
    /// ([`Tracer::snapshot`]) or export with
    /// [`vserve_trace::chrome::chrome_trace_json`]. Disabled unless
    /// [`LiveOptions::trace`] was enabled (or `VSERVE_TRACE` set).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Submits a JPEG to lane 0 asynchronously; the returned channel
    /// yields the result. Shorthand for
    /// `submit_request(Request::new(jpeg))`.
    ///
    /// When the bounded ingress queue is full the request is shed
    /// immediately: the channel already holds
    /// `Err(`[`LiveError::Overloaded`]`)`.
    pub fn submit(&self, jpeg: Vec<u8>) -> ReplyReceiver {
        self.submit_request(Request::new(jpeg))
    }

    /// Submits one [`Request`] — the single entry point behind
    /// [`submit`](Self::submit), [`infer`](Self::infer) and the net
    /// front-end. Never blocks: every outcome, sheds included, flows
    /// through the returned channel, and [`Request::hook`] fires exactly
    /// once after the reply value is in it.
    ///
    /// An out-of-range lane or an unregistered pipeline name answers
    /// [`LiveError::Disconnected`] immediately (route-time callers should
    /// check [`lane_of`](Self::lane_of) /
    /// [`has_pipeline`](Self::has_pipeline) first and reject with a
    /// request error instead).
    pub fn submit_request(&self, req: Request<'_>) -> ReplyReceiver {
        let Request {
            target,
            jpeg,
            deadline,
            trace_id,
            hook,
        } = req;
        match target {
            Target::Lane(lane) => self.submit_inner(lane, jpeg, deadline, trace_id, hook),
            Target::Pipeline(name) => match self.pipeline_of(name) {
                Some(driver) => driver.submit(jpeg.into(), deadline, trace_id, hook),
                None => {
                    let (tx, rx) = bounded(1);
                    ReplySlot { tx, hook }.send(Err(LiveError::Disconnected));
                    rx
                }
            },
        }
    }

    /// Number of tenant lanes (1 for single-lane servers).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Resolves a tenant name — or, failing that, a model name — to its
    /// lane index (first match wins). The net front-end routes wire
    /// requests with a tenant header through this.
    pub fn lane_of(&self, name: &str) -> Option<usize> {
        self.lanes
            .iter()
            .position(|l| l.spec.name == name)
            .or_else(|| self.lanes.iter().position(|l| l.spec.model == name))
    }

    /// Tenant specs in lane order.
    pub fn lane_specs(&self) -> Vec<TenantSpec> {
        self.lanes.iter().map(|l| l.spec.clone()).collect()
    }

    fn submit_inner(
        &self,
        lane: usize,
        jpeg: Payload,
        deadline: Option<Duration>,
        trace_id: Option<u64>,
        hook: Option<Box<dyn FnOnce() + Send>>,
    ) -> Receiver<Result<LiveResult, LiveError>> {
        let (tx, rx) = bounded(1);
        let now = Instant::now();
        let id = trace_id.unwrap_or_else(|| self.next_req.fetch_add(1, Ordering::Relaxed));
        let nbytes = jpeg.len() as u64;
        let slot = ReplySlot { tx, hook };
        let Some(l) = self.lanes.get(lane) else {
            slot.send(Err(LiveError::Disconnected));
            return rx;
        };
        if let Err(e) = admit_lane(l, &self.shared, now) {
            slot.send(Err(e));
            return rx;
        }
        let job = Job {
            id,
            lane: lane as u32,
            jpeg,
            submitted: now,
            deadline: deadline.or(self.deadline).map(|d| now + d),
            reply: slot,
        };
        let Some(ingress) = &self.ingress else {
            return rx;
        };
        match ingress.try_send(job) {
            Ok(()) => {
                l.depth.fetch_add(1, Ordering::Relaxed);
                let t = self.shared.secs(now);
                self.shared.lock().queue_depth.add(t, 1.0);
                self.ingress_trace.event_tagged(
                    LaneRt::tag(lane),
                    id,
                    trace_events::INGRESS,
                    now,
                    nbytes,
                );
            }
            Err(TrySendError::Full(job)) => {
                self.shared.lock().rejected += 1;
                let _ = job.reply.send(Err(LiveError::Overloaded));
            }
            Err(TrySendError::Disconnected(job)) => {
                let _ = job.reply.send(Err(LiveError::Disconnected));
            }
        }
        rx
    }

    /// Submits a JPEG and blocks for the result.
    ///
    /// # Errors
    ///
    /// Returns [`LiveError`] if decoding or model execution fails, if the
    /// server is overloaded or the deadline passes, or if the server shuts
    /// down first.
    pub fn infer(&self, jpeg: Vec<u8>) -> Result<LiveResult, LiveError> {
        self.submit(jpeg)
            .recv()
            .map_err(|_| LiveError::Disconnected)?
    }

    /// Snapshots the server's metrics since start.
    pub fn metrics(&self) -> LiveMetrics {
        let t = self.shared.secs(Instant::now());
        let stats = self.backend.stats();
        let cache_stats = self
            .cache
            .lock()
            .map(|c| c.stats())
            .unwrap_or_else(|e| e.into_inner().stats());
        // Lane snapshots are collected before taking the shared metrics
        // lock (inference workers acquire shared → lane.lat; acquiring
        // in the reverse order here would risk deadlock).
        let lanes: Vec<LaneMetrics> = self
            .lanes
            .iter()
            .map(|l| LaneMetrics {
                name: l.spec.name.clone(),
                model: l.spec.model.clone(),
                depth: l.depth.load(Ordering::Relaxed),
                completed: l.completed.load(Ordering::Relaxed),
                shed: l.shed.load(Ordering::Relaxed),
                p99_us: l.p99_us(),
            })
            .collect();
        let m = self.shared.lock();
        let mut meter = m.meter;
        meter.close(t);
        LiveMetrics {
            throughput: meter.rate(),
            latency: m.latency.summary(),
            breakdown: m.breakdown.clone(),
            completed: meter.count(),
            rejected: m.rejected,
            expired: m.expired,
            forward_calls: m.forward_calls,
            mean_batch: m.batch_sizes.mean(),
            queue_depth_mean: m.queue_depth.time_average(t),
            queue_depth_peak: m.queue_depth.peak(),
            inference_wall: Duration::from_secs_f64(m.inference_wall_s),
            backend_threads: stats.threads,
            parallel_efficiency: stats.efficiency(),
            preproc_cache: cache_stats,
            scratch_fallbacks: self.models.iter().map(|m| m.scratch_fallbacks()).sum(),
            lanes,
        }
    }

    /// Drains and resets the windowed latency distribution: everything
    /// completed since the previous call (or since start). This is the
    /// controller's observation channel — the cumulative
    /// [`metrics`](Self::metrics) summary would smear a knob change's
    /// effect across the whole run.
    pub fn take_latency_window(&self) -> LatencySummary {
        let mut m = self.shared.lock();
        std::mem::replace(&mut m.window, LatencyStats::new()).summary()
    }

    /// Snapshot of the current effective knob values.
    pub fn knobs(&self) -> KnobSnapshot {
        KnobSnapshot {
            max_batch: self.knobs.max_batch.load(Ordering::Relaxed),
            linger: Duration::from_micros(self.knobs.linger_us.load(Ordering::Relaxed)),
            preproc_workers: self.knobs.preproc_target.load(Ordering::SeqCst),
            preproc_workers_live: self.knobs.preproc_live.load(Ordering::SeqCst),
            backend_threads: self.backend.threads(),
            preproc_cache_bytes: self.knobs.cache_bytes.load(Ordering::Relaxed),
        }
    }

    /// Retunes the batch size cap (clamped to ≥ 1) on **every** lane;
    /// applies from the next assembly round. Multi-tenant servers should
    /// prefer [`set_lane_max_batch`](Self::set_lane_max_batch).
    pub fn set_max_batch(&self, n: usize) {
        self.knobs.max_batch.store(n.max(1), Ordering::Relaxed);
        for l in self.lanes.iter() {
            l.max_batch.store(n.max(1), Ordering::Relaxed);
        }
    }

    /// Retunes the batch linger on **every** lane; applies from the next
    /// assembly round. Multi-tenant servers should prefer
    /// [`set_lane_batch_linger`](Self::set_lane_batch_linger).
    pub fn set_batch_linger(&self, linger: Duration) {
        let us = linger.as_micros().min(u64::MAX as u128) as u64;
        self.knobs.linger_us.store(us, Ordering::Relaxed);
        for l in self.lanes.iter() {
            l.linger_us.store(us, Ordering::Relaxed);
        }
    }

    /// Retunes one lane's batch size cap (clamped to ≥ 1), leaving the
    /// other lanes alone. Out-of-range lanes are ignored.
    pub fn set_lane_max_batch(&self, lane: usize, n: usize) {
        if let Some(l) = self.lanes.get(lane) {
            l.max_batch.store(n.max(1), Ordering::Relaxed);
        }
    }

    /// Retunes one lane's batch linger, leaving the other lanes alone.
    /// Out-of-range lanes are ignored.
    pub fn set_lane_batch_linger(&self, lane: usize, linger: Duration) {
        if let Some(l) = self.lanes.get(lane) {
            l.linger_us.store(
                linger.as_micros().min(u64::MAX as u128) as u64,
                Ordering::Relaxed,
            );
        }
    }

    /// Repartitions the shared compute backend (JPEG decode, preproc
    /// kernels, and model execution) to `n` threads, from the next
    /// parallel region. Outputs are bit-identical for any value.
    pub fn set_backend_threads(&self, n: usize) {
        self.backend.set_threads(n);
    }

    /// Resizes the preproc cache byte budget immediately (LRU entries are
    /// evicted down to the new budget; `0` disables the cache and drains
    /// it). Workers observe the change on their next job.
    pub fn set_preproc_cache_bytes(&self, bytes: usize) {
        self.knobs.cache_bytes.store(bytes, Ordering::Relaxed);
        let mut c = match self.cache.lock() {
            Ok(g) => g,
            Err(e) => e.into_inner(),
        };
        c.set_capacity_bytes(bytes);
    }

    /// Grows or shrinks the preprocessing worker pool to `n` workers
    /// (clamped to ≥ 1) without dropping queued requests: growth spawns
    /// immediately; shrink lets surplus workers retire *between* jobs
    /// (within [`PREPROC_POLL`] when idle), and pending jobs stay in the
    /// shared ingress channel for the survivors.
    pub fn set_preproc_workers(&self, n: usize) {
        let n = n.max(1);
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        self.knobs.preproc_target.store(n, Ordering::SeqCst);
        // Spawns are serialized by the pool lock, so the live count only
        // moves down (worker retirement) while this loop runs.
        while self.knobs.preproc_live.load(Ordering::SeqCst) < n {
            self.knobs.preproc_live.fetch_add(1, Ordering::SeqCst);
            pool.spawn();
        }
    }

    /// A capability handle for a pipeline executor: lane-addressed
    /// reserved submission, stage accounting, and trace access, detached
    /// from the server's lifetime handle so the executor can run on its
    /// own thread. See [`PipelineHandle`].
    pub fn pipeline_handle(&self) -> PipelineHandle {
        let ingress = self
            .ingress
            .as_ref()
            .expect("pipeline_handle on a live server")
            .clone();
        PipelineHandle {
            ingress,
            lanes: Arc::clone(&self.lanes),
            shared: Arc::clone(&self.shared),
            deadline: self.deadline,
            trace: self.tracer.register("pipeline"),
            next_req: Arc::clone(&self.next_req),
            queue_cap: self.queue_cap,
        }
    }

    /// Registers (or replaces) a named multi-stage pipeline executor.
    /// [`submit_request`](Self::submit_request) with [`Target::Pipeline`]
    /// and the net front-end route to it by name. The server drops every
    /// registered driver *before* shutting down its own workers.
    pub fn register_pipeline(&self, name: &str, driver: Arc<dyn PipelineDriver>) {
        self.pipelines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(name.to_string(), driver);
    }

    /// Whether a pipeline with this name is registered (wire routing
    /// checks this before dispatching a tenant-addressed request to a
    /// cascade instead of a lane).
    pub fn has_pipeline(&self, name: &str) -> bool {
        self.pipelines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(name)
    }

    fn pipeline_of(&self, name: &str) -> Option<Arc<dyn PipelineDriver>> {
        self.pipelines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(name)
            .cloned()
    }
}

/// A registered multi-stage pipeline executor, as seen by the server and
/// the net front-end. `vserve-pipeline`'s `PipelineRunner` implements
/// this; the trait lives here so the front-end can dispatch cascades
/// without depending on the pipeline crate.
///
/// `submit` mirrors the shape of [`LiveServer::submit_request`]: it must
/// never block the caller, every outcome (including sheds) flows through
/// the returned channel, and a supplied hook fires exactly once after the
/// reply value is in the channel.
pub trait PipelineDriver: Send + Sync {
    /// Submits one frame to the cascade's root stage; the channel yields
    /// the joined final reply.
    fn submit(
        &self,
        jpeg: Vec<u8>,
        deadline: Option<Duration>,
        trace_id: Option<u64>,
        hook: Option<Box<dyn FnOnce() + Send>>,
    ) -> ReplyReceiver;
}

/// What a pipeline executor needs from a [`LiveServer`], detached from
/// the server's owning handle: lane-addressed **reserved** submission,
/// cascade stage accounting into the shared breakdown, trace access, and
/// the ingress capacity that bounds fan-out admission.
///
/// The handle holds an ingress sender clone, so a live handle keeps the
/// server's worker pipeline open: drop executors (or register them with
/// [`LiveServer::register_pipeline`], which drops them for you) before
/// expecting server shutdown to complete.
pub struct PipelineHandle {
    ingress: Sender<Job>,
    lanes: Arc<Vec<LaneRt>>,
    shared: Arc<Shared>,
    deadline: Option<Duration>,
    trace: TraceHandle,
    next_req: Arc<AtomicU64>,
    queue_cap: usize,
}

impl std::fmt::Debug for PipelineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHandle")
            .field("lanes", &self.lanes.len())
            .field("queue_cap", &self.queue_cap)
            .finish()
    }
}

impl PipelineHandle {
    /// Number of tenant lanes.
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Resolves a tenant or model name to its lane (see
    /// [`LiveServer::lane_of`]).
    pub fn lane_of(&self, name: &str) -> Option<usize> {
        self.lanes
            .iter()
            .position(|l| l.spec.name == name)
            .or_else(|| self.lanes.iter().position(|l| l.spec.model == name))
    }

    /// Input side of the lane's model (fan-out transforms target this).
    pub fn lane_side(&self, lane: usize) -> Option<usize> {
        self.lanes.get(lane).map(|l| l.side)
    }

    /// Trace tenant tag for a lane (lane `i` records as `i + 1`).
    pub fn lane_tag(lane: usize) -> u32 {
        LaneRt::tag(lane)
    }

    /// The server's ingress queue capacity — the budget the executor's
    /// fan-out reservation rule admits against (a pipeline whose
    /// worst-case sub-request count exceeds it can never be admitted).
    pub fn queue_cap(&self) -> usize {
        self.queue_cap
    }

    /// Server-wide default deadline ([`LiveOptions::deadline`]).
    pub fn default_deadline(&self) -> Option<Duration> {
        self.deadline
    }

    /// Draws the next request id from the server's shared trace-id space.
    pub fn next_trace_id(&self) -> u64 {
        self.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// The executor's trace track (registered as `pipeline`), for the
    /// parent span and the fan-out/join bookkeeping spans.
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Records one cascade stage observation into the server's shared
    /// [`StageBreakdown`], so cascade rows appear in
    /// [`LiveMetrics::breakdown`] / [`ServingSummary`](crate::report)
    /// alongside the per-request stage rows.
    pub fn record_stage(&self, stage: &str, secs: f64) {
        self.shared.lock().breakdown.record(stage, secs);
    }

    /// Lane-addressed submission with **reserved** ingress capacity: the
    /// quota/EDF admission gates still apply (typed
    /// [`LiveError::QuotaExceeded`] / [`LiveError::SloInfeasible`] sheds),
    /// but an admitted sub-request *blocks* on a full ingress queue
    /// instead of shedding [`LiveError::Overloaded`]. The preprocessing
    /// pool drains ingress independently of any pipeline executor, so the
    /// blocking send always terminates — this is what makes a bounded
    /// queue unable to deadlock a half-finished parent whose children the
    /// executor already promised to submit (DESIGN §16).
    pub fn submit_reserved(
        &self,
        lane: usize,
        jpeg: Vec<u8>,
        deadline: Option<Duration>,
        trace_id: Option<u64>,
        hook: Option<Box<dyn FnOnce() + Send>>,
    ) -> ReplyReceiver {
        let (tx, rx) = bounded(1);
        let now = Instant::now();
        let id = trace_id.unwrap_or_else(|| self.next_req.fetch_add(1, Ordering::Relaxed));
        let nbytes = jpeg.len() as u64;
        let slot = ReplySlot { tx, hook };
        let Some(l) = self.lanes.get(lane) else {
            slot.send(Err(LiveError::Disconnected));
            return rx;
        };
        if let Err(e) = admit_lane(l, &self.shared, now) {
            slot.send(Err(e));
            return rx;
        }
        let job = Job {
            id,
            lane: lane as u32,
            jpeg: jpeg.into(),
            submitted: now,
            deadline: deadline.or(self.deadline).map(|d| now + d),
            reply: slot,
        };
        match self.ingress.send(job) {
            Ok(()) => {
                l.depth.fetch_add(1, Ordering::Relaxed);
                let t = self.shared.secs(now);
                self.shared.lock().queue_depth.add(t, 1.0);
                self.trace
                    .event_tagged(LaneRt::tag(lane), id, trace_events::INGRESS, now, nbytes);
            }
            Err(e) => {
                let _ = e.0.reply.send(Err(LiveError::Disconnected));
            }
        }
        rx
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        // Pipeline drivers first: their executors hold ingress sender
        // clones (inside PipelineHandles) and rely on the still-running
        // workers to retire in-flight sub-requests, so they must shut
        // down while the server is fully alive. Only then can closing
        // our ingress copy actually disconnect the channel.
        self.pipelines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        self.ingress.take(); // close ingress: workers drain and exit
        let (env, preproc_handles) = {
            let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
            (pool.env.take(), std::mem::take(&mut pool.handles))
        };
        // Dropping the pool's env releases its ready-channel sender, so
        // the batcher disconnects once the workers are gone.
        drop(env);
        for h in preproc_handles {
            let _ = h.join();
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vserve_device::ImageSpec;
    use vserve_dnn::models;
    use vserve_workload::synthetic_jpeg;

    fn tiny_opts(max_batch: usize) -> LiveOptions {
        LiveOptions {
            preproc_workers: 2,
            inference_workers: 1,
            max_batch,
            max_queue_delay: Duration::from_millis(2),
            input_side: 32,
            queue_cap: 256,
            deadline: None,
            backend_threads: 1,
            ..LiveOptions::default()
        }
    }

    fn tiny_server(max_batch: usize) -> LiveServer {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        LiveServer::start(model, tiny_opts(max_batch))
    }

    fn to_lane(lane: usize, jpeg: Vec<u8>) -> Request<'static> {
        Request {
            target: Target::Lane(lane),
            ..Request::new(jpeg)
        }
    }

    #[test]
    fn single_request_round_trips() {
        let server = tiny_server(4);
        let jpeg = synthetic_jpeg(&ImageSpec::new(48, 40, 0), 5);
        let r = server.infer(jpeg).unwrap();
        assert_eq!(r.output.len(), 10);
        let sum: f32 = r.output.iter().sum();
        assert!((sum - 1.0).abs() < 1e-4, "softmax sum {sum}");
        assert!(r.total >= r.inference);
        assert!(r.batch_size >= 1);
    }

    #[test]
    fn many_concurrent_requests_all_answered() {
        let server = tiny_server(8);
        let receivers: Vec<_> = (0..40)
            .map(|i| server.submit(synthetic_jpeg(&ImageSpec::new(40, 40, 0), i)))
            .collect();
        for rx in receivers {
            let r = rx.recv().unwrap().unwrap();
            assert_eq!(r.output.len(), 10);
        }
    }

    #[test]
    fn metrics_surface_scratch_fallbacks() {
        // With a single inference worker the model's scratch arena is
        // never contended, so the counter must read zero — the field is
        // here so operators can see when multi-worker configs start
        // paying the silent local-arena fallback.
        let server = tiny_server(4);
        for i in 0..4 {
            let _ = server
                .infer(synthetic_jpeg(&ImageSpec::new(40, 40, 0), 60 + i))
                .unwrap();
        }
        assert_eq!(server.metrics().scratch_fallbacks, 0);
    }

    #[test]
    fn bad_jpeg_reports_decode_error() {
        let server = tiny_server(4);
        let err = server.infer(vec![1, 2, 3]).unwrap_err();
        assert!(matches!(err, LiveError::Decode(_)));
    }

    #[test]
    fn corrupt_sos_selector_is_a_typed_error_and_workers_survive() {
        // A valid JPEG with one byte changed: the first scan component's
        // Huffman table selector (FF DA, length, count, id, Td/Ta) set to
        // an undefined destination. Once per preprocessing worker and one
        // more, so a worker lost to it would leave a request unanswered.
        let server = tiny_server(4);
        let good = synthetic_jpeg(&ImageSpec::new(48, 40, 0), 5);
        let sos = good
            .windows(2)
            .position(|w| w == [0xff, 0xda])
            .expect("has SOS");
        let mut bad = good.clone();
        bad[sos + 6] = 0x50;
        for _ in 0..3 {
            let err = server.infer(bad.clone()).unwrap_err();
            assert!(matches!(err, LiveError::Decode(_)), "{err}");
        }
        assert_eq!(server.infer(good).unwrap().output.len(), 10);
    }

    #[test]
    fn hook_fires_after_reply_is_receivable() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let server = tiny_server(4);
        let fired = Arc::new(AtomicUsize::new(0));
        let (notify_tx, notify_rx) = bounded::<()>(8);
        // Success path: by the time the hook runs, try_recv must succeed.
        let jpeg = synthetic_jpeg(&ImageSpec::new(48, 40, 0), 5);
        let f = Arc::clone(&fired);
        let n = notify_tx.clone();
        let rx = server.submit_request(Request {
            hook: Some(Box::new(move || {
                f.fetch_add(1, Ordering::SeqCst);
                let _ = n.send(());
            })),
            ..Request::new(jpeg)
        });
        notify_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("hook must fire");
        let r = rx.try_recv().expect("reply must precede hook");
        assert_eq!(r.unwrap().output.len(), 10);
        assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fires exactly once");

        // Error path (decode failure) fires the hook the same way.
        let f = Arc::clone(&fired);
        let n = notify_tx.clone();
        let rx = server.submit_request(Request {
            hook: Some(Box::new(move || {
                f.fetch_add(1, Ordering::SeqCst);
                let _ = n.send(());
            })),
            ..Request::new(vec![1, 2, 3])
        });
        notify_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("hook must fire on error path");
        assert!(matches!(
            rx.try_recv().expect("error reply must precede hook"),
            Err(LiveError::Decode(_))
        ));
        assert_eq!(fired.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn hook_fires_on_shutdown_drop() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Requests still queued when the server shuts down must fire
        // their hooks (via ReplySlot::drop), so the net front-end can
        // fail them as Disconnected instead of leaking conn slots.
        let fired = Arc::new(AtomicUsize::new(0));
        let n_requests: usize = 12;
        {
            let server = tiny_server(4);
            for i in 0..n_requests {
                let f = Arc::clone(&fired);
                let _ = server.submit_request(Request {
                    hook: Some(Box::new(move || {
                        f.fetch_add(1, Ordering::SeqCst);
                    })),
                    ..Request::new(synthetic_jpeg(&ImageSpec::new(40, 40, 0), 100 + i as u64))
                });
            }
            // Dropping the server here: some requests complete, the rest
            // are dropped by worker shutdown.
        }
        assert_eq!(
            fired.load(Ordering::SeqCst),
            n_requests,
            "every submitted request fires its hook exactly once"
        );
    }

    /// Every [`Request`] shape through the one entry point: {lane 0, named
    /// lane, out-of-range lane, registered pipeline, unknown pipeline} ×
    /// {hook, no hook} × {served, shed by a full queue}. Each request gets
    /// exactly one reply and exactly one hook call, the hook never runs
    /// before the reply is receivable, and an unroutable target answers
    /// `Disconnected` with the hook still fired.
    #[test]
    fn submit_request_replies_once_for_every_request_shape() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

        /// Stand-in cascade: one stage on lane 0 with reserved capacity,
        /// shedding like a runner whose fan-out reservation does not fit.
        struct OneStage {
            handle: PipelineHandle,
            full: AtomicBool,
        }
        impl PipelineDriver for OneStage {
            fn submit(
                &self,
                jpeg: Vec<u8>,
                deadline: Option<Duration>,
                trace_id: Option<u64>,
                hook: Option<Box<dyn FnOnce() + Send>>,
            ) -> ReplyReceiver {
                if self.full.load(Ordering::SeqCst) {
                    let (tx, rx) = bounded(1);
                    ReplySlot { tx, hook }.send(Err(LiveError::Overloaded));
                    return rx;
                }
                self.handle
                    .submit_reserved(0, jpeg, deadline, trace_id, hook)
            }
        }

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Outcome {
            Served,
            Overloaded,
            Disconnected,
        }

        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                queue_cap: 2,
                tenants: vec![
                    TenantSpec::new("a", "default"),
                    TenantSpec::new("b", "default"),
                ],
                ..tiny_opts(4)
            },
        );
        let cascade = Arc::new(OneStage {
            handle: server.pipeline_handle(),
            full: AtomicBool::new(false),
        });
        server.register_pipeline("cascade", cascade.clone());
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 77);
        let hooks: Mutex<Vec<Arc<AtomicUsize>>> = Mutex::new(Vec::new());

        // Submits one request of the given shape and returns its single
        // reply. With a hook the reply is only looked at after the hook
        // has run, and must already be there.
        let run = |target: Target<'_>, with_hook: bool| -> Outcome {
            let (notify_tx, notify_rx) = bounded::<()>(1);
            let hook = with_hook.then(|| {
                let fired = Arc::new(AtomicUsize::new(0));
                hooks.lock().unwrap().push(Arc::clone(&fired));
                Box::new(move || {
                    fired.fetch_add(1, Ordering::SeqCst);
                    let _ = notify_tx.send(());
                }) as Box<dyn FnOnce() + Send>
            });
            let rx = server.submit_request(Request {
                target,
                hook,
                ..Request::new(jpeg.clone())
            });
            let reply = if with_hook {
                notify_rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("hook must fire");
                rx.try_recv().expect("reply must precede hook")
            } else {
                rx.recv_timeout(Duration::from_secs(30))
                    .expect("one reply per request")
            };
            assert!(rx.try_recv().is_err(), "a second reply for {target:?}");
            match reply {
                Ok(r) => {
                    assert_eq!(r.output.len(), 10);
                    Outcome::Served
                }
                Err(LiveError::Overloaded) => Outcome::Overloaded,
                Err(LiveError::Disconnected) => Outcome::Disconnected,
                Err(e) => panic!("unexpected error {e} for {target:?}"),
            }
        };

        let named = server.lane_of("b").expect("tenant b has a lane");
        assert_eq!(named, 1);
        let table = [
            (Target::Lane(0), true),
            (Target::Lane(named), true),
            (Target::Lane(server.lane_count()), false),
            (Target::Pipeline("cascade"), true),
            (Target::Pipeline("nope"), false),
        ];

        // Column 1: the queue has room, routable targets are served.
        for (target, routable) in table {
            for with_hook in [true, false] {
                let want = if routable {
                    Outcome::Served
                } else {
                    Outcome::Disconnected
                };
                assert_eq!(run(target, with_hook), want, "{target:?} hook {with_hook}");
            }
        }
        assert_eq!(server.metrics().rejected, 0);

        // Column 2: a full queue. The only preproc worker is parked inside
        // the hook of a request it failed to decode, two fillers occupy
        // the two ingress slots, so the next lane request finds no room.
        let (entered_tx, entered_rx) = bounded::<()>(1);
        let (gate_tx, gate_rx) = bounded::<()>(1);
        let blocker = server.submit_request(Request {
            hook: Some(Box::new(move || {
                let _ = entered_tx.send(());
                let _ = gate_rx.recv();
            })),
            ..Request::new(vec![1, 2, 3])
        });
        entered_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("worker reaches the blocking hook");
        let fillers = [server.submit(jpeg.clone()), server.submit(jpeg.clone())];
        cascade.full.store(true, Ordering::SeqCst);
        for (target, routable) in table {
            for with_hook in [true, false] {
                let want = if routable {
                    Outcome::Overloaded
                } else {
                    Outcome::Disconnected
                };
                assert_eq!(run(target, with_hook), want, "{target:?} hook {with_hook}");
            }
        }
        // Two lane shapes × {hook, no hook} were shed at the ingress queue.
        assert_eq!(server.metrics().rejected, 4);
        gate_tx.send(()).unwrap();
        assert!(matches!(blocker.recv().unwrap(), Err(LiveError::Decode(_))));
        for rx in fillers {
            assert_eq!(rx.recv().unwrap().unwrap().output.len(), 10);
        }

        drop(cascade);
        drop(server);
        let hooks = hooks.into_inner().unwrap();
        assert_eq!(hooks.len(), 2 * table.len());
        for fired in hooks {
            assert_eq!(fired.load(Ordering::SeqCst), 1, "hook fires exactly once");
        }
    }

    #[test]
    fn shutdown_joins_cleanly() {
        let server = tiny_server(4);
        let jpeg = synthetic_jpeg(&ImageSpec::new(32, 32, 0), 9);
        let _ = server.infer(jpeg).unwrap();
        drop(server); // must not hang
    }

    #[test]
    fn burst_executes_as_batches_not_items() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                // A generous batcher window so every decoded request of the
                // burst lands in the same assembly round.
                max_queue_delay: Duration::from_millis(300),
                ..tiny_opts(8)
            },
        );
        let receivers: Vec<_> = (0..16)
            .map(|i| server.submit(synthetic_jpeg(&ImageSpec::new(32, 32, 0), i)))
            .collect();
        let results: Vec<LiveResult> = receivers
            .iter()
            .map(|rx| rx.recv().unwrap().unwrap())
            .collect();
        let m = server.metrics();
        // 16 requests must NOT mean 16 forward calls: batches execute via
        // a single batched forward pass.
        assert!(
            m.forward_calls < 16,
            "expected batched execution, got {} forward calls for 16 requests",
            m.forward_calls
        );
        assert!(m.mean_batch > 1.0, "mean batch {}", m.mean_batch);
        assert!(
            results.iter().any(|r| r.batch_size > 1),
            "no multi-item batch formed"
        );
        assert_eq!(m.completed, 16);
    }

    #[test]
    fn batch_stage_times_sum_to_batch_wall() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                max_queue_delay: Duration::from_millis(200),
                ..tiny_opts(4)
            },
        );
        let receivers: Vec<_> = (0..12)
            .map(|i| server.submit(synthetic_jpeg(&ImageSpec::new(32, 32, 0), i)))
            .collect();
        let results: Vec<LiveResult> = receivers
            .iter()
            .map(|rx| rx.recv().unwrap().unwrap())
            .collect();
        let m = server.metrics();
        // Per-item inference is batch wall / batch size, so summing the
        // per-request stage times over all batches must recover the total
        // forward wall time (up to nanosecond division truncation).
        let summed: f64 = results.iter().map(|r| r.inference.as_secs_f64()).sum();
        let wall = m.inference_wall.as_secs_f64();
        assert!(
            (summed - wall).abs() < 1e-4 + wall * 0.01,
            "per-item inference sums to {summed}, batch wall {wall}"
        );
        // And every item reports a batch-consistent share.
        for r in &results {
            assert!(
                r.inference * r.batch_size as u32 <= m.inference_wall + Duration::from_micros(100)
            );
        }
    }

    #[test]
    fn overload_rejects_with_overloaded() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                queue_cap: 2,
                ..tiny_opts(4)
            },
        );
        // Submitting far faster than one worker can decode must overflow
        // the 2-deep ingress queue. Encode the payloads up front so the
        // burst isn't paced by JPEG encoding in the submit loop.
        let payloads: Vec<_> = (0..40)
            .map(|i| synthetic_jpeg(&ImageSpec::new(640, 480, 0), i))
            .collect();
        let receivers: Vec<_> = payloads.into_iter().map(|p| server.submit(p)).collect();
        let mut ok = 0u64;
        let mut overloaded = 0u64;
        for rx in receivers {
            match rx.recv().unwrap() {
                Ok(_) => ok += 1,
                Err(LiveError::Overloaded) => overloaded += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        assert_eq!(ok + overloaded, 40);
        assert!(ok >= 1, "accepted requests must still complete");
        assert!(overloaded >= 1, "cap 2 with a 40-deep burst must shed");
        let m = server.metrics();
        assert_eq!(m.rejected, overloaded);
        assert_eq!(m.completed, ok);
    }

    #[test]
    fn deadline_expired_requests_fail_fast() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                deadline: Some(Duration::ZERO),
                ..tiny_opts(4)
            },
        );
        for i in 0..3 {
            let err = server
                .infer(synthetic_jpeg(&ImageSpec::new(32, 32, 0), i))
                .unwrap_err();
            assert!(matches!(err, LiveError::DeadlineExceeded), "got {err}");
        }
        let m = server.metrics();
        assert_eq!(m.expired, 3);
        assert_eq!(m.completed, 0);
    }

    #[test]
    fn backend_metrics_reported_and_outputs_thread_invariant() {
        let jpeg = synthetic_jpeg(&ImageSpec::new(48, 48, 0), 11);
        let run = |threads: usize| {
            let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
            let server = LiveServer::start(
                model,
                LiveOptions {
                    backend_threads: threads,
                    ..tiny_opts(4)
                },
            );
            let out = server.infer(jpeg.clone()).unwrap().output;
            let m = server.metrics();
            assert_eq!(m.backend_threads, threads);
            assert!(
                m.parallel_efficiency > 0.0 && m.parallel_efficiency <= 1.0 + 1e-6,
                "efficiency {}",
                m.parallel_efficiency
            );
            out
        };
        // Decode, preprocess, and inference all ride the backend; the
        // whole pipeline must be bit-identical across thread counts.
        assert_eq!(run(1), run(4));
    }

    /// Satellite: N duplicate in-flight requests produce exactly one
    /// decode. The payload is large enough that the leader is still
    /// decoding while the other worker parks every duplicate, so the
    /// coalesce counter must reach N − 1 deterministically (the cache is
    /// disabled to keep coalescing the only duplicate-suppression path).
    #[test]
    fn duplicate_inflight_requests_coalesce_to_one_decode() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_cache_mb: Some(0),
                max_queue_delay: Duration::from_millis(100),
                ..tiny_opts(8)
            },
        );
        let n = 8;
        let jpeg = synthetic_jpeg(&ImageSpec::new(1600, 1200, 0), 17);
        let receivers: Vec<_> = (0..n).map(|_| server.submit(jpeg.clone())).collect();
        let results: Vec<LiveResult> = receivers
            .iter()
            .map(|rx| rx.recv().unwrap().unwrap())
            .collect();
        let m = server.metrics();
        assert_eq!(
            m.preproc_cache.coalesced,
            (n - 1) as u64,
            "every duplicate must attach to the leader's decode"
        );
        // One leader did real work; every waiter reports zero preproc.
        let zero = results
            .iter()
            .filter(|r| r.preproc == Duration::ZERO)
            .count();
        assert_eq!(zero, n - 1);
        // All requests share the one decode's answer.
        for r in &results {
            assert_eq!(r.output, results[0].output);
        }
        assert_eq!(m.completed, n as u64);
    }

    /// Cache hits skip preprocessing: a repeated payload is served from
    /// the content-addressed cache with hash+lookup-only preproc time.
    #[test]
    fn repeated_payload_hits_cache_with_near_zero_preproc() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_cache_mb: Some(8),
                ..tiny_opts(4)
            },
        );
        let jpeg = synthetic_jpeg(&ImageSpec::new(640, 480, 0), 23);
        let first = server.infer(jpeg.clone()).unwrap();
        let second = server.infer(jpeg.clone()).unwrap();
        assert_eq!(first.output, second.output);
        let m = server.metrics();
        assert_eq!(m.preproc_cache.misses, 1);
        assert!(m.preproc_cache.hits >= 1, "stats {:?}", m.preproc_cache);
        assert!(m.preproc_cache.entries >= 1);
        assert!(m.preproc_cache.bytes <= m.preproc_cache.capacity_bytes);
        // The hit's measured preproc is hash + lookup, far below a real
        // 640×480 decode.
        assert!(
            second.preproc.as_secs_f64() < first.preproc.as_secs_f64() / 2.0,
            "hit {:?} vs miss {:?}",
            second.preproc,
            first.preproc
        );
    }

    /// Satellite: the fused fast path is bit-identical with the cache on
    /// and off (a cached tensor is the same bytes a fresh decode makes),
    /// and distinct payloads never alias in the cache.
    #[test]
    fn outputs_bit_identical_cache_on_and_off() {
        let jpegs: Vec<Vec<u8>> = (0..4)
            .map(|i| synthetic_jpeg(&ImageSpec::new(96, 80, 0), 40 + i))
            .collect();
        let run = |cache_mb: usize| {
            let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
            let server = LiveServer::start(
                model,
                LiveOptions {
                    preproc_cache_mb: Some(cache_mb),
                    ..tiny_opts(4)
                },
            );
            // Each payload twice: the second pass hits when caching is on.
            let mut outs = Vec::new();
            for _ in 0..2 {
                for j in &jpegs {
                    outs.push(server.infer(j.clone()).unwrap().output);
                }
            }
            outs
        };
        let with_cache = run(8);
        let without = run(0);
        assert_eq!(with_cache, without);
        // Repeats must agree with their first serving.
        for (a, b) in with_cache[..4].iter().zip(&with_cache[4..]) {
            assert_eq!(a, b);
        }
    }

    /// The unfused baseline path still works when the fast path is off.
    #[test]
    fn baseline_preproc_path_still_serves() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                fast_preproc: false,
                ..tiny_opts(4)
            },
        );
        let r = server
            .infer(synthetic_jpeg(&ImageSpec::new(300, 200, 0), 51))
            .unwrap();
        assert_eq!(r.output.len(), 10);
        let sum: f32 = r.output.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3);
    }

    /// Satellite: a per-request deadline overrides the server-wide
    /// default in both directions — an impossible per-request deadline
    /// sheds even when the server has none, and a generous one rescues a
    /// request from an impossible server default.
    #[test]
    fn per_request_deadline_overrides_server_default() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(model, tiny_opts(4));
        let jpeg = synthetic_jpeg(&ImageSpec::new(32, 32, 0), 61);
        let err = server
            .submit_request(Request {
                deadline: Some(Duration::ZERO),
                ..Request::new(jpeg.clone())
            })
            .recv()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, LiveError::DeadlineExceeded), "got {err}");
        drop(server);

        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                deadline: Some(Duration::ZERO),
                ..tiny_opts(4)
            },
        );
        let r = server
            .submit_request(Request {
                deadline: Some(Duration::from_secs(60)),
                ..Request::new(jpeg)
            })
            .recv()
            .unwrap()
            .unwrap();
        assert_eq!(r.output.len(), 10);
    }

    /// Satellite (robustness): dropping the server with requests still in
    /// flight must answer every receiver — either with a result or with a
    /// clean `Disconnected`/channel-closed — and never panic or hang. This
    /// is the path a remote disconnect exercises through `vserve-net`.
    #[test]
    fn drop_with_requests_in_flight_answers_or_disconnects() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                ..tiny_opts(4)
            },
        );
        // Large payloads so some are still mid-pipeline at drop time.
        let receivers: Vec<_> = (0..12)
            .map(|i| server.submit(synthetic_jpeg(&ImageSpec::new(800, 600, 0), i)))
            .collect();
        drop(server); // drains in-flight work, then joins workers
        for rx in receivers {
            match rx.recv() {
                Ok(Ok(r)) => assert_eq!(r.output.len(), 10),
                Ok(Err(e)) => assert!(
                    matches!(e, LiveError::Disconnected),
                    "in-flight request failed with {e}"
                ),
                // Reply sender dropped during shutdown: also a clean end.
                Err(_) => {}
            }
        }
    }

    /// Satellite: the batch linger default is env-overridable.
    #[test]
    fn batch_linger_env_override_applies_to_default() {
        // Serial-safe (the harness runs --test-threads=1): set, assert,
        // restore.
        std::env::set_var(BATCH_LINGER_US_ENV, "750");
        assert_eq!(
            LiveOptions::default().max_queue_delay,
            Duration::from_micros(750)
        );
        std::env::set_var(BATCH_LINGER_US_ENV, "not-a-number");
        assert_eq!(LiveOptions::default().max_queue_delay, DEFAULT_BATCH_LINGER);
        std::env::remove_var(BATCH_LINGER_US_ENV);
        assert_eq!(LiveOptions::default().max_queue_delay, DEFAULT_BATCH_LINGER);
    }

    /// Every knob setter is visible in the next `knobs()` snapshot and in
    /// the metrics the controller reads.
    #[test]
    fn knob_setters_take_effect_and_snapshot() {
        let server = tiny_server(4);
        let k = server.knobs();
        assert_eq!(k.max_batch, 4);
        assert_eq!(k.linger, Duration::from_millis(2));
        assert_eq!(k.preproc_workers, 2);
        assert_eq!(k.backend_threads, 1);

        server.set_max_batch(0); // clamps
        server.set_batch_linger(Duration::from_micros(300));
        server.set_backend_threads(3);
        server.set_preproc_cache_bytes(1 << 20);
        let k = server.knobs();
        assert_eq!(k.max_batch, 1);
        assert_eq!(k.linger, Duration::from_micros(300));
        assert_eq!(k.backend_threads, 3);
        assert_eq!(k.preproc_cache_bytes, 1 << 20);
        let m = server.metrics();
        assert_eq!(m.backend_threads, 3);
        assert_eq!(m.preproc_cache.capacity_bytes, 1 << 20);
        // The retuned server still serves.
        let r = server
            .infer(synthetic_jpeg(&ImageSpec::new(48, 48, 0), 3))
            .unwrap();
        assert_eq!(r.output.len(), 10);
    }

    /// The windowed latency summary drains: each take sees only the
    /// requests completed since the previous take.
    #[test]
    fn latency_window_drains_between_takes() {
        let server = tiny_server(4);
        for i in 0..3 {
            let _ = server
                .infer(synthetic_jpeg(&ImageSpec::new(40, 40, 0), i))
                .unwrap();
        }
        assert_eq!(server.take_latency_window().count, 3);
        assert_eq!(server.take_latency_window().count, 0);
        let _ = server
            .infer(synthetic_jpeg(&ImageSpec::new(40, 40, 0), 9))
            .unwrap();
        assert_eq!(server.take_latency_window().count, 1);
        // Cumulative metrics are unaffected by draining the window.
        assert_eq!(server.metrics().latency.count, 4);
    }

    /// Satellite: shrinking the cache budget under load evicts down to
    /// the new budget immediately and serving continues; disabling and
    /// re-enabling at runtime works because workers re-check the budget
    /// per job (the old code snapshotted it once at startup).
    #[test]
    fn cache_resize_under_load_evicts_and_reenables() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_cache_mb: Some(8),
                ..tiny_opts(4)
            },
        );
        let jpegs: Vec<Vec<u8>> = (0..6)
            .map(|i| synthetic_jpeg(&ImageSpec::new(320, 240, 0), 70 + i))
            .collect();
        for j in &jpegs {
            let _ = server.infer(j.clone()).unwrap();
        }
        let before = server.metrics().preproc_cache;
        assert_eq!(before.entries, 6);
        assert!(before.bytes > 0);

        // Shrink to hold roughly one tensor: immediate LRU eviction.
        let one_tensor = 3 * 32 * 32 * 4;
        server.set_preproc_cache_bytes(one_tensor);
        let shrunk = server.metrics().preproc_cache;
        assert!(shrunk.bytes <= one_tensor, "stats {shrunk:?}");
        assert!(shrunk.evictions >= 5, "stats {shrunk:?}");
        // Serving continues mid-shrink.
        let _ = server.infer(jpegs[0].clone()).unwrap();

        // Disable entirely: drains, and new work stops inserting.
        server.set_preproc_cache_bytes(0);
        assert_eq!(server.metrics().preproc_cache.entries, 0);
        let _ = server.infer(jpegs[1].clone()).unwrap();
        assert_eq!(server.metrics().preproc_cache.entries, 0);

        // Re-enable at runtime: the per-job budget check picks it up and
        // a repeat becomes a hit again.
        server.set_preproc_cache_bytes(8 << 20);
        let miss = server.infer(jpegs[2].clone()).unwrap();
        let hit = server.infer(jpegs[2].clone()).unwrap();
        let after = server.metrics().preproc_cache;
        assert!(after.entries >= 1, "stats {after:?}");
        assert!(
            hit.preproc.as_secs_f64() < miss.preproc.as_secs_f64() / 2.0,
            "hit {:?} vs miss {:?}",
            hit.preproc,
            miss.preproc
        );
    }

    /// Satellite: growing and shrinking the preproc pool mid-burst drops
    /// no requests — queued jobs stay in the shared channel for the
    /// survivors, and workers only retire between jobs.
    #[test]
    fn preproc_pool_grow_shrink_drops_no_requests() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                ..tiny_opts(4)
            },
        );
        let n = 48;
        let mut receivers = Vec::new();
        for round in 0..4 {
            for i in 0..n / 4 {
                receivers.push(server.submit(synthetic_jpeg(
                    &ImageSpec::new(160, 120, 0),
                    (round * 100 + i) as u64,
                )));
            }
            // Resize while the burst is in flight: 1 → 4 → 1 → 3.
            server.set_preproc_workers([4, 1, 3, 1][round]);
        }
        let mut ok = 0;
        for rx in receivers {
            match rx.recv().unwrap() {
                Ok(r) => {
                    assert_eq!(r.output.len(), 10);
                    ok += 1;
                }
                Err(e) => panic!("request dropped across pool resize: {e}"),
            }
        }
        assert_eq!(ok, n);
        assert_eq!(server.metrics().completed, n as u64);

        // Surplus workers retire (no thread leak): live drains to the
        // final target of 1 within a few poll intervals.
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let k = server.knobs();
            if k.preproc_workers_live == 1 {
                assert_eq!(k.preproc_workers, 1);
                break;
            }
            assert!(Instant::now() < deadline, "workers never retired: {k:?}");
            std::thread::sleep(Duration::from_millis(5));
        }
        // And a grow after the shrink still works.
        server.set_preproc_workers(2);
        assert_eq!(server.knobs().preproc_workers_live, 2);
        let r = server
            .infer(synthetic_jpeg(&ImageSpec::new(48, 48, 0), 999))
            .unwrap();
        assert_eq!(r.output.len(), 10);
    }

    /// Satellite: outputs are bit-identical while a controller flaps
    /// every knob mid-run (the thread-invariance harness extended to
    /// runtime reconfiguration).
    #[test]
    fn outputs_bit_identical_while_knobs_flap() {
        let jpegs: Vec<Vec<u8>> = (0..4)
            .map(|i| synthetic_jpeg(&ImageSpec::new(96, 80, 0), 80 + i))
            .collect();
        let serve_all = |server: &LiveServer| -> Vec<Vec<f32>> {
            let mut outs = Vec::new();
            for _ in 0..3 {
                for j in &jpegs {
                    outs.push(server.infer(j.clone()).unwrap().output);
                }
            }
            outs
        };
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let baseline = serve_all(&LiveServer::start(model, tiny_opts(4)));

        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = Arc::new(LiveServer::start(model, tiny_opts(4)));
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let flapper = {
            let server = Arc::clone(&server);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut i = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    server.set_max_batch([1, 3, 8][i % 3]);
                    server.set_batch_linger(Duration::from_micros([100, 2000, 500][i % 3]));
                    server.set_backend_threads([1, 4, 2][i % 3]);
                    server.set_preproc_workers([2, 4, 1][i % 3]);
                    server.set_preproc_cache_bytes([0, 8 << 20, 1 << 16][i % 3]);
                    i += 1;
                    std::thread::sleep(Duration::from_micros(200));
                }
            })
        };
        let flapped = serve_all(&server);
        stop.store(true, Ordering::Relaxed);
        flapper.join().unwrap();
        assert_eq!(baseline, flapped, "knob flapping must never change results");
        assert_eq!(server.metrics().completed, 12);
    }

    #[test]
    fn metrics_consistent_with_results() {
        let server = tiny_server(4);
        let receivers: Vec<_> = (0..10)
            .map(|i| server.submit(synthetic_jpeg(&ImageSpec::new(48, 48, 0), i)))
            .collect();
        let results: Vec<LiveResult> = receivers
            .iter()
            .map(|rx| rx.recv().unwrap().unwrap())
            .collect();
        let m = server.metrics();
        assert_eq!(m.completed, 10);
        assert_eq!(m.latency.count, 10);
        assert_eq!(m.breakdown.count(stages::INFERENCE), 10);
        assert!(m.throughput > 0.0);
        assert!(m.mean_batch >= 1.0);
        assert!(m.rejected == 0 && m.expired == 0);
        // Breakdown means must agree with the per-request results.
        let mean_pre: f64 = results.iter().map(|r| r.preproc.as_secs_f64()).sum::<f64>() / 10.0;
        assert!((m.breakdown.mean(stages::PREPROC) - mean_pre).abs() < 1e-9);
        // Shares are well-formed and within the round trip.
        let s = m.summary();
        assert!(s.queue_share() >= 0.0 && s.preproc_share() >= 0.0);
        assert!(s.queue_share() + s.preproc_share() + s.inference_share() <= 1.0 + 1e-9);
        assert!(m.queue_depth_peak >= 1.0);
        // Single-lane servers report exactly one (default) lane.
        assert_eq!(m.lanes.len(), 1);
        assert_eq!(m.lanes[0].completed, 10);
        assert_eq!(m.lanes[0].shed, 0);
        assert!(m.lanes[0].p99_us > 0);
    }

    // ------------------------------------------------ multi-tenant lanes

    use vserve_sched::Priority;

    fn two_model_zoo() -> Vec<ZooModel> {
        vec![
            ZooModel {
                name: "small".to_string(),
                model: Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3),
                input_side: 32,
            },
            ZooModel {
                name: "large".to_string(),
                model: Model::from_graph(models::micro_cnn(48, 7).unwrap(), 5),
                input_side: 48,
            },
        ]
    }

    /// Tentpole: two co-located models serve bit-identical outputs to
    /// their solo runs, and no request is dropped under co-location —
    /// lanes isolate scheduling, never numerics.
    #[test]
    fn zoo_two_lanes_serve_bit_identical_outputs() {
        let jpegs: Vec<Vec<u8>> = (0..6)
            .map(|i| synthetic_jpeg(&ImageSpec::new(64, 56, 0), 200 + i))
            .collect();
        // Solo baselines, one single-model server per zoo entry.
        let solo_small: Vec<Vec<f32>> = {
            let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
            let server = LiveServer::start(model, tiny_opts(4));
            jpegs
                .iter()
                .map(|j| server.infer(j.clone()).unwrap().output)
                .collect()
        };
        let solo_large: Vec<Vec<f32>> = {
            let model = Model::from_graph(models::micro_cnn(48, 7).unwrap(), 5);
            let server = LiveServer::start(
                model,
                LiveOptions {
                    input_side: 48,
                    ..tiny_opts(4)
                },
            );
            jpegs
                .iter()
                .map(|j| server.infer(j.clone()).unwrap().output)
                .collect()
        };
        // Co-located zoo with one tenant per model, interleaved load.
        let server = LiveServer::start_zoo(
            two_model_zoo(),
            LiveOptions {
                tenants: vec![
                    TenantSpec::new("lc", "small")
                        .priority(Priority::High)
                        .weight(4.0),
                    TenantSpec::new("be", "large").priority(Priority::Low),
                ],
                ..tiny_opts(4)
            },
        )
        .unwrap();
        assert_eq!(server.lane_count(), 2);
        assert_eq!(server.lane_of("lc"), Some(0));
        assert_eq!(server.lane_of("large"), Some(1), "model-name fallback");
        let mut rx_small = Vec::new();
        let mut rx_large = Vec::new();
        for j in &jpegs {
            rx_small.push(server.submit_request(to_lane(0, j.clone())));
            rx_large.push(server.submit_request(to_lane(1, j.clone())));
        }
        for (i, rx) in rx_small.into_iter().enumerate() {
            let out = rx.recv().unwrap().unwrap().output;
            assert_eq!(out, solo_small[i], "lane small diverged on payload {i}");
        }
        for (i, rx) in rx_large.into_iter().enumerate() {
            let out = rx.recv().unwrap().unwrap().output;
            assert_eq!(out, solo_large[i], "lane large diverged on payload {i}");
        }
        let m = server.metrics();
        assert_eq!(m.completed, 12, "no request dropped under co-location");
        assert_eq!(m.lanes.len(), 2);
        assert_eq!(m.lanes[0].completed, 6);
        assert_eq!(m.lanes[1].completed, 6);
        assert_eq!(m.lanes[0].name, "lc");
        assert_eq!(m.lanes[1].model, "large");
    }

    /// Tentpole: an exhausted token bucket sheds typed `QuotaExceeded`
    /// before any work is queued; the lane counts the shed.
    #[test]
    fn lane_quota_sheds_typed_quota_exceeded() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                // Effectively zero refill, burst of 2: exactly two
                // admissions, everything after sheds.
                tenants: vec![TenantSpec::new("metered", "default").quota(1e-9, 2)],
                ..tiny_opts(4)
            },
        );
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 77);
        for _ in 0..2 {
            let r = server.infer(jpeg.clone()).unwrap();
            assert_eq!(r.output.len(), 10);
        }
        for _ in 0..3 {
            let err = server.infer(jpeg.clone()).unwrap_err();
            assert!(matches!(err, LiveError::QuotaExceeded), "got {err}");
        }
        let m = server.metrics();
        assert_eq!(m.completed, 2);
        assert_eq!(m.lanes[0].shed, 3);
        // Quota sheds are admission sheds, not queue overloads.
        assert_eq!(m.rejected, 0);
    }

    /// Tentpole: EDF admission is optimistic until the lane has cost
    /// evidence (the first request on a 1 µs SLO still serves), then
    /// sheds typed `SloInfeasible` once the learned unit cost proves the
    /// deadline infeasible.
    #[test]
    fn lane_slo_sheds_typed_slo_infeasible_after_evidence() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                tenants: vec![TenantSpec::new("strict", "default").deadline_us(1)],
                ..tiny_opts(4)
            },
        );
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 78);
        // Cold lane: no evidence, optimistic admission, real serving.
        let r = server.infer(jpeg.clone()).unwrap();
        assert_eq!(r.output.len(), 10);
        // Warm lane: measured unit cost (plus linger) >> 1 µs.
        let err = server.infer(jpeg.clone()).unwrap_err();
        assert!(matches!(err, LiveError::SloInfeasible), "got {err}");
        let m = server.metrics();
        assert_eq!(m.completed, 1);
        assert_eq!(m.lanes[0].shed, 1);
        // A generous SLO admits: same server, fresh lane? No — the SLO
        // is per-lane config; instead check the per-request deadline
        // path still uses DeadlineExceeded, not SloInfeasible.
        drop(server);
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(model, tiny_opts(4));
        let err = server
            .submit_request(Request {
                deadline: Some(Duration::ZERO),
                ..Request::new(jpeg)
            })
            .recv()
            .unwrap()
            .unwrap_err();
        assert!(matches!(err, LiveError::DeadlineExceeded), "got {err}");
    }

    /// Satellite (interference attribution): a best-effort flood
    /// provably inflates the latency-critical tenant's batch-wait
    /// (queue) span, and the per-tenant trace tags attribute it — the
    /// LC tenant's spans are separable from the co-tenant's.
    #[test]
    fn best_effort_flood_inflates_lc_batch_wait_span() {
        // A side-96 model makes a batch forward cost hundreds of
        // microseconds, so the flood provably occupies the single
        // inference worker; at side 32 the BE batches drain faster
        // than scheduling noise and the interference signal vanishes.
        let opts = |tr: Tracer| LiveOptions {
            tenants: vec![
                TenantSpec::new("lc", "default")
                    .priority(Priority::High)
                    .weight(4.0),
                TenantSpec::new("be", "default").priority(Priority::Low),
            ],
            trace: tr,
            max_queue_delay: Duration::from_millis(1),
            input_side: 96,
            ..tiny_opts(4)
        };
        let lc_queue_mean = |server: &LiveServer, tag: u32| -> f64 {
            let snap = server.tracer().snapshot();
            let n = snap.stage_count_tenant(stages::QUEUE, tag).max(1);
            snap.stage_total_tenant(stages::QUEUE, tag) / n as f64
        };
        let jpeg = synthetic_jpeg(&ImageSpec::new(48, 48, 0), 90);
        // Solo: the LC tenant alone on an idle server. Submit the four
        // requests back-to-back exactly as the flooded phase does, so
        // batch formation (full batch at max_batch, no linger) is
        // symmetric and the only variable is the co-tenant flood.
        let model = Model::from_graph(models::micro_cnn(96, 10).unwrap(), 3);
        let server = LiveServer::start(model, opts(Tracer::with_capacity(4096)));
        let solo_rx: Vec<_> = (0..4)
            .map(|_| server.submit_request(to_lane(0, jpeg.clone())))
            .collect();
        for rx in solo_rx {
            let _ = rx.recv().unwrap().unwrap();
        }
        let solo = lc_queue_mean(&server, 1);
        drop(server);
        // Co-located: a BE flood lands first and occupies the shared
        // inference worker; the same LC requests now wait behind
        // co-tenant batches.
        let model = Model::from_graph(models::micro_cnn(96, 10).unwrap(), 3);
        let server = LiveServer::start(model, opts(Tracer::with_capacity(4096)));
        let flood: Vec<_> = (0..24)
            .map(|i| {
                let flood_jpeg = synthetic_jpeg(&ImageSpec::new(48, 48, 0), 300 + i);
                server.submit_request(to_lane(1, flood_jpeg))
            })
            .collect();
        let mut lc_rx = Vec::new();
        for _ in 0..4 {
            lc_rx.push(server.submit_request(to_lane(0, jpeg.clone())));
        }
        for rx in lc_rx {
            let _ = rx.recv().unwrap().unwrap();
        }
        for rx in flood {
            let _ = rx.recv().unwrap().unwrap();
        }
        let flooded = lc_queue_mean(&server, 1);
        // Attribution: both tenants' spans are present and separable.
        let snap = server.tracer().snapshot();
        assert!(snap.stage_count_tenant(stages::QUEUE, 1) >= 4);
        assert!(snap.stage_count_tenant(stages::QUEUE, 2) >= 24);
        assert!(
            snap.spans_for_tenant(1).iter().all(|s| s.tenant == 1),
            "tenant filter must only return the LC tenant's spans"
        );
        assert!(
            flooded > solo,
            "BE flood must inflate LC batch wait: solo {solo:.6}s vs flooded {flooded:.6}s"
        );
        drop(server);
    }

    /// Lane-safety: interleaved load across two active lanes with
    /// distinct priorities drops nothing, and per-lane knob setters
    /// retune one lane without touching the other.
    #[test]
    fn per_lane_knobs_and_no_drop_across_active_lanes() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                tenants: vec![
                    TenantSpec::new("a", "default").weight(3.0),
                    TenantSpec::new("b", "default"),
                ],
                ..tiny_opts(4)
            },
        );
        server.set_lane_max_batch(0, 2);
        server.set_lane_batch_linger(1, Duration::from_micros(500));
        let n = 20;
        let receivers: Vec<_> = (0..n)
            .map(|i| {
                server.submit_request(to_lane(
                    i % 2,
                    synthetic_jpeg(&ImageSpec::new(40, 40, 0), 400 + i as u64),
                ))
            })
            .collect();
        for rx in receivers {
            let r = rx.recv().unwrap().unwrap();
            assert_eq!(r.output.len(), 10);
            // Lane 0's retuned cap bounds its batches.
        }
        let m = server.metrics();
        assert_eq!(m.completed, n as u64);
        assert_eq!(m.lanes[0].completed + m.lanes[1].completed, n as u64);
        assert_eq!(m.lanes[0].completed, (n / 2) as u64);
        // Global setter still reaches every lane.
        server.set_max_batch(6);
        assert_eq!(server.knobs().max_batch, 6);
    }

    /// `VSERVE_TENANTS` feeds `LiveOptions::default().tenants`
    /// (serial-safe: the harness runs --test-threads=1).
    #[test]
    fn tenants_env_override_applies_to_default() {
        std::env::set_var(
            vserve_sched::TENANTS_ENV,
            "lc=resnet18,weight=4,prio=high,deadline_ms=50,quota=100:10;be=vit_large",
        );
        let t = LiveOptions::default().tenants;
        assert_eq!(t.len(), 2);
        assert_eq!(t[0].name, "lc");
        assert_eq!(t[0].model, "resnet18");
        assert_eq!(t[0].priority, Priority::High);
        assert_eq!(t[0].deadline_us, Some(50_000));
        assert_eq!(t[1].name, "be");
        std::env::set_var(vserve_sched::TENANTS_ENV, "not=a,valid[spec");
        assert!(LiveOptions::default().tenants.is_empty());
        std::env::remove_var(vserve_sched::TENANTS_ENV);
        assert!(LiveOptions::default().tenants.is_empty());
    }
}
