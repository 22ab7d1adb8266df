//! A real, thread-based mini inference server.
//!
//! Where [`crate::Experiment`] *models* the paper's server with calibrated
//! costs, this module *is* a server: a bounded ingress FIFO feeds real
//! preprocessing workers (JPEG decode via `vserve-codec`, resize +
//! normalize via `vserve-tensor`) that queue tensors on per-tenant lanes;
//! each free inference worker takes a batch from them (bounded queueing
//! delay) and runs it on a real `vserve-dnn` model — to validate the
//! pipeline end-to-end and measure genuine per-stage times on the host.
//! A request's whole way to its batch (admission, the FIFO, coalescing,
//! the lanes, shutdown) is the state behind one lock.
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
//! its non-test paths never `unwrap()` a lock or channel: the queue and
//! metrics locks recover from poisoning (they take the inner value), the
//! cache lock degrades to a cache miss on failure, and every reply/channel
//! send ignores a disconnected peer. A failure anywhere in
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

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use vserve_compute::{Backend, Scratch};
use vserve_dnn::Model;
use vserve_metrics::{
    LatencyStats, LatencySummary, RateMeter, StageBreakdown, TimeWeightedGauge, Welford,
};
use vserve_sched::{edf_feasible, ewma_unit_cost, lane_linger, Scheduler, TenantSpec, TokenBucket};
use vserve_tensor::{ops, Tensor};
use vserve_trace::{TraceHandle, Tracer};

use crate::cache::{
    preproc_spec_fingerprint, CacheKey, PreprocCache, PreprocCacheStats, DEFAULT_PREPROC_CACHE_MB,
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
    /// An inference worker took a batch from the lane scheduler (event on
    /// that worker's track; `batch_id` set, bytes = batch size).
    pub const BATCH: &str = "batch-flush";
    /// Inference worker delivering a batch's replies (span; request_id 0,
    /// bytes = batch size).
    pub const RESPOND: &str = "respond";
}

/// Batch linger of [`LiveOptions::default`].
pub const DEFAULT_BATCH_LINGER: Duration = Duration::from_millis(2);

/// Configuration for a [`LiveServer`].
#[derive(Debug, Clone)]
pub struct LiveOptions {
    /// Preprocessing worker threads.
    pub preproc_workers: usize,
    /// Inference worker threads.
    pub inference_workers: usize,
    /// Most requests an inference worker takes from one lane as one
    /// batch. Set once, at start, for every lane.
    pub max_batch: usize,
    /// Longest a lane's oldest queued request waits for its batch to fill
    /// (the batch *linger*). A lane waits only while more of its requests
    /// are on their way (admitted, not yet preprocessed); with none, its
    /// partial batch goes to the next free inference worker at once.
    /// Defaults to [`DEFAULT_BATCH_LINGER`].
    pub max_queue_delay: Duration,
    /// Side of the square model input.
    pub input_side: usize,
    /// Ingress queue capacity; submissions beyond it are rejected with
    /// [`LiveError::Overloaded`] instead of queueing unboundedly.
    pub queue_cap: usize,
    /// Optional per-request deadline measured from submission; requests
    /// still unserved past it fail with [`LiveError::DeadlineExceeded`].
    pub deadline: Option<Duration>,
    /// Threads in the shared compute [`Backend`] used by the
    /// resize/normalize preprocessing and the model's kernels (a JPEG
    /// decode runs on its worker's thread). `0` uses the host's
    /// available parallelism (the paper's testbed pins stages to cores of
    /// an i9-13900K the same way).
    /// Results are bit-identical for any value.
    pub backend_threads: usize,
    /// Use the DCT-domain scaled decode + fused resize/normalize fast
    /// path ([`vserve_codec::preprocess_jpeg_with`]) instead of the
    /// unfused full-resolution chain. The fast path approximates the
    /// baseline numerics (not bit-identical to it) but is itself
    /// deterministic across thread counts and cache settings.
    pub fast_preproc: bool,
    /// Capacity of the content-addressed preprocessed-tensor cache in
    /// MiB. `Some(0)` disables it; `None` means
    /// [`DEFAULT_PREPROC_CACHE_MB`](crate::cache::DEFAULT_PREPROC_CACHE_MB).
    pub preproc_cache_mb: Option<usize>,
    /// Coalesce concurrent duplicate requests: while one worker
    /// preprocesses a payload, other requests with identical bytes park
    /// and share its result instead of decoding again.
    pub coalesce: bool,
    /// Request-level tracer. The default is [`Tracer::disabled`], which
    /// costs one branch per record site. Pass [`Tracer::with_capacity`]
    /// to trace and read the timeline back through
    /// [`LiveServer::tracer`].
    pub trace: Tracer,
    /// Multi-tenant lane specs (`{model, weight, priority, deadline,
    /// quota}` per tenant). Empty — the default — runs the classic
    /// single-lane server; otherwise one [`ModelLane`-backed
    /// lane](vserve_sched) is created per tenant, scheduled by weighted
    /// deficit round-robin with strict priority classes, with per-tenant
    /// token-bucket quotas and EDF-style admission shedding typed
    /// [`LiveError::QuotaExceeded`] / [`LiveError::SloInfeasible`]
    /// before work is queued. [`LiveServer::start_zoo`] rejects
    /// duplicate or empty names, and weights or quota rates that are not
    /// positive finite numbers.
    pub tenants: Vec<TenantSpec>,
}

impl Default for LiveOptions {
    fn default() -> Self {
        LiveOptions {
            preproc_workers: 2,
            inference_workers: 1,
            max_batch: 8,
            max_queue_delay: DEFAULT_BATCH_LINGER,
            input_side: 224,
            queue_cap: 256,
            deadline: None,
            backend_threads: 0,
            fast_preproc: true,
            preproc_cache_mb: None,
            coalesce: true,
            trace: Tracer::disabled(),
            tenants: Vec::new(),
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
    /// Time spent waiting: in the ingress queue before preprocessing,
    /// then on its lane until an inference worker took its batch.
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
    /// within its tenant deadline (queued depth × learned per-item cost,
    /// plus the linger when requests are ahead of it, exceeds the SLO), so
    /// it was shed before queueing.
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
    /// Mean size of the batches the inference workers took.
    pub mean_batch: f64,
    /// Time-averaged count of requests admitted and not yet taken in a
    /// batch (ingress queue, preprocessing and lane queues together).
    pub queue_depth_mean: f64,
    /// Peak of the same count.
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

/// Completion-side metrics; the queue gauge and shed counts are in [`QueueState`].
struct MetricsInner {
    latency: LatencyStats,
    breakdown: StageBreakdown,
    meter: RateMeter,
    batch_sizes: Welford,
    forward_calls: u64,
    inference_wall_s: f64,
}

/// The receiving end of [`Reply::channel`], as returned by
/// [`LiveServer::submit`]: `recv()` blocks for the one reply.
pub type ReplyReceiver = mpsc::Receiver<Result<LiveResult, LiveError>>;

/// Where a live request's one reply goes: a callback that receives the
/// value.
///
/// [`send`](Self::send) consumes the reply, and dropping it unsent (a
/// worker shut down with the request still queued) delivers
/// `Err(`[`LiveError::Disconnected`]`)`, so every request is answered
/// exactly once. The callback runs on whichever thread answers: the
/// submitter's for a shed, a worker's otherwise, never under a server
/// lock. Blocking callers take [`Reply::channel`]; the net front-end's
/// callback queues the value for its event loop and wakes it.
pub struct Reply(Option<Box<dyn FnOnce(Result<LiveResult, LiveError>) + Send>>);

impl Reply {
    /// A reply that hands its value to `f`.
    pub fn new(f: impl FnOnce(Result<LiveResult, LiveError>) + Send + 'static) -> Reply {
        Reply(Some(Box::new(f)))
    }

    /// A reply that sends its value down a one-slot channel, and that
    /// channel's receiving end.
    pub fn channel() -> (Reply, ReplyReceiver) {
        let (tx, rx) = mpsc::sync_channel(1);
        (
            Reply::new(move |r| {
                let _ = tx.send(r);
            }),
            rx,
        )
    }

    /// Delivers the reply.
    pub fn send(mut self, msg: Result<LiveResult, LiveError>) {
        if let Some(f) = self.0.take() {
            f(msg);
        }
    }
}

impl Drop for Reply {
    fn drop(&mut self) {
        if let Some(f) = self.0.take() {
            f(Err(LiveError::Disconnected));
        }
    }
}

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
    /// Where the one reply goes. Every outcome, sheds and shutdown
    /// included, arrives here exactly once (see [`Reply`]).
    pub reply: Reply,
}

impl Request<'_> {
    /// A request for lane 0 with no deadline override and an
    /// auto-assigned trace id; set the fields that differ.
    pub fn new(jpeg: Vec<u8>, reply: Reply) -> Self {
        Request {
            target: Target::Lane(0),
            jpeg: jpeg.into(),
            deadline: None,
            trace_id: None,
            reply,
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
    reply: Reply,
}

/// A preprocessed request on its way to a batch, without its encoded
/// payload: [`Ready::new`] hands that back to be freed after the push, so
/// `queue` (ingress wait plus lane-queue wait) is waiting only.
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
    reply: Reply,
}

impl Ready {
    /// `job`'s tensor, preprocessed from `start` to `done`. A coalesced
    /// waiter passes `start == done`: it waited for the leader's decode
    /// (queueing) and preprocessed nothing itself.
    ///
    /// The job's payload comes back beside the `Ready`, and the caller
    /// drops it only after [`BatchQueue::push`]: freeing a large JPEG can
    /// take a millisecond, and between `done` and the push it would be
    /// charged to `queue` and hold back the batch. After the push it
    /// overlaps the forward, outside every timed stage.
    fn new(job: Job, tensor: Arc<Tensor>, start: Instant, done: Instant) -> (Ready, Payload) {
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
        (ready, job.jpeg)
    }
}

/// The fixed half of one tenant lane: its configuration and the figures
/// the inference workers keep ([`LaneState`] is the rest). Admission runs
/// on the submitter's thread, under the queue lock with the enqueue, so
/// typed sheds ([`LiveError::QuotaExceeded`] /
/// [`LiveError::SloInfeasible`]) happen *before* any work is queued. The
/// rules are `vserve-sched`'s ([`TokenBucket`], [`edf_feasible`],
/// [`ewma_unit_cost`]).
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
    /// EWMA per-item inference cost in µs (f64 bits; 0.0 = no evidence
    /// yet, in which case EDF admission stays optimistic).
    unit_cost_bits: AtomicU64,
    completed: AtomicU64,
    /// Batch assembly: the most requests one batch takes, and how long
    /// the oldest may wait for it to fill ([`LiveOptions::max_batch`],
    /// [`LiveOptions::max_queue_delay`]).
    max_batch: usize,
    linger_us: u64,
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

    /// Admission against this lane's state `st` at tick `now_us`. Order:
    /// quota first (cheapest, and a tenant over quota should not consume
    /// an SLO estimate), then EDF feasibility against the *tenant* SLO.
    /// Per-request deadlines are a separate mechanism (they shed as
    /// `DeadlineExceeded` downstream) and never trigger `SloInfeasible`.
    fn admit(&self, st: &mut LaneState, now_us: u64) -> Result<(), LiveError> {
        if let Some(bucket) = &mut st.bucket {
            if !bucket.try_take(now_us) {
                st.shed += 1;
                return Err(LiveError::QuotaExceeded);
            }
        }
        if let Some(deadline_us) = self.spec.deadline_us {
            let depth = st.admitted;
            if !edf_feasible(depth, self.unit_cost_us(), self.linger_us, deadline_us) {
                st.shed += 1;
                return Err(LiveError::SloInfeasible);
            }
        }
        Ok(())
    }

    fn p99_us(&self) -> u64 {
        let p99 = match self.lat.lock() {
            Ok(l) => l.summary().p99,
            Err(e) => e.into_inner().summary().p99,
        };
        (p99 * 1e6) as u64
    }
}

/// Resolves a tenant name — or, failing that, a model name — to its lane
/// index (first match wins).
fn lane_of(lanes: &[LaneRt], name: &str) -> Option<usize> {
    lanes
        .iter()
        .position(|l| l.spec.name == name)
        .or_else(|| lanes.iter().position(|l| l.spec.model == name))
}

/// Rejects a tenant list no server can run as written: a duplicate name
/// leaves the second lane unreachable through [`lane_of`], an empty name
/// is unroutable, and a weight or quota rate that is not a positive
/// finite number starves the lane (the DRR picker runs its safety loop,
/// under the queue lock, on every batch).
fn validate_tenants(tenants: &[TenantSpec]) -> Result<(), String> {
    let positive = |x: f64| x > 0.0 && x.is_finite();
    for (i, t) in tenants.iter().enumerate() {
        if t.name.is_empty() {
            return Err(format!("tenant {i} has an empty name"));
        }
        if tenants[..i].iter().any(|p| p.name == t.name) {
            return Err(format!("duplicate tenant name '{}'", t.name));
        }
        if !positive(t.weight) {
            return Err(format!("tenant '{}': weight must be > 0", t.name));
        }
        if t.quota.is_some_and(|q| !positive(q.rate_per_s)) {
            return Err(format!("tenant '{}': quota rate must be > 0", t.name));
        }
    }
    Ok(())
}

/// The submit side of a running server — everything [`LiveServer`] and
/// each [`PipelineHandle`] need to put a request on a lane. It keeps no
/// worker alive: after shutdown a submission answers `Disconnected`.
#[derive(Clone)]
struct Ingress {
    /// The lane queue, with the lanes and metrics it shares.
    queue: Arc<BatchQueue>,
    /// Server-wide default deadline ([`LiveOptions::deadline`]).
    deadline: Option<Duration>,
    /// Auto-assigned trace ids (a counter from 1): one id space for
    /// in-process submissions and cascade sub-requests.
    next_req: Arc<AtomicU64>,
    /// Records ingress events.
    trace: TraceHandle,
}

impl Ingress {
    /// The one path into the server ([`BatchQueue::enqueue`]). With
    /// `block` false a full ingress FIFO sheds [`LiveError::Overloaded`];
    /// with `block` true the caller waits for room (reserved capacity, see
    /// [`PipelineHandle::submit_reserved`]).
    fn submit(
        &self,
        lane: usize,
        jpeg: Payload,
        deadline: Option<Duration>,
        trace_id: Option<u64>,
        reply: Reply,
        block: bool,
    ) {
        let now = Instant::now();
        let id = trace_id.unwrap_or_else(|| self.next_req.fetch_add(1, Ordering::Relaxed));
        if lane >= self.queue.lanes.len() {
            return reply.send(Err(LiveError::Disconnected));
        }
        let nbytes = jpeg.len() as u64;
        let job = Job {
            id,
            lane: lane as u32,
            jpeg,
            submitted: now,
            deadline: deadline.or(self.deadline).map(|d| now + d),
            reply,
        };
        match self.queue.enqueue(job, block) {
            Ok(()) => {
                let tag = LaneRt::tag(lane);
                self.trace
                    .event_tagged(tag, id, trace_events::INGRESS, now, nbytes);
            }
            Err((job, e)) => job.reply.send(Err(e)),
        }
    }
}

/// Everything a preprocessing worker needs; each worker holds a clone.
#[derive(Clone)]
struct PreprocEnv {
    queue: Arc<BatchQueue>,
    backend: Backend,
    cache: Arc<Mutex<PreprocCache>>,
    /// The cache has a non-zero budget: workers skip hashing otherwise.
    cache_on: bool,
    fast: bool,
    coalesce: bool,
}

/// Body of a preprocessing worker: pops jobs from the ingress FIFO until
/// the server is closed and the FIFO drained.
fn preproc_worker_loop(env: PreprocEnv, tr: TraceHandle) {
    // Each worker owns a scratch arena: after the first frame the decode
    // path stops allocating its temporaries.
    let mut scratch = Scratch::new();
    while let Some(job) = env.queue.pop() {
        process_one(&env, &tr, &mut scratch, job);
    }
}

/// Decodes (or cache-serves) one job and queues the `Ready` work on its
/// lane, waiting while the lane queues are full.
fn process_one(env: &PreprocEnv, tr: &TraceHandle, scratch: &mut Scratch, mut job: Job) {
    let queue = &env.queue;
    let start = Instant::now();
    let nbytes = job.jpeg.len() as u64;
    let lane = &queue.lanes[job.lane as usize];
    let side = lane.side;
    let tag = LaneRt::tag(job.lane as usize);
    if job.deadline.is_some_and(|d| start >= d) {
        queue.withdraw(job.lane as usize, None, true);
        job.reply.send(Err(LiveError::DeadlineExceeded));
        return;
    }
    let key = (env.cache_on || env.coalesce)
        .then(|| CacheKey::for_payload_spec(&job.jpeg, side, lane.spec_fp));
    // The payload this worker leads the decode of, duplicates parked on it.
    let mut led = None;
    if let Some(k) = key {
        if let Some(tensor) = env.cache.lock().ok().and_then(|mut c| c.get(&k)) {
            // Cache hit: the measured preprocessing time is the content
            // hash of the whole payload plus the lookup — microseconds
            // for a thumbnail, ~0.1 ms for a 1.9 MB image, never zero.
            let done = Instant::now();
            tr.span_tagged(tag, job.id, stages::QUEUE, job.submitted, start, 0, nbytes);
            tr.span_tagged(tag, job.id, stages::PREPROC, start, done, 0, nbytes);
            tr.event_tagged(tag, job.id, trace_events::CACHE_HIT, done, nbytes);
            let (ready, jpeg) = Ready::new(job, tensor, start, done);
            queue.push(ready, None);
            drop(jpeg);
            return;
        }
        if env.coalesce {
            let wid = job.id;
            let Some(leader) = queue.attach_or_lead(k, job) else {
                if let Ok(mut c) = env.cache.lock() {
                    c.note_coalesced();
                }
                tr.event_tagged(tag, wid, trace_events::COALESCE, start, nbytes);
                return;
            };
            (job, led) = (leader, Some(k));
        }
        if env.cache_on {
            tr.event_tagged(tag, job.id, trace_events::CACHE_MISS, start, nbytes);
        }
    }
    let result = if env.fast {
        vserve_codec::preprocess_jpeg_with(&env.backend, scratch, &job.jpeg, side)
    } else {
        vserve_codec::decode_with(scratch, &job.jpeg)
            .map(|img| ops::standard_preprocess_with(&env.backend, &img, side))
    };
    let done = Instant::now();
    // Publish to the cache *before* the push detaches the waiter list so
    // a duplicate arriving in between finds one or the other; then serve
    // the leader and every waiter.
    let tensor = result.map(Arc::new);
    if let (Some(k), Ok(t)) = (key, &tensor) {
        if env.cache_on {
            if let Ok(mut c) = env.cache.lock() {
                c.insert(k, Arc::clone(t));
            }
        }
    }
    match tensor {
        Ok(tensor) => {
            tr.span_tagged(tag, job.id, stages::QUEUE, job.submitted, start, 0, nbytes);
            tr.span_tagged(tag, job.id, stages::PREPROC, start, done, 0, nbytes);
            let (ready, jpeg) = Ready::new(job, Arc::clone(&tensor), start, done);
            let waiters = queue.push(ready, led);
            // Every waiter's queue runs from the same `done`: the payloads
            // are freed once the last of them is pushed.
            let mut spent = Vec::with_capacity(waiters.len());
            for w in waiters {
                let wtag = LaneRt::tag(w.lane as usize);
                if w.deadline.is_some_and(|d| done >= d) {
                    queue.withdraw(w.lane as usize, None, true);
                    spent.push(w.jpeg);
                    w.reply.send(Err(LiveError::DeadlineExceeded));
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
                let (ready, wjpeg) = Ready::new(w, Arc::clone(&tensor), done, done);
                queue.push(ready, None);
                spent.push(wjpeg);
            }
            drop((jpeg, spent));
        }
        Err(e) => {
            let waiters = queue.withdraw(job.lane as usize, led, false);
            job.reply.send(Err(LiveError::Decode(e)));
            for w in waiters {
                w.reply.send(Err(LiveError::Decode(e)));
            }
        }
    }
}

/// Who waits on each of [`BatchQueue::cvs`].
#[derive(Clone, Copy)]
enum Cv {
    /// Idle preprocessing workers, for a job in the ingress FIFO.
    Job,
    /// Free inference workers, for a batch to become ready.
    Batch,
    /// Pushers on full lanes and reserved submitters on a full FIFO.
    Room,
}

/// A live request's whole way to its batch behind one lock: the bounded
/// ingress FIFO, the coalescing table, each lane's admission state, and
/// the lane queues (a batching-only [`vserve_sched::Scheduler`]) that a
/// free inference worker [`take`](Self::take)s from, so the pick is made
/// when the batch can run, as on a simulated GPU. Each step is one
/// critical section, so every count is exact. Shutdown is one `closed`
/// flag: submissions then answer `Disconnected`, the workers drain the
/// FIFO and then the lanes until no request is admitted, and exit.
struct BatchQueue {
    state: Mutex<QueueState>,
    /// Indexed by [`Cv`].
    cvs: [Condvar; 3],
    /// Most requests in the FIFO, and most queued on the lanes
    /// ([`LiveOptions::queue_cap`]): a full FIFO sheds `Overloaded`, full
    /// lanes block preprocessing so the FIFO fills.
    cap: usize,
    lanes: Vec<LaneRt>,
    /// Server start: times are seconds since it, as in the simulator.
    epoch: Instant,
    metrics: Mutex<MetricsInner>,
}

struct QueueState {
    /// Admitted jobs waiting for a preprocessing worker, oldest first.
    ingress: VecDeque<Job>,
    /// Coalescing: each payload being preprocessed, and the duplicates
    /// parked on it until its push.
    inflight: HashMap<CacheKey, Vec<Job>>,
    lanes: Vec<LaneState>,
    sched: Scheduler<Ready>,
    /// Requests admitted and not yet taken or answered, over time.
    depth: TimeWeightedGauge,
    /// Requests shed `Overloaded` and `DeadlineExceeded`.
    rejected: u64,
    expired: u64,
    closed: bool,
    /// Batches taken so far; the trace's `batch_id` (from 1).
    seq: u64,
    /// Threads blocked on each condvar (a wake with none is skipped).
    waiting: [usize; 3],
}

/// One lane's part of [`QueueState`].
struct LaneState {
    /// Requests admitted and not yet taken in a batch or answered.
    admitted: usize,
    /// The push tick of each queued request, oldest first (the scheduler
    /// keeps them too, but cannot be asked for them).
    pushed: VecDeque<u64>,
    bucket: Option<TokenBucket>,
    /// Admission sheds (quota + SLO).
    shed: u64,
}

type QueueGuard<'a> = MutexGuard<'a, QueueState>;

impl BatchQueue {
    fn lock(&self) -> QueueGuard<'_> {
        // A worker panicking mid-update must not take the server down.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn metrics(&self) -> MutexGuard<'_, MetricsInner> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn secs(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.epoch).as_secs_f64()
    }

    /// The `vserve-sched` tick: microseconds since start.
    fn micros(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Blocks on `cv` for at most `timeout` (`Duration::MAX`: no limit).
    fn wait<'a>(&self, mut st: QueueGuard<'a>, cv: Cv, timeout: Duration) -> QueueGuard<'a> {
        st.waiting[cv as usize] += 1;
        let woken = self.cvs[cv as usize].wait_timeout(st, timeout);
        let (mut st, _) = woken.unwrap_or_else(|e| e.into_inner());
        st.waiting[cv as usize] -= 1;
        st
    }

    /// Unlocks, then wakes the threads blocked on each of `cvs`: one
    /// preprocessing worker per new job, every waiter otherwise.
    fn wake(&self, st: QueueGuard<'_>, cvs: &[Cv]) {
        let waiting = st.waiting;
        drop(st);
        for &cv in cvs.iter().filter(|&&cv| waiting[cv as usize] > 0) {
            match cv {
                Cv::Job => self.cvs[cv as usize].notify_one(),
                Cv::Batch | Cv::Room => self.cvs[cv as usize].notify_all(),
            }
        }
    }

    /// Admission and the ingress FIFO in one critical section. The job
    /// comes back with its error when the server is closed (`Disconnected`),
    /// the lane sheds it ([`LaneRt::admit`]), or the FIFO is full
    /// (`Overloaded`; with `block`, it waits for a slot, or for close).
    fn enqueue(&self, job: Job, block: bool) -> Result<(), (Job, LiveError)> {
        let lane = job.lane as usize;
        let mut st = self.lock();
        if !st.closed {
            let now_us = self.micros(job.submitted);
            if let Err(e) = self.lanes[lane].admit(&mut st.lanes[lane], now_us) {
                return Err((job, e));
            }
        }
        while block && st.ingress.len() >= self.cap && !st.closed {
            st = self.wait(st, Cv::Room, Duration::MAX);
        }
        if st.closed {
            return Err((job, LiveError::Disconnected));
        }
        if st.ingress.len() >= self.cap {
            st.rejected += 1;
            return Err((job, LiveError::Overloaded));
        }
        st.lanes[lane].admitted += 1;
        st.depth.add(self.secs(job.submitted), 1.0);
        st.ingress.push_back(job);
        self.wake(st, &[Cv::Job]);
        Ok(())
    }

    /// The oldest job in the ingress FIFO, for a preprocessing worker;
    /// `None` once the server is closed and the FIFO drained.
    fn pop(&self) -> Option<Job> {
        let mut st = self.lock();
        while st.ingress.is_empty() && !st.closed {
            st = self.wait(st, Cv::Job, Duration::MAX);
        }
        let job = st.ingress.pop_front();
        self.wake(st, &[Cv::Room]);
        job
    }

    /// Coalescing: parks `job` on the worker already preprocessing the
    /// payload `key` (`None`), or hands it back to a caller who now leads
    /// that payload's decode.
    fn attach_or_lead(&self, key: CacheKey, job: Job) -> Option<Job> {
        let mut st = self.lock();
        if let Some(waiters) = st.inflight.get_mut(&key) {
            waiters.push(job);
            return None;
        }
        st.inflight.insert(key, Vec::new());
        Some(job)
    }

    /// Queues a preprocessed request on its lane, waiting for room while
    /// `cap` requests are queued, and hands back the duplicates parked on
    /// the payload it `led`.
    fn push(&self, r: Ready, led: Option<CacheKey>) -> Vec<Job> {
        let mut st = self.lock();
        while st.sched.total_depth() >= self.cap {
            st = self.wait(st, Cv::Room, Duration::MAX);
        }
        let waiters = led.and_then(|k| st.inflight.remove(&k));
        let (lane, now) = (r.lane as usize, self.micros(Instant::now()));
        st.lanes[lane].pushed.push_back(now);
        st.sched.submit(lane, r, now);
        self.wake(st, &[Cv::Batch]);
        waiters.unwrap_or_default()
    }

    /// A request of `lane` that was on its way leaves without a push (its
    /// decode or deadline failed), with the duplicates parked on the
    /// payload it `led`, returned to be answered too. A partial batch may
    /// have lingered for them, so the inference workers re-check.
    fn withdraw(&self, lane: usize, led: Option<CacheKey>, expired: bool) -> Vec<Job> {
        let now = Instant::now();
        let mut st = self.lock();
        let waiters = led.and_then(|k| st.inflight.remove(&k)).unwrap_or_default();
        st.lanes[lane].admitted -= 1;
        for w in &waiters {
            st.lanes[w.lane as usize].admitted -= 1;
        }
        let n = 1 + waiters.len();
        st.depth.add(self.secs(now), -(n as f64));
        st.expired += if expired { n as u64 } else { 0 };
        self.wake(st, &[Cv::Batch]);
        waiters
    }

    /// The next batch for the calling inference worker, as `(seq, lane,
    /// requests)`; `None` once the server is closed and no request is
    /// admitted. Waits until some lane is ready: its batch is full, its
    /// head has lingered out, or nothing else of that lane is on its way
    /// ([`lane_linger`]: admitted, not yet pushed), so waiting could not
    /// grow it. Every lane is ready once the queue is full or closed. A
    /// batch holds only what came within one configured linger of its
    /// head; later arrivals wait for the next one rather than grow it
    /// while the worker was busy: a bigger batch costs memory, and speed
    /// where the forward pass does not amortise it. Requests past their
    /// deadline are answered here; the whole batch leaves its lane's
    /// admitted count and the queue gauge, and the `batch-flush` event
    /// goes on the caller's track `tr`.
    fn take(&self, tr: &TraceHandle) -> Option<(u64, usize, Vec<Ready>)> {
        let mut st = self.lock();
        loop {
            let QueueState { lanes, sched, .. } = &mut *st;
            for (i, (l, ls)) in self.lanes.iter().zip(lanes.iter()).enumerate() {
                let (mb, linger, q) = (l.max_batch, l.linger_us, &ls.pushed);
                let end = q.front().map(|&head| head.saturating_add(linger));
                let window = end.map_or(0, |e| q.iter().take_while(|&&t| t <= e).count());
                let cap = if window < q.len() { window.min(mb) } else { mb };
                let on_the_way = ls.admitted - q.len();
                sched
                    .lane_mut(i)
                    .set_assembly(cap, lane_linger(linger, on_the_way));
            }
            let now = Instant::now();
            let ticks = self.micros(now);
            let full = st.closed || st.sched.total_depth() >= self.cap;
            let Some(batch) = st.sched.next_batch(if full { u64::MAX } else { ticks }) else {
                if st.closed && st.lanes.iter().all(|l| l.admitted == 0) {
                    return None;
                }
                let wait = st.sched.next_flush_at().map(|at| at.saturating_sub(ticks));
                let wait = wait.map_or(Duration::MAX, Duration::from_micros);
                st = self.wait(st, Cv::Batch, wait);
                continue;
            };
            let n = batch.items.len();
            let lane = &mut st.lanes[batch.lane];
            lane.pushed.drain(..n);
            lane.admitted -= n;
            // Counted under the lock and split after it: enqueues wait less.
            let late = |r: &Ready| r.deadline.is_some_and(|d| now >= d);
            let n_late = batch.items.iter().filter(|(r, _)| late(r)).count();
            st.depth.add(self.secs(now), -(n as f64));
            st.expired += n_late as u64;
            st.seq += u64::from(n_late < n);
            let seq = st.seq;
            // Closing, the other inference workers wait for the last one.
            let woken = 1 + usize::from(st.closed);
            self.wake(st, &[Cv::Room, Cv::Batch][..woken]);
            let items = batch.items.into_iter().map(|(r, _)| r);
            let (expired, live): (Vec<_>, Vec<_>) = items.partition(late);
            for r in expired {
                r.reply.send(Err(LiveError::DeadlineExceeded));
            }
            if !live.is_empty() {
                let (tag, tn, bytes) = (LaneRt::tag(batch.lane), tr.secs(now), live.len() as u64);
                tr.span_at_tagged(tag, 0, trace_events::BATCH, tn, tn, seq, bytes);
                return Some((seq, batch.lane, live));
            }
            st = self.lock();
        }
    }

    /// Shuts the request path: see the type's docs.
    fn close(&self) {
        self.lock().closed = true;
        for cv in &self.cvs {
            cv.notify_all();
        }
    }
}

/// Body of one inference worker: takes each lane batch when it is free,
/// executes it as a single batched forward call on the lane's model,
/// attributes per-item cost, feeds the lane's EDF cost estimate, and
/// answers every request.
fn inference_worker_loop(queue: Arc<BatchQueue>, tr: TraceHandle) {
    let lanes = &queue.lanes;
    while let Some((batch_seq, lane_idx, batch)) = queue.take(&tr) {
        let lane = &lanes[lane_idx];
        let tag = LaneRt::tag(lane_idx);
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
        // Races between inference workers lose updates, never corrupt the
        // estimate EDF admission reads.
        let unit_us = ewma_unit_cost(lane.unit_cost_us(), wall.as_secs_f64() * 1e6 / n as f64);
        lane.unit_cost_bits
            .store(unit_us.to_bits(), Ordering::Relaxed);
        // Trace mirror of the same attribution: the batch wall is sliced
        // into n contiguous per-item spans so the inference track shows
        // batch composition and span sums equal the breakdown's charges.
        let t0 = tr.secs(start);
        let p = per_item.as_secs_f64();
        let mut replies = Vec::with_capacity(n);
        {
            let mut m = queue.metrics();
            m.forward_calls += 1;
            m.batch_sizes.push(n as f64);
            m.inference_wall_s += wall.as_secs_f64();
            match result {
                Ok(outputs) => {
                    let t = queue.secs(finished);
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
            reply.send(msg);
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
    /// The submit side; its queue holds the lanes (index = stable lane
    /// id) and the metrics.
    ingress: Ingress,
    /// Preprocessing, then inference workers; they exit once the queue
    /// is closed and drained.
    workers: Vec<std::thread::JoinHandle<()>>,
    backend: Backend,
    cache: Arc<Mutex<PreprocCache>>,
    tracer: Tracer,
    /// Registered multi-stage pipeline executors by name
    /// ([`LiveServer::register_pipeline`]). Cleared *first* on drop: an
    /// executor relies on the running workers to retire its in-flight
    /// sub-requests.
    pipelines: Mutex<HashMap<String, Arc<dyn PipelineDriver>>>,
}

impl std::fmt::Debug for LiveServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LiveServer")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl LiveServer {
    /// Starts preprocessing and inference threads around `model`.
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
    ///
    /// # Panics
    ///
    /// Panics when [`start_zoo`](Self::start_zoo) rejects
    /// [`LiveOptions::tenants`]: a duplicate or empty name, or a weight or
    /// quota rate that is not a positive finite number.
    pub fn start(model: Model, opts: LiveOptions) -> Self {
        let zoo = vec![ZooModel {
            name: "default".to_string(),
            model,
            input_side: opts.input_side,
        }];
        Self::start_zoo(zoo, opts).unwrap_or_else(|e| panic!("LiveServer::start: {e}"))
    }

    /// Starts a multi-model, multi-tenant server: one lane per entry of
    /// [`LiveOptions::tenants`] (or one default lane per zoo model when
    /// `tenants` is empty), all lanes sharing the compute backend, the
    /// preproc pool, and the inference workers.
    ///
    /// # Errors
    ///
    /// Returns an error when `zoo` is empty, when two tenants share a
    /// name or one has an empty name, when a weight or quota rate is not
    /// a positive finite number, or when a tenant references a model
    /// name not in a multi-model zoo (single-model zoos resolve every
    /// tenant to their one model).
    pub fn start_zoo(zoo: Vec<ZooModel>, opts: LiveOptions) -> Result<Self, String> {
        if zoo.is_empty() {
            return Err("start_zoo requires at least one model".to_string());
        }
        validate_tenants(&opts.tenants)?;
        let backend = Backend::new(match opts.backend_threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        });
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
        let mut states = Vec::with_capacity(tenants.len());
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
            states.push(LaneState {
                admitted: 0,
                pushed: VecDeque::new(),
                bucket: spec.quota.map(TokenBucket::from_spec),
                shed: 0,
            });
            lanes.push(LaneRt {
                model: Arc::clone(&models[model_idx]),
                side: sides[model_idx],
                spec_fp,
                unit_cost_bits: AtomicU64::new(0),
                completed: AtomicU64::new(0),
                max_batch: opts.max_batch.max(1),
                linger_us,
                lat: Mutex::new(LatencyStats::new()),
                spec,
            });
        }
        let mut meter = RateMeter::new();
        meter.open(0.0);
        // Assembly is set from each lane's fields on every take.
        let sched = Scheduler::batching(lanes.iter().map(|l| l.spec.clone()), 1, 0);
        let queue = Arc::new(BatchQueue {
            state: Mutex::new(QueueState {
                ingress: VecDeque::new(),
                inflight: HashMap::new(),
                lanes: states,
                sched,
                depth: TimeWeightedGauge::new(0.0, 0.0),
                rejected: 0,
                expired: 0,
                closed: false,
                seq: 0,
                waiting: [0; 3],
            }),
            cvs: Default::default(),
            cap: opts.queue_cap.max(1),
            lanes,
            epoch: Instant::now(),
            metrics: Mutex::new(MetricsInner {
                latency: LatencyStats::new(),
                breakdown: StageBreakdown::new(),
                meter,
                batch_sizes: Welford::new(),
                forward_calls: 0,
                inference_wall_s: 0.0,
            }),
        });

        // Preprocessing workers: decode → resize → normalize, with a
        // content-addressed result cache and in-flight coalescing: the
        // queue's coalescing table parks duplicates on the worker
        // currently preprocessing their payload, and that worker forwards
        // one `Ready` per parked job, so N concurrent duplicates cost
        // exactly one decode.
        let cache_bytes = opts.preproc_cache_mb.unwrap_or(DEFAULT_PREPROC_CACHE_MB) * 1024 * 1024;
        let cache = Arc::new(Mutex::new(PreprocCache::new(cache_bytes)));
        let tracer = opts.trace.clone();
        // Registration order fixes trace thread ids: ingress, preproc
        // workers, inference workers (which also record `batch-flush`).
        let ingress_trace = tracer.register("ingress");
        let env = PreprocEnv {
            queue: Arc::clone(&queue),
            backend: backend.clone(),
            cache: Arc::clone(&cache),
            cache_on: cache_bytes > 0,
            fast: opts.fast_preproc,
            coalesce: opts.coalesce,
        };
        let mut workers: Vec<_> = (0..opts.preproc_workers.max(1))
            .map(|w| {
                let env = env.clone();
                let tr = tracer.register(&format!("preproc-{w}"));
                std::thread::spawn(move || preproc_worker_loop(env, tr))
            })
            .collect();

        // Inference workers: each takes the next ready lane batch when it
        // is free and runs it as one batched forward call on the lane's
        // model.
        workers.extend((0..opts.inference_workers.max(1)).map(|w| {
            let queue = Arc::clone(&queue);
            let tr = tracer.register(&format!("inference-{w}"));
            std::thread::spawn(move || inference_worker_loop(queue, tr))
        }));

        Ok(LiveServer {
            ingress: Ingress {
                queue,
                deadline: opts.deadline,
                next_req: Arc::new(AtomicU64::new(1)),
                trace: ingress_trace,
            },
            workers,
            backend,
            cache,
            tracer,
            pipelines: Mutex::new(HashMap::new()),
        })
    }

    /// The server's tracer: snapshot it for a span timeline
    /// ([`Tracer::snapshot`]) or export with
    /// [`vserve_trace::chrome::chrome_trace_json`]. Disabled unless
    /// [`LiveOptions::trace`] was enabled.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Submits a JPEG to lane 0 asynchronously; the returned channel
    /// yields the result. Shorthand for [`submit_request`](Self::submit_request)
    /// with a [`Reply::channel`].
    ///
    /// When the bounded ingress queue is full the request is shed
    /// immediately: the channel already holds
    /// `Err(`[`LiveError::Overloaded`]`)`.
    pub fn submit(&self, jpeg: Vec<u8>) -> ReplyReceiver {
        let (reply, rx) = Reply::channel();
        self.submit_request(Request::new(jpeg, reply));
        rx
    }

    /// Submits one [`Request`] — the single entry point behind
    /// [`submit`](Self::submit), [`infer`](Self::infer) and the net
    /// front-end. Never blocks: every outcome, sheds included, goes to
    /// [`Request::reply`] exactly once.
    ///
    /// An out-of-range lane or an unregistered pipeline name answers
    /// [`LiveError::Disconnected`] immediately (route-time callers should
    /// check [`lane_of`](Self::lane_of) /
    /// [`has_pipeline`](Self::has_pipeline) first and reject with a
    /// request error instead).
    pub fn submit_request(&self, req: Request<'_>) {
        let Request {
            target,
            jpeg,
            deadline,
            trace_id,
            reply,
        } = req;
        match target {
            Target::Lane(lane) => self
                .ingress
                .submit(lane, jpeg, deadline, trace_id, reply, false),
            Target::Pipeline(name) => match self.pipeline_of(name) {
                Some(driver) => driver.submit(jpeg.into(), deadline, trace_id, reply),
                None => reply.send(Err(LiveError::Disconnected)),
            },
        }
    }

    /// Number of tenant lanes (1 for single-lane servers).
    pub fn lane_count(&self) -> usize {
        self.ingress.queue.lanes.len()
    }

    /// Resolves a tenant name — or, failing that, a model name — to its
    /// lane index (first match wins). The net front-end routes wire
    /// requests with a tenant header through this.
    pub fn lane_of(&self, name: &str) -> Option<usize> {
        lane_of(&self.ingress.queue.lanes, name)
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
        let queue = &self.ingress.queue;
        let t = queue.secs(Instant::now());
        let stats = self.backend.stats();
        let cache_stats = self
            .cache
            .lock()
            .map(|c| c.stats())
            .unwrap_or_else(|e| e.into_inner().stats());
        let st = queue.lock();
        let admission: Vec<_> = st.lanes.iter().map(|l| (l.admitted, l.shed)).collect();
        let (depth, rejected, expired) = (st.depth, st.rejected, st.expired);
        drop(st);
        // Lane snapshots are collected before taking the metrics lock
        // (inference workers acquire metrics → lane.lat; acquiring in the
        // reverse order here would risk deadlock).
        let lanes: Vec<LaneMetrics> = queue
            .lanes
            .iter()
            .zip(admission)
            .map(|(l, (depth, shed))| LaneMetrics {
                name: l.spec.name.clone(),
                model: l.spec.model.clone(),
                depth,
                completed: l.completed.load(Ordering::Relaxed),
                shed,
                p99_us: l.p99_us(),
            })
            .collect();
        let m = queue.metrics();
        let mut meter = m.meter;
        meter.close(t);
        LiveMetrics {
            throughput: meter.rate(),
            latency: m.latency.summary(),
            breakdown: m.breakdown.clone(),
            completed: meter.count(),
            rejected,
            expired,
            forward_calls: m.forward_calls,
            mean_batch: m.batch_sizes.mean(),
            queue_depth_mean: depth.time_average(t),
            queue_depth_peak: depth.peak(),
            inference_wall: Duration::from_secs_f64(m.inference_wall_s),
            backend_threads: stats.threads,
            parallel_efficiency: stats.efficiency(),
            preproc_cache: cache_stats,
            lanes,
        }
    }

    /// A capability handle for a pipeline executor: lane-addressed
    /// reserved submission, stage accounting, and trace access, detached
    /// from the server's lifetime handle so the executor can run on its
    /// own thread. See [`PipelineHandle`].
    pub fn pipeline_handle(&self) -> PipelineHandle {
        PipelineHandle {
            ingress: Ingress {
                trace: self.tracer.register("pipeline"),
                ..self.ingress.clone()
            },
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
/// `submit` mirrors [`LiveServer::submit_request`]: it must never block
/// the caller, and every outcome (including sheds) goes to `reply`
/// exactly once.
pub trait PipelineDriver: Send + Sync {
    /// Submits one frame to the cascade's root stage; `reply` receives
    /// the joined final result.
    fn submit(
        &self,
        jpeg: Vec<u8>,
        deadline: Option<Duration>,
        trace_id: Option<u64>,
        reply: Reply,
    );
}

/// What a pipeline executor needs from a [`LiveServer`], detached from
/// the server's owning handle: lane-addressed **reserved** submission,
/// cascade stage accounting into the shared breakdown, trace access, and
/// the ingress capacity that bounds fan-out admission.
///
/// The handle keeps no worker alive: once its server has shut down, a
/// submission answers [`LiveError::Disconnected`].
pub struct PipelineHandle {
    ingress: Ingress,
}

impl std::fmt::Debug for PipelineHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineHandle")
            .field("lanes", &self.ingress.queue.lanes.len())
            .field("queue_cap", &self.ingress.queue.cap)
            .finish()
    }
}

impl PipelineHandle {
    /// Number of tenant lanes.
    pub fn lane_count(&self) -> usize {
        self.ingress.queue.lanes.len()
    }

    /// Resolves a tenant or model name to its lane (see
    /// [`LiveServer::lane_of`]).
    pub fn lane_of(&self, name: &str) -> Option<usize> {
        lane_of(&self.ingress.queue.lanes, name)
    }

    /// Trace tenant tag for a lane (lane `i` records as `i + 1`).
    pub fn lane_tag(lane: usize) -> u32 {
        LaneRt::tag(lane)
    }

    /// The server's ingress queue capacity — the budget the executor's
    /// fan-out reservation rule admits against (a pipeline whose
    /// worst-case sub-request count exceeds it can never be admitted).
    pub fn queue_cap(&self) -> usize {
        self.ingress.queue.cap
    }

    /// Server-wide default deadline ([`LiveOptions::deadline`]).
    pub fn default_deadline(&self) -> Option<Duration> {
        self.ingress.deadline
    }

    /// Draws the next request id from the server's shared trace-id space.
    pub fn next_trace_id(&self) -> u64 {
        self.ingress.next_req.fetch_add(1, Ordering::Relaxed)
    }

    /// The executor's trace track (registered as `pipeline`), for the
    /// parent span and the fan-out/join bookkeeping spans.
    pub fn trace(&self) -> &TraceHandle {
        &self.ingress.trace
    }

    /// Records one cascade stage observation into the server's shared
    /// [`StageBreakdown`], so cascade rows appear in
    /// [`LiveMetrics::breakdown`] / [`ServingSummary`](crate::report)
    /// alongside the per-request stage rows.
    pub fn record_stage(&self, stage: &str, secs: f64) {
        self.ingress.queue.metrics().breakdown.record(stage, secs);
    }

    /// Lane-addressed submission with **reserved** ingress capacity: the
    /// quota/EDF admission gates still apply (typed
    /// [`LiveError::QuotaExceeded`] / [`LiveError::SloInfeasible`] sheds),
    /// but an admitted sub-request *blocks* on a full ingress queue
    /// instead of shedding [`LiveError::Overloaded`]. The preprocessing
    /// pool drains ingress independently of any pipeline executor, so the
    /// wait always ends — this is what makes a bounded queue unable to
    /// deadlock a half-finished parent whose children the executor
    /// already promised to submit (DESIGN §16). A submission after the
    /// server's shutdown, or one still waiting when it starts, answers
    /// [`LiveError::Disconnected`]. Every outcome goes to `reply` exactly
    /// once.
    pub fn submit_reserved(
        &self,
        lane: usize,
        jpeg: Vec<u8>,
        deadline: Option<Duration>,
        trace_id: Option<u64>,
        reply: Reply,
    ) {
        self.ingress
            .submit(lane, jpeg.into(), deadline, trace_id, reply, true)
    }
}

impl Drop for LiveServer {
    fn drop(&mut self) {
        // Pipeline drivers first: their executors rely on the running
        // workers to retire in-flight sub-requests, so they shut down
        // while the server is fully alive.
        self.pipelines
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clear();
        // Then close: the workers drain what was admitted and exit.
        self.ingress.queue.close();
        for h in self.workers.drain(..) {
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

    /// Submits `jpeg` to `lane` with a channel reply.
    fn submit_to(
        server: &LiveServer,
        lane: usize,
        deadline: Option<Duration>,
        jpeg: Vec<u8>,
    ) -> ReplyReceiver {
        let (reply, rx) = Reply::channel();
        server.submit_request(Request {
            target: Target::Lane(lane),
            deadline,
            ..Request::new(jpeg, reply)
        });
        rx
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
    fn every_reply_runs_once_on_shutdown_drop() {
        // Requests still queued when the server shuts down are answered
        // too: served, or `Disconnected` by the `Reply` a worker dropped,
        // so the net front-end never leaks a connection slot.
        let n_requests = 12;
        let (tx, rx) = mpsc::channel();
        {
            let server = tiny_server(4);
            for i in 0..n_requests {
                let tx = tx.clone();
                server.submit_request(Request::new(
                    synthetic_jpeg(&ImageSpec::new(40, 40, 0), 100 + i as u64),
                    Reply::new(move |r| {
                        let _ = tx.send((i, r));
                    }),
                ));
            }
            // Dropping the server here: some requests complete, the rest
            // are dropped by worker shutdown.
        }
        drop(tx);
        let mut runs = vec![0; n_requests];
        for (i, r) in rx {
            runs[i] += 1;
            match r {
                Ok(r) => assert_eq!(r.output.len(), 10),
                Err(e) => assert!(matches!(e, LiveError::Disconnected), "{e}"),
            }
        }
        assert_eq!(runs, vec![1; n_requests], "one reply per request");
    }

    /// Every [`Request`] shape through the one entry point: {lane 0, named
    /// lane, out-of-range lane, registered pipeline, unknown pipeline} ×
    /// {served, shed by a full queue}, plus a decode failure. Each
    /// request's [`Reply`] runs exactly once, with the right variant, and
    /// an unroutable target answers `Disconnected`.
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
                reply: Reply,
            ) {
                if self.full.load(Ordering::SeqCst) {
                    return reply.send(Err(LiveError::Overloaded));
                }
                self.handle
                    .submit_reserved(0, jpeg, deadline, trace_id, reply)
            }
        }

        #[derive(Debug, Clone, Copy, PartialEq)]
        enum Outcome {
            Served,
            Overloaded,
            Disconnected,
            DecodeFailed,
        }
        let outcome = |r: Result<LiveResult, LiveError>| match r {
            Ok(r) => {
                assert_eq!(r.output.len(), 10);
                Outcome::Served
            }
            Err(LiveError::Overloaded) => Outcome::Overloaded,
            Err(LiveError::Disconnected) => Outcome::Disconnected,
            Err(LiveError::Decode(_)) => Outcome::DecodeFailed,
            Err(e) => panic!("unexpected error {e}"),
        };

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
        let runs: Mutex<Vec<Arc<AtomicUsize>>> = Mutex::new(Vec::new());

        // Submits one request of the given shape with a reply that counts
        // its runs, and returns what the reply received.
        let run = |target: Target<'_>, jpeg: Vec<u8>| -> Outcome {
            let (tx, rx) = mpsc::channel();
            let ran = Arc::new(AtomicUsize::new(0));
            runs.lock().unwrap().push(Arc::clone(&ran));
            let reply = Reply::new(move |r| {
                ran.fetch_add(1, Ordering::SeqCst);
                let _ = tx.send(r);
            });
            server.submit_request(Request {
                target,
                ..Request::new(jpeg, reply)
            });
            outcome(rx.recv().expect("one reply per request"))
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
            let want = if routable {
                Outcome::Served
            } else {
                Outcome::Disconnected
            };
            assert_eq!(run(target, jpeg.clone()), want, "{target:?}");
        }
        assert_eq!(run(Target::Lane(0), vec![1, 2, 3]), Outcome::DecodeFailed);
        assert_eq!(server.metrics().rejected, 0);

        // Column 2: a full queue. The only preproc worker is parked inside
        // the reply of a request it failed to decode, two fillers occupy
        // the two ingress slots, so the next lane request finds no room.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        server.submit_request(Request::new(
            vec![1, 2, 3],
            Reply::new(move |r| {
                let _ = entered_tx.send(r);
                let _ = gate_rx.recv();
            }),
        ));
        let blocked = entered_rx
            .recv()
            .expect("worker reaches the blocking reply");
        assert_eq!(outcome(blocked), Outcome::DecodeFailed);
        let fillers = [server.submit(jpeg.clone()), server.submit(jpeg.clone())];
        cascade.full.store(true, Ordering::SeqCst);
        for (target, routable) in table {
            let want = if routable {
                Outcome::Overloaded
            } else {
                Outcome::Disconnected
            };
            assert_eq!(run(target, jpeg.clone()), want, "{target:?}");
        }
        // The two lane shapes were shed at the ingress queue.
        assert_eq!(server.metrics().rejected, 2);
        gate_tx.send(()).unwrap();
        for rx in fillers {
            assert_eq!(rx.recv().unwrap().unwrap().output.len(), 10);
        }

        drop(cascade);
        drop(server);
        let runs = runs.into_inner().unwrap();
        assert_eq!(runs.len(), 2 * table.len() + 1);
        for ran in runs {
            assert_eq!(ran.load(Ordering::SeqCst), 1, "a reply runs exactly once");
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
        // Encoded up front, so the whole burst is admitted before the
        // first decode finishes: a lane lingers only while more of its
        // requests are on their way.
        let payloads: Vec<_> = (0..16)
            .map(|i| synthetic_jpeg(&ImageSpec::new(32, 32, 0), i))
            .collect();
        let receivers: Vec<_> = payloads.into_iter().map(|p| server.submit(p)).collect();
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
        // Preprocessing and inference ride the backend; the whole
        // pipeline must be bit-identical across thread counts.
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
        let err = submit_to(&server, 0, Some(Duration::ZERO), jpeg.clone())
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
        let r = submit_to(&server, 0, Some(Duration::from_secs(60)), jpeg)
            .recv()
            .unwrap()
            .unwrap();
        assert_eq!(r.output.len(), 10);
    }

    /// Satellite (robustness): dropping the server with requests still in
    /// flight must answer every receiver — either with a result or with a
    /// clean `Disconnected` — and never panic or hang. This
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
            match rx.recv().expect("every request is answered") {
                Ok(r) => assert_eq!(r.output.len(), 10),
                Err(e) => assert!(
                    matches!(e, LiveError::Disconnected),
                    "in-flight request failed with {e}"
                ),
            }
        }

        // Requests parked in a lane that would linger for a minute: drop
        // dispatches them at once, each answered exactly once. A lane
        // lingers only while another of its requests is on its way, so a
        // slow full-resolution decode on the same lane is submitted first
        // and is still running while the three small ones queue.
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                max_queue_delay: Duration::from_secs(60),
                fast_preproc: false,
                ..tiny_opts(8)
            },
        );
        let slow = server.submit(synthetic_jpeg(&ImageSpec::new(3000, 2000, 0), 19));
        let parked: Vec<_> = (0..3)
            .map(|i| {
                let (tx, rx) = mpsc::channel();
                server.submit_request(Request::new(
                    synthetic_jpeg(&ImageSpec::new(40, 40, 0), 20 + i),
                    Reply::new(move |r| {
                        let _ = tx.send(r);
                    }),
                ));
                rx
            })
            .collect();
        // Preprocessed (cached) means queued on the lane, give or take the
        // push itself.
        let by = Instant::now() + Duration::from_secs(10);
        while server.metrics().preproc_cache.entries < 3 {
            assert!(Instant::now() < by, "requests never preprocessed");
            std::thread::sleep(Duration::from_millis(1));
        }
        // Still parked at drop: all four admitted, none served, and the
        // slow one not yet preprocessed (it would be the fourth entry).
        let m = server.metrics();
        assert_eq!(
            (m.lanes[0].depth, m.completed, m.preproc_cache.entries),
            (4, 0, 3),
            "the small requests must be queued behind the slow decode"
        );
        let t0 = Instant::now();
        drop(server);
        assert!(
            t0.elapsed() < Duration::from_secs(10),
            "drop waited out the linger"
        );
        assert_eq!(slow.try_recv().unwrap().unwrap().output.len(), 10);
        for rx in parked {
            assert_eq!(rx.try_recv().unwrap().unwrap().output.len(), 10);
            assert!(rx.try_recv().is_err(), "a second reply");
        }
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
            rx_small.push(submit_to(&server, 0, None, j.clone()));
            rx_large.push(submit_to(&server, 1, None, j.clone()));
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
        let err = submit_to(&server, 0, Some(Duration::ZERO), jpeg)
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
            .map(|_| submit_to(&server, 0, None, jpeg.clone()))
            .collect();
        for rx in solo_rx {
            let _ = rx.recv().unwrap().unwrap();
        }
        let solo = lc_queue_mean(&server, 1);
        drop(server);
        // Co-located: a BE flood lands first and occupies the shared
        // inference worker; the same LC requests now wait behind
        // co-tenant batches. The flood is encoded up front so it arrives
        // as one burst: paced by encoding, its batch-1 dispatches could
        // drain before the LC requests arrive.
        let model = Model::from_graph(models::micro_cnn(96, 10).unwrap(), 3);
        let server = LiveServer::start(model, opts(Tracer::with_capacity(4096)));
        let flood_jpegs: Vec<_> = (0..24)
            .map(|i| synthetic_jpeg(&ImageSpec::new(48, 48, 0), 300 + i))
            .collect();
        let flood: Vec<_> = flood_jpegs
            .into_iter()
            .map(|j| submit_to(&server, 1, None, j))
            .collect();
        let mut lc_rx = Vec::new();
        for _ in 0..4 {
            lc_rx.push(submit_to(&server, 0, None, jpeg.clone()));
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
    /// distinct weights drops nothing, and no batch exceeds the
    /// configured `max_batch`.
    #[test]
    fn no_drop_across_two_weighted_lanes() {
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
        let n = 20;
        let receivers: Vec<_> = (0..n)
            .map(|i| {
                submit_to(
                    &server,
                    i % 2,
                    None,
                    synthetic_jpeg(&ImageSpec::new(40, 40, 0), 400 + i as u64),
                )
            })
            .collect();
        for rx in receivers {
            let r = rx.recv().unwrap().unwrap();
            assert_eq!(r.output.len(), 10);
            assert!(r.batch_size <= 4, "batch of {}", r.batch_size);
        }
        let m = server.metrics();
        assert_eq!(m.completed, n as u64);
        assert_eq!(m.lanes[0].completed + m.lanes[1].completed, n as u64);
        assert_eq!(m.lanes[0].completed, (n / 2) as u64);
    }

    /// A lane's depth is counted before its job can reach a worker. A
    /// worker that finishes the job first (a cache hit flushed at batch
    /// size 1) must not wrap the count below zero. Bursts of `queue_cap`
    /// keep at most that many requests in flight, so any larger sample is
    /// a wrapped counter.
    #[test]
    fn lane_depth_never_exceeds_requests_in_flight() {
        let queue_cap = 16;
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = Arc::new(LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                max_queue_delay: Duration::ZERO,
                queue_cap,
                preproc_cache_mb: Some(8),
                ..tiny_opts(1)
            },
        ));
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 11);
        server.infer(jpeg.clone()).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sampler = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut max = 0;
                while !stop.load(Ordering::Relaxed) {
                    max = max.max(server.metrics().lanes[0].depth);
                }
                max
            })
        };
        for _ in 0..200 {
            let burst: Vec<_> = (0..queue_cap)
                .map(|_| server.submit(jpeg.clone()))
                .collect();
            for rx in burst {
                assert_eq!(rx.recv().unwrap().unwrap().output.len(), 10);
            }
        }
        stop.store(true, Ordering::Relaxed);
        let max = sampler.join().unwrap();
        assert!(max <= queue_cap, "lane depth read {max}");
        assert_eq!(server.metrics().lanes[0].depth, 0);
    }

    /// A batch closes when its head lingers out, even while the inference
    /// worker is busy: requests that arrive later form the next batch.
    /// `a` occupies the worker with a slow forward pass (tens of ms);
    /// `b`'s linger window closes before `c` and `d` arrive together. The
    /// window is the configured linger, though nothing else is on its way
    /// once each request is queued.
    #[test]
    fn batch_closes_when_its_head_lingers_out_while_the_worker_is_busy() {
        let model = Model::from_graph(models::resnet18(64, 10).unwrap(), 3);
        let opts = LiveOptions {
            input_side: 64,
            preproc_cache_mb: Some(8),
            ..tiny_opts(8)
        };
        let server = LiveServer::start(model, opts);
        let jpeg = synthetic_jpeg(&ImageSpec::new(64, 64, 0), 7);
        server.infer(jpeg.clone()).unwrap(); // every request below is a cache hit
        let a = server.submit(jpeg.clone());
        std::thread::sleep(Duration::from_millis(6)); // > 2 × the 2 ms linger
        let b = server.submit(jpeg.clone());
        std::thread::sleep(Duration::from_millis(6));
        let (c, d) = (server.submit(jpeg.clone()), server.submit(jpeg));
        let sizes: Vec<usize> = [a, b, c, d]
            .iter()
            .map(|rx| rx.recv().unwrap().unwrap().batch_size)
            .collect();
        assert_eq!(sizes, [1, 1, 2, 2]);
    }

    /// Strict priority is strict: a high-priority request that arrives
    /// behind a queued best-effort backlog runs on the next free inference
    /// worker, ahead of most of that backlog. Completion order comes from
    /// the replies; the slow model keeps the backlog queued.
    #[test]
    fn high_priority_request_overtakes_a_queued_best_effort_backlog() {
        let model = Model::from_graph(models::resnet18(64, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                tenants: vec![
                    TenantSpec::new("lc", "default").priority(Priority::High),
                    TenantSpec::new("be", "default").priority(Priority::Low),
                ],
                input_side: 64,
                preproc_cache_mb: Some(8),
                ..tiny_opts(1)
            },
        );
        let jpeg = synthetic_jpeg(&ImageSpec::new(64, 64, 0), 5);
        server.infer(jpeg.clone()).unwrap(); // every request below is a cache hit
        let order: Arc<Mutex<Vec<&str>>> = Arc::default();
        let (done_tx, done_rx) = mpsc::channel();
        let submit = |lane: usize, who: &'static str| {
            let (order, done_tx) = (Arc::clone(&order), done_tx.clone());
            let (tx, rx) = mpsc::sync_channel(1);
            let reply = Reply::new(move |r| {
                order.lock().unwrap().push(who);
                let _ = tx.send(r);
                let _ = done_tx.send(());
            });
            server.submit_request(Request {
                target: Target::Lane(lane),
                ..Request::new(jpeg.clone(), reply)
            });
            rx
        };
        let n = 24;
        let backlog: Vec<_> = (0..n).map(|_| submit(1, "be")).collect();
        // Each reply takes a forward pass; the cache hits behind it are
        // preprocessed and queued long before the third.
        for _ in 0..3 {
            done_rx.recv().unwrap();
        }
        let outstanding = n - order.lock().unwrap().len();
        let lc = submit(0, "lc");
        assert_eq!(lc.recv().unwrap().unwrap().output.len(), 10);
        for rx in backlog {
            assert_eq!(rx.recv().unwrap().unwrap().output.len(), 10);
        }
        drop(server);
        let order = order.lock().unwrap();
        let after = order.len() - 1 - order.iter().position(|&w| w == "lc").unwrap();
        assert!(
            2 * after >= outstanding,
            "{after} of {outstanding} outstanding best-effort replies came after the \
             high-priority one: {order:?}"
        );
    }

    /// The lane queues are bounded like the ingress queue: a sustained
    /// flood at a slow model sheds `Overloaded`, and the depth summed over
    /// lanes (ingress, preprocessing and lane queues) never exceeds two
    /// queues plus one batch per inference worker.
    #[test]
    fn flood_at_a_slow_model_sheds_and_bounds_lane_depth() {
        let (queue_cap, max_batch) = (8, 8);
        let model = Model::from_graph(models::resnet18(64, 10).unwrap(), 3);
        let server = Arc::new(LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                input_side: 64,
                queue_cap,
                preproc_cache_mb: Some(8),
                ..tiny_opts(max_batch)
            },
        ));
        let jpeg = synthetic_jpeg(&ImageSpec::new(64, 64, 0), 6);
        server.infer(jpeg.clone()).unwrap();
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let sampler = {
            let (server, stop) = (Arc::clone(&server), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut max = 0;
                while !stop.load(Ordering::Relaxed) {
                    let m = server.metrics();
                    max = max.max(m.lanes.iter().map(|l| l.depth).sum::<usize>());
                }
                max
            })
        };
        // Paced so the cache-hit preprocessing keeps draining ingress: the
        // flood outlasts a forward pass only if the lane queues push back.
        let replies: Vec<_> = (0..10 * queue_cap)
            .map(|_| {
                let rx = server.submit(jpeg.clone());
                std::thread::sleep(Duration::from_micros(100));
                rx
            })
            .collect();
        let mut shed = 0;
        for rx in replies {
            match rx.recv().unwrap() {
                Ok(r) => assert_eq!(r.output.len(), 10),
                Err(LiveError::Overloaded) => shed += 1,
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        stop.store(true, Ordering::Relaxed);
        let max = sampler.join().unwrap();
        assert!(shed > 0, "a flood of {} must shed", 10 * queue_cap);
        assert!(
            max <= 2 * queue_cap + max_batch,
            "lane depth read {max} with queue_cap {queue_cap}"
        );
    }

    /// A tenant list built in code is validated like any other: each row
    /// is one kind of tenant no lane can serve as written, and
    /// `start_zoo` refuses it before a thread starts.
    #[test]
    fn start_zoo_rejects_invalid_tenant_lists() {
        let t = |name: &str| TenantSpec::new(name, "default");
        let start = |tenants: Vec<TenantSpec>| {
            let zoo = vec![ZooModel {
                name: "default".to_string(),
                model: Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3),
                input_side: 32,
            }];
            let opts = LiveOptions {
                tenants,
                ..tiny_opts(4)
            };
            LiveServer::start_zoo(zoo, opts)
        };
        let rows = [
            ("duplicate name", vec![t("a"), t("a")]),
            ("empty name", vec![t("")]),
            ("weight 0", vec![t("a").weight(0.0)]),
            ("weight NaN", vec![t("a").weight(f64::NAN)]),
            ("quota rate 0", vec![t("a").quota(0.0, 4)]),
        ];
        for (what, tenants) in rows {
            assert!(start(tenants).is_err(), "{what} was accepted");
        }
        assert!(start(vec![t("a").weight(0.5).quota(5.0, 1), t("b")]).is_ok());
    }

    // ------------------------------------- nothing else on its way

    /// A lane lingers only while more of its requests are on their way: a
    /// lone request on an idle lane goes at once, however long the linger
    /// (a decode, then a cache hit).
    #[test]
    fn a_lone_request_on_an_idle_lane_does_not_wait_out_the_linger() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                max_queue_delay: Duration::from_secs(1),
                ..tiny_opts(8)
            },
        );
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 31);
        for _ in 0..2 {
            let t0 = Instant::now();
            assert_eq!(server.infer(jpeg.clone()).unwrap().batch_size, 1);
            let took = t0.elapsed();
            assert!(took < Duration::from_millis(250), "answered after {took:?}");
        }
    }

    /// A request that leaves its lane without being queued, here a
    /// truncated JPEG, wakes the batch that lingered for it. The good
    /// request is queued while the truncated one is still on its way (one
    /// preprocessing worker, in submission order), so it lingers until
    /// that decode fails — milliseconds in, at the missing tail, well
    /// after the inference worker has started to wait.
    #[test]
    fn a_failed_decode_releases_the_batch_that_lingered_for_it() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                max_queue_delay: Duration::from_secs(1),
                ..tiny_opts(8)
            },
        );
        let good = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 33);
        let mut bad = synthetic_jpeg(&ImageSpec::new(1600, 1200, 0), 34);
        bad.truncate(bad.len() * 9 / 10);
        let t0 = Instant::now();
        let good = server.submit(good);
        let bad = server.submit(bad);
        assert!(matches!(bad.recv().unwrap(), Err(LiveError::Decode(_))));
        assert_eq!(good.recv().unwrap().unwrap().output.len(), 10);
        let took = t0.elapsed();
        assert!(took < Duration::from_millis(250), "answered after {took:?}");
    }

    /// EDF admission charges the linger only behind a queue: a warm lane
    /// whose deadline (1.5 ms) is shorter than its linger (2 ms) admits
    /// every request that finds it empty.
    #[test]
    fn a_warm_empty_lane_admits_a_deadline_shorter_than_its_linger() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                tenants: vec![TenantSpec::new("tight", "default").deadline_us(1_500)],
                ..tiny_opts(4)
            },
        );
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 35);
        server.infer(jpeg.clone()).unwrap(); // the lane learns its unit cost
        for i in 0..20 {
            if let Err(e) = server.infer(jpeg.clone()) {
                panic!("sequential request {i} failed: {e}");
            }
        }
        let m = server.metrics();
        assert_eq!((m.completed, m.lanes[0].shed), (21, 0));
    }

    /// A [`PipelineHandle`] keeps no worker alive: the server's drop
    /// returns while one is held, and a reserved submission after it
    /// answers `Disconnected` exactly once.
    #[test]
    fn a_held_pipeline_handle_does_not_keep_the_server_alive() {
        let server = tiny_server(4);
        let handle = server.pipeline_handle();
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 36);
        let (reply, rx) = Reply::channel();
        handle.submit_reserved(0, jpeg.clone(), None, None, reply);
        assert_eq!(rx.recv().unwrap().unwrap().output.len(), 10);
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(server);
            let _ = done_tx.send(());
        });
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the drop returns while a handle is held");
        let (tx, rx) = mpsc::channel();
        let reply = Reply::new(move |r| {
            let _ = tx.send(r);
        });
        handle.submit_reserved(0, jpeg, None, None, reply);
        let replies: Vec<_> = rx.iter().collect();
        assert_eq!(replies.len(), 1, "one reply");
        assert!(matches!(replies[0], Err(LiveError::Disconnected)));
    }

    /// A reserved submission waiting on a full ingress FIFO when the
    /// server drops gets exactly one reply, `Disconnected`, and the drop
    /// returns once the workers have drained what was admitted.
    #[test]
    fn a_reserved_submit_blocked_on_a_full_fifo_is_answered_once_on_drop() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let server = LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                queue_cap: 1,
                ..tiny_opts(4)
            },
        );
        let handle = server.pipeline_handle();
        let jpeg = synthetic_jpeg(&ImageSpec::new(40, 40, 0), 37);
        // The only preprocessing worker is parked inside the reply of a
        // request it failed to decode, and a filler takes the one slot.
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        server.submit_request(Request::new(
            vec![1, 2, 3],
            Reply::new(move |r| {
                let _ = entered_tx.send(r);
                let _ = gate_rx.recv();
            }),
        ));
        assert!(matches!(entered_rx.recv(), Ok(Err(LiveError::Decode(_)))));
        let filler = server.submit(jpeg.clone());
        let (tx, rx) = mpsc::channel();
        let submitter = std::thread::spawn(move || {
            let reply = Reply::new(move |r| {
                let _ = tx.send(r);
            });
            handle.submit_reserved(0, jpeg, None, None, reply);
        });
        let by = Instant::now() + Duration::from_secs(10);
        while server.ingress.queue.lock().waiting[Cv::Room as usize] == 0 {
            assert!(Instant::now() < by, "the reserved submission never waited");
            std::thread::sleep(Duration::from_millis(1));
        }
        let (done_tx, done_rx) = mpsc::channel();
        std::thread::spawn(move || {
            drop(server);
            let _ = done_tx.send(());
        });
        // The close answers the waiting submission while the worker is
        // still parked.
        let first = rx.recv_timeout(Duration::from_secs(30));
        assert!(
            matches!(first, Ok(Err(LiveError::Disconnected))),
            "{first:?}"
        );
        submitter.join().unwrap();
        assert!(rx.try_recv().is_err(), "a second reply");
        gate_tx.send(()).unwrap();
        done_rx
            .recv_timeout(Duration::from_secs(30))
            .expect("the drop returns");
        // The filler was admitted before the close: the drain serves it.
        assert_eq!(filler.recv().unwrap().unwrap().output.len(), 10);
    }
}
