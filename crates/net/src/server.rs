//! The TCP front-end: accept connections, read request frames, serve
//! them through an embedded [`LiveServer`], write response frames back.
//!
//! # Structure
//!
//! One event-loop thread owns the listener and every connection,
//! multiplexed through a readiness poller ([`crate::poller`]). The
//! listener is registered only while fewer than [`NetOptions::max_conns`]
//! connections are open, so overload pushes back at the TCP accept queue
//! instead of growing server state (the same backpressure philosophy as
//! the live server's bounded ingress).
//!
//! Each connection is a [`crate::conn`] state machine: frames are
//! assembled from whatever bytes the kernel has (measuring the
//! data-transfer time per frame), decoded (measuring deserialization) and
//! submitted into the [`LiveServer`] with the frame's propagated deadline
//! and a completion hook; replies are resolved *in request order* — which
//! is what makes pipelining safe for clients that match responses by
//! position as well as by id — encoded, and written back as the socket
//! accepts them.
//!
//! Per-connection pipelining is capped
//! ([`NetOptions::max_inflight_per_conn`], [`NetOptions::write_hwm_bytes`]):
//! a client that fires requests without reading responses eventually
//! blocks in its socket, not in server memory.
//!
//! # Shutdown
//!
//! Dropping the [`NetServer`] is graceful: the loop stops accepting and
//! stops reading, every in-flight response is resolved and flushed
//! (bounded by [`NetOptions::drain_timeout`]), and only then is the
//! embedded live server dropped. In-flight requests are answered, not
//! abandoned.
//!
//! # Failure mapping
//!
//! A malformed frame gets a typed [`Status::BadFrame`] response and the
//! connection closes (framing can no longer be trusted); every other
//! failure — [`Status::Overloaded`] sheds, [`Status::DeadlineExceeded`],
//! decode/model errors — is a normal response frame on a healthy
//! connection. Remote clients can therefore distinguish "server is
//! protecting itself" from "connection died", which the loopback E2E test
//! pins.

use std::net::{Shutdown, SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vserve_dnn::Model;
use vserve_metrics::StageBreakdown;
use vserve_pipeline::{PipelineRunner, PipelineSpec};
use vserve_server::live::{LiveMetrics, LiveOptions, LiveServer, Target, ZooModel};
use vserve_server::ServingSummary;
use vserve_trace::expose::Exposition;
use vserve_trace::Tracer;
use vserve_tune::{TuneOptions, Tuner};

use crate::poller::{Poller, WakeHandle, Waker};
use crate::wire::{RequestFrame, Status};
use crate::{
    env_usize, DEFAULT_ADDR, DEFAULT_INFLIGHT_PER_CONN, DEFAULT_MAX_CONNS, NET_ADDR_ENV,
    NET_INFLIGHT_ENV, NET_MAX_CONNS_ENV,
};

/// Configuration for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetOptions {
    /// Listen address (`host:port`; port 0 picks an ephemeral port).
    /// Defaults to [`NET_ADDR_ENV`] or `127.0.0.1:0`.
    pub addr: String,
    /// Maximum concurrently served connections; further connects queue in
    /// the kernel's accept backlog. Defaults to [`NET_MAX_CONNS_ENV`] or
    /// 64.
    pub max_conns: usize,
    /// Maximum responses pending per connection before the server stops
    /// pulling new frames off that socket (per-connection flow control).
    /// Defaults to [`NET_INFLIGHT_ENV`] or 128.
    pub max_inflight_per_conn: usize,
    /// Ignored — the server is always evented; kept only because
    /// `benchmark/src/spec.rs` names it; delete in the next
    /// benchmark-archetype PR.
    pub evented: bool,
    /// A connection whose unflushed reply bytes exceed this stops being
    /// read until the client drains its socket — a stalled reader stalls
    /// its own sender instead of growing server memory.
    pub write_hwm_bytes: usize,
    /// How long graceful shutdown waits for in-flight replies to flush
    /// before force-closing connections.
    pub drain_timeout: Duration,
    /// Name the deployed model answers to; frames naming anything else
    /// get [`Status::UnknownModel`]. An empty model name in a frame
    /// always matches.
    pub model_name: String,
    /// Options for the embedded [`LiveServer`].
    pub live: LiveOptions,
    /// Run the self-tuning controller ([`vserve_tune::Tuner`]) against
    /// the embedded live server. Defaults to [`TuneOptions::from_env`]
    /// when `VSERVE_TUNE` is set ([`TuneOptions::enabled_from_env`]),
    /// `None` — static knobs — otherwise.
    pub tune: Option<TuneOptions>,
    /// Register a cascade pipeline executor over the embedded live
    /// server's lanes at bind time; `VRQ2` frames naming it (in the
    /// tenant or model field) dispatch whole cascades. Defaults to
    /// [`PipelineSpec::from_env`] — the `VSERVE_PIPELINE` chain syntax,
    /// with dynamic fan-out capped by `VSERVE_PIPELINE_FANOUT_CAP` —
    /// `None` otherwise.
    pub pipeline: Option<PipelineSpec>,
}

impl Default for NetOptions {
    fn default() -> Self {
        NetOptions {
            addr: std::env::var(NET_ADDR_ENV).unwrap_or_else(|_| DEFAULT_ADDR.to_owned()),
            max_conns: env_usize(NET_MAX_CONNS_ENV, DEFAULT_MAX_CONNS),
            max_inflight_per_conn: env_usize(NET_INFLIGHT_ENV, DEFAULT_INFLIGHT_PER_CONN),
            evented: true,
            write_hwm_bytes: 1 << 20,
            drain_timeout: Duration::from_secs(5),
            model_name: "default".to_owned(),
            live: LiveOptions::default(),
            tune: TuneOptions::enabled_from_env().then(TuneOptions::from_env),
            pipeline: PipelineSpec::from_env(),
        }
    }
}

/// Network-layer counters and stage times, alongside the embedded live
/// server's metrics.
#[derive(Debug, Clone)]
pub struct NetMetrics {
    /// Connections accepted since bind.
    pub accepted: u64,
    /// Connections currently being served.
    pub active: usize,
    /// Request frames successfully parsed.
    pub frames: u64,
    /// Frames rejected as malformed (each closes its connection).
    pub bad_frames: u64,
    /// Connections currently draining: no longer read, finishing
    /// in-flight replies before close.
    pub draining: usize,
    /// Largest unflushed reply buffer any connection has held, in bytes
    /// — the observable face of the write-side flow control.
    pub write_buffer_hwm_bytes: u64,
    /// Largest request-side buffer any open connection holds right now
    /// (capacity, not fill): what a connection that went idle after a big
    /// frame still costs.
    pub read_buffer_capacity_bytes: u64,
    /// Network-layer stage times: one
    /// [`stages::NET_TRANSFER`]/[`stages::DESERIALIZE`] observation per
    /// *completed* request, so per-stage counts line up with the live
    /// breakdown when merged.
    pub net_breakdown: StageBreakdown,
    /// The embedded live server's metrics.
    pub live: LiveMetrics,
}

impl NetMetrics {
    /// Reduces to the shared [`ServingSummary`] shape with the network
    /// stages merged into the live breakdown — this is where the paper's
    /// data-transfer and serialization rows appear next to queue /
    /// preproc / inference.
    ///
    /// The latency distribution remains the live server's (submission →
    /// response); the RPC leg appears as the extra breakdown rows, and
    /// [`ServingSummary::rpc_share`] reads them.
    pub fn summary(&self) -> ServingSummary {
        let mut s = self.live.summary();
        s.breakdown.merge(&self.net_breakdown);
        s
    }
}

pub(crate) struct NetMetricsInner {
    accepted: u64,
    pub(crate) frames: u64,
    pub(crate) bad_frames: u64,
    pub(crate) breakdown: StageBreakdown,
}

pub(crate) struct NetShared {
    shutdown: AtomicBool,
    /// Open connection count, published by the event loop for the
    /// `active` metric.
    active: AtomicUsize,
    max_conns: usize,
    pub(crate) model_name: String,
    next_conn: AtomicU64,
    metrics: Mutex<NetMetricsInner>,
    /// Bumped by [`NetServer::drain_connections`]; the event loop
    /// compares against its last-seen value.
    drain_req: AtomicU64,
    /// Connections currently draining (gauge).
    draining: AtomicU64,
    /// Lifetime write-buffer high-water mark in bytes (gauge).
    write_hwm: AtomicU64,
    /// Largest read-buffer capacity among open connections (gauge).
    read_cap: AtomicU64,
    /// Knob reconfigurations applied by the tuner; shared with the
    /// controller thread, stays 0 when tuning is off. Scrapes read it
    /// regardless so dashboards keep a stable schema.
    tune_decisions: Arc<AtomicU64>,
}

impl NetShared {
    pub(crate) fn lock_metrics(&self) -> MutexGuard<'_, NetMetricsInner> {
        self.metrics.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn set_active(&self, n: usize) {
        self.active.store(n, Ordering::Relaxed);
    }

    fn note_write_hwm(&self, bytes: u64) {
        self.write_hwm.fetch_max(bytes, Ordering::Relaxed);
    }
}

/// A running TCP front-end; dropping it drains in-flight requests,
/// closes every connection, and shuts the embedded live server down.
pub struct NetServer {
    local_addr: SocketAddr,
    live: Arc<LiveServer>,
    shared: Arc<NetShared>,
    /// The event-loop thread and the handle that wakes it out of `wait`.
    driver: Option<JoinHandle<()>>,
    wake: WakeHandle,
    /// The self-tuning controller, when enabled; stopped first on drop so
    /// knobs hold still while connections drain.
    tuner: Option<Tuner>,
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NetServer")
            .field("addr", &self.local_addr)
            .finish()
    }
}

impl NetServer {
    /// Binds the listener, starts the embedded [`LiveServer`] around
    /// `model`, and spawns the event loop.
    ///
    /// # Errors
    ///
    /// Returns the bind error if the address is unavailable.
    pub fn bind(model: Model, opts: NetOptions) -> std::io::Result<NetServer> {
        let live = Arc::new(LiveServer::start(model, opts.live.clone()));
        Self::bind_with(live, opts)
    }

    /// Binds a multi-model deployment: one lane per tenant in
    /// `opts.live.tenants` (or one per zoo model when no tenants are
    /// configured), with `VRQ2` tenant headers and model names routing
    /// across the zoo.
    ///
    /// # Errors
    ///
    /// Returns `InvalidInput` when the zoo/tenant configuration is
    /// rejected by [`LiveServer::start_zoo`], or the bind error if the
    /// address is unavailable.
    pub fn bind_zoo(zoo: Vec<ZooModel>, opts: NetOptions) -> std::io::Result<NetServer> {
        let live = LiveServer::start_zoo(zoo, opts.live.clone())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
        Self::bind_with(Arc::new(live), opts)
    }

    fn bind_with(live: Arc<LiveServer>, opts: NetOptions) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(&opts.addr)?;
        let local_addr = listener.local_addr()?;
        if let Some(spec) = opts.pipeline.clone() {
            // A spec whose lanes don't resolve on this deployment is a
            // configuration error, surfaced at bind like a bad zoo.
            let name = spec.name.clone();
            let runner = PipelineRunner::new(live.pipeline_handle(), spec)
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e))?;
            live.register_pipeline(&name, Arc::new(runner));
        }
        let tuner = opts
            .tune
            .map(|tune_opts| Tuner::start(Arc::clone(&live), tune_opts));
        let tune_decisions = tuner
            .as_ref()
            .map(|t| t.decisions())
            .unwrap_or_else(|| Arc::new(AtomicU64::new(0)));
        let shared = Arc::new(NetShared {
            shutdown: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            max_conns: opts.max_conns.max(1),
            model_name: opts.model_name.clone(),
            next_conn: AtomicU64::new(0),
            metrics: Mutex::new(NetMetricsInner {
                accepted: 0,
                frames: 0,
                bad_frames: 0,
                breakdown: StageBreakdown::new(),
            }),
            drain_req: AtomicU64::new(0),
            draining: AtomicU64::new(0),
            write_hwm: AtomicU64::new(0),
            read_cap: AtomicU64::new(0),
            tune_decisions,
        });
        let max_inflight = opts.max_inflight_per_conn.max(1);
        let waker = Waker::new()?;
        let wake = waker.handle()?;
        let poller = Poller::new()?;
        let driver = {
            let shared = Arc::clone(&shared);
            let live = Arc::clone(&live);
            let write_hwm = opts.write_hwm_bytes.max(1);
            let drain_timeout = opts.drain_timeout;
            std::thread::spawn(move || {
                event_loop(
                    listener,
                    poller,
                    waker,
                    shared,
                    live,
                    max_inflight,
                    write_hwm,
                    drain_timeout,
                )
            })
        };
        Ok(NetServer {
            local_addr,
            live,
            shared,
            driver: Some(driver),
            wake,
            tuner,
        })
    }

    /// The bound address (with the ephemeral port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Snapshots network-layer counters plus the live server's metrics.
    pub fn metrics(&self) -> NetMetrics {
        let m = self.shared.lock_metrics();
        NetMetrics {
            accepted: m.accepted,
            active: self.shared.active.load(Ordering::Relaxed),
            frames: m.frames,
            bad_frames: m.bad_frames,
            draining: self.shared.draining.load(Ordering::Relaxed) as usize,
            write_buffer_hwm_bytes: self.shared.write_hwm.load(Ordering::Relaxed),
            read_buffer_capacity_bytes: self.shared.read_cap.load(Ordering::Relaxed),
            net_breakdown: m.breakdown.clone(),
            live: self.live.metrics(),
        }
    }

    /// Gracefully drains every *current* connection: stops reading from
    /// them, finishes their in-flight replies, flushes, and closes — while
    /// continuing to accept new connections. Clients observe all
    /// outstanding responses followed by EOF; a pooled [`NetClient`]
    /// transparently reconnects on its next submit.
    ///
    /// [`NetClient`]: crate::client::NetClient
    pub fn drain_connections(&self) {
        self.shared.drain_req.fetch_add(1, Ordering::SeqCst);
        self.wake.wake();
    }

    /// Renders the plain-text metrics exposition — the same document a
    /// `VRM1` scrape frame receives over the wire.
    pub fn exposition(&self) -> String {
        render_exposition(&self.shared, &self.live)
    }

    /// The embedded live server's tracer, for snapshotting spans recorded
    /// by both the network layer and the serving pipeline.
    pub fn tracer(&self) -> &Tracer {
        self.live.tracer()
    }
}

/// Renders the metrics exposition document from the network counters and
/// the embedded live server's metrics. Stage rows merge the network-layer
/// breakdown into the live one, mirroring [`NetMetrics::summary`].
pub(crate) fn render_exposition(shared: &NetShared, live: &LiveServer) -> String {
    let (accepted, frames, bad_frames, net_breakdown) = {
        let m = shared.lock_metrics();
        (m.accepted, m.frames, m.bad_frames, m.breakdown.clone())
    };
    let active = shared.active.load(Ordering::Relaxed);
    let lm = live.metrics();
    let mut breakdown = lm.breakdown.clone();
    breakdown.merge(&net_breakdown);

    let mut e = Exposition::new();
    e.header("vserve_up", "gauge", "1 while the server is serving.")
        .gauge("vserve_up", 1.0);
    e.header(
        "vserve_connections_accepted_total",
        "counter",
        "Connections accepted since bind.",
    )
    .counter("vserve_connections_accepted_total", accepted);
    e.header(
        "vserve_connections_active",
        "gauge",
        "Connections currently being served.",
    )
    .gauge("vserve_connections_active", active as f64);
    e.header(
        "vserve_conns_open",
        "gauge",
        "Connections currently open (registered with the event loop).",
    )
    .gauge("vserve_conns_open", active as f64);
    e.header(
        "vserve_conns_draining",
        "gauge",
        "Connections finishing in-flight replies before close.",
    )
    .gauge(
        "vserve_conns_draining",
        shared.draining.load(Ordering::Relaxed) as f64,
    );
    e.header(
        "vserve_write_buffer_hwm_bytes",
        "gauge",
        "Largest unflushed reply buffer any connection has held.",
    )
    .gauge(
        "vserve_write_buffer_hwm_bytes",
        shared.write_hwm.load(Ordering::Relaxed) as f64,
    );
    e.header(
        "vserve_read_buffer_capacity_bytes",
        "gauge",
        "Largest request buffer any open connection holds, filled or not.",
    )
    .gauge(
        "vserve_read_buffer_capacity_bytes",
        shared.read_cap.load(Ordering::Relaxed) as f64,
    );
    e.header(
        "vserve_frames_total",
        "counter",
        "Request frames successfully parsed (inference and scrape).",
    )
    .counter("vserve_frames_total", frames);
    e.header(
        "vserve_bad_frames_total",
        "counter",
        "Frames rejected as malformed.",
    )
    .counter("vserve_bad_frames_total", bad_frames);
    e.header(
        "vserve_requests_completed_total",
        "counter",
        "Requests completed successfully.",
    )
    .counter("vserve_requests_completed_total", lm.completed);
    e.header(
        "vserve_requests_rejected_total",
        "counter",
        "Requests shed by ingress backpressure.",
    )
    .counter("vserve_requests_rejected_total", lm.rejected);
    e.header(
        "vserve_requests_expired_total",
        "counter",
        "Requests shed because their deadline passed.",
    )
    .counter("vserve_requests_expired_total", lm.expired);
    e.header(
        "vserve_throughput_rps",
        "gauge",
        "Completed requests per second since start.",
    )
    .gauge("vserve_throughput_rps", lm.throughput);
    e.header(
        "vserve_forward_calls_total",
        "counter",
        "Batched forward calls executed.",
    )
    .counter("vserve_forward_calls_total", lm.forward_calls);
    e.header(
        "vserve_batch_size_mean",
        "gauge",
        "Mean inference batch size actually formed.",
    )
    .gauge("vserve_batch_size_mean", lm.mean_batch);
    e.header(
        "vserve_queue_depth",
        "gauge",
        "Ingress + batcher queue depth (time-averaged and peak).",
    )
    .sample(
        "vserve_queue_depth",
        &[("kind", "mean")],
        lm.queue_depth_mean,
    )
    .sample(
        "vserve_queue_depth",
        &[("kind", "peak")],
        lm.queue_depth_peak,
    );

    // Per-tenant lane rows: one sample per lane, labeled by tenant and
    // model, so co-located tenants are separable on a dashboard.
    e.header(
        "vserve_lane_depth",
        "gauge",
        "Requests queued in each tenant lane.",
    );
    for l in &lm.lanes {
        e.sample(
            "vserve_lane_depth",
            &[("lane", l.name.as_str()), ("model", l.model.as_str())],
            l.depth as f64,
        );
    }
    e.header(
        "vserve_lane_completed",
        "counter",
        "Requests completed per tenant lane.",
    );
    for l in &lm.lanes {
        e.sample(
            "vserve_lane_completed",
            &[("lane", l.name.as_str()), ("model", l.model.as_str())],
            l.completed as f64,
        );
    }
    e.header(
        "vserve_lane_shed",
        "counter",
        "Requests shed at lane admission (quota or infeasible SLO).",
    );
    for l in &lm.lanes {
        e.sample(
            "vserve_lane_shed",
            &[("lane", l.name.as_str()), ("model", l.model.as_str())],
            l.shed as f64,
        );
    }
    e.header(
        "vserve_lane_p99_us",
        "gauge",
        "p99 round-trip latency per tenant lane, microseconds.",
    );
    for l in &lm.lanes {
        e.sample(
            "vserve_lane_p99_us",
            &[("lane", l.name.as_str()), ("model", l.model.as_str())],
            l.p99_us as f64,
        );
    }

    e.header(
        "vserve_latency_seconds",
        "summary",
        "Round-trip latency of completed requests (submission to reply).",
    );
    let l = &lm.latency;
    for (q, v) in [("0.5", l.p50), ("0.95", l.p95), ("0.99", l.p99)] {
        e.sample("vserve_latency_seconds", &[("quantile", q)], v);
    }
    e.gauge("vserve_latency_seconds_mean", l.mean)
        .counter("vserve_latency_seconds_count", l.count);

    e.header(
        "vserve_stage_seconds_total",
        "counter",
        "Total seconds attributed to each serving stage.",
    );
    let mut names = breakdown.stage_names();
    names.sort_unstable();
    for stage in &names {
        e.sample(
            "vserve_stage_seconds_total",
            &[("stage", stage)],
            breakdown.total(stage),
        );
    }
    e.header(
        "vserve_stage_seconds_mean",
        "gauge",
        "Mean seconds per observation for each serving stage.",
    );
    for stage in &names {
        e.sample(
            "vserve_stage_seconds_mean",
            &[("stage", stage)],
            breakdown.mean(stage),
        );
    }
    e.header(
        "vserve_stage_observations_total",
        "counter",
        "Observations recorded for each serving stage.",
    );
    for stage in &names {
        e.sample(
            "vserve_stage_observations_total",
            &[("stage", stage)],
            breakdown.count(stage) as f64,
        );
    }

    let c = &lm.preproc_cache;
    e.header(
        "vserve_preproc_cache_events_total",
        "counter",
        "Preprocessed-tensor cache activity by kind.",
    )
    .sample(
        "vserve_preproc_cache_events_total",
        &[("kind", "hit")],
        c.hits as f64,
    )
    .sample(
        "vserve_preproc_cache_events_total",
        &[("kind", "miss")],
        c.misses as f64,
    )
    .sample(
        "vserve_preproc_cache_events_total",
        &[("kind", "coalesced")],
        c.coalesced as f64,
    )
    .sample(
        "vserve_preproc_cache_events_total",
        &[("kind", "eviction")],
        c.evictions as f64,
    );
    e.header(
        "vserve_preproc_cache_resident",
        "gauge",
        "Current cache occupancy (entries and bytes) and byte budget.",
    )
    .sample(
        "vserve_preproc_cache_resident",
        &[("what", "entries")],
        c.entries as f64,
    )
    .sample(
        "vserve_preproc_cache_resident",
        &[("what", "bytes")],
        c.bytes as f64,
    )
    .sample(
        "vserve_preproc_cache_resident",
        &[("what", "capacity_bytes")],
        c.capacity_bytes as f64,
    );

    // Current effective knob values — what the batcher and pools are
    // actually running with right now, whether set at startup, via env,
    // or retuned online by the controller.
    let k = live.knobs();
    e.header(
        "vserve_tune_max_batch",
        "gauge",
        "Effective batcher size cap.",
    )
    .gauge("vserve_tune_max_batch", k.max_batch as f64);
    e.header(
        "vserve_tune_preproc_workers",
        "gauge",
        "Effective preprocessing worker target.",
    )
    .gauge("vserve_tune_preproc_workers", k.preproc_workers as f64);
    e.header(
        "vserve_tune_linger_us",
        "gauge",
        "Effective batch linger in microseconds.",
    )
    .gauge(
        "vserve_tune_linger_us",
        k.linger.as_micros().min(u64::MAX as u128) as f64,
    );
    e.header(
        "vserve_tune_decisions_total",
        "counter",
        "Knob reconfigurations applied by the self-tuning controller.",
    )
    .counter(
        "vserve_tune_decisions_total",
        shared.tune_decisions.load(Ordering::Relaxed),
    );

    e.header(
        "vserve_trace_enabled",
        "gauge",
        "1 when span tracing is recording.",
    )
    .gauge(
        "vserve_trace_enabled",
        if live.tracer().is_enabled() { 1.0 } else { 0.0 },
    );
    e.finish()
}

impl Drop for NetServer {
    fn drop(&mut self) {
        // Stop the controller before tearing the front-end down: a knob
        // move mid-drain would race the live server's own shutdown.
        drop(self.tuner.take());
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // The loop sees the shutdown flag, stops accepting, drains every
        // connection (bounded by `drain_timeout`), and exits.
        self.wake.wake();
        if let Some(h) = self.driver.take() {
            let _ = h.join();
        }
        // The live server (still running until here so in-flight work can
        // finish) shuts down when its last Arc drops with `self.live`.
    }
}

/// Slab tokens for the event loop: 0 and 1 are reserved, connections
/// start at [`TOKEN_BASE`]. The low 32 bits are `slab index + TOKEN_BASE`;
/// the high 32 bits carry a generation so a completion hook firing after
/// its connection closed (and the slab slot was reused) cannot be
/// misdelivered.
const TOKEN_LISTENER: u64 = 0;
const TOKEN_WAKER: u64 = 1;
const TOKEN_BASE: u64 = 2;

fn conn_token(generation: u32, idx: usize) -> u64 {
    ((generation as u64) << 32) | (idx as u64 + TOKEN_BASE)
}

fn token_index(token: u64) -> Option<usize> {
    ((token & 0xFFFF_FFFF) as usize).checked_sub(TOKEN_BASE as usize)
}

/// The readiness-driven serving loop: one thread, every connection.
///
/// Invariants the loop maintains:
/// * the listener is registered iff `open < max_conns` and the server is
///   not shutting down (accept-side backpressure without a condvar);
/// * each connection's poller interest always matches
///   [`Conn::desired_interest`] — re-derived after every state change;
/// * a completion token `(token, seq)` is delivered at most once and
///   ignored unless the generation matches (stale hooks are harmless);
/// * on shutdown, every connection drains (in-flight replies flush)
///   before close, bounded by `drain_timeout`.
#[allow(clippy::too_many_arguments)]
fn event_loop(
    listener: TcpListener,
    mut poller: Poller,
    waker: Waker,
    shared: Arc<NetShared>,
    live: Arc<LiveServer>,
    max_inflight: usize,
    write_hwm: usize,
    drain_timeout: Duration,
) {
    use crate::conn::{Completions, Conn, ConnState, Ctx, Verdict};
    use crate::poller::Interest;
    use std::collections::HashSet;
    use std::os::fd::AsRawFd;

    if listener.set_nonblocking(true).is_err() {
        return;
    }
    let lfd = listener.as_raw_fd();
    if poller.add(lfd, TOKEN_LISTENER, Interest::READ).is_err() {
        return;
    }
    if poller.add(waker.fd(), TOKEN_WAKER, Interest::READ).is_err() {
        return;
    }
    let wake = match waker.handle() {
        Ok(w) => w,
        Err(_) => return,
    };
    let completions: Completions = Arc::new(Mutex::new(Vec::new()));
    let tr = live.tracer().register("net-evented");

    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut open = 0usize;
    let mut generation: u32 = 1;
    let mut accepting = true;
    let mut drain_seen = 0u64;
    let mut drain_deadline: Option<Instant> = None;
    let mut events = Vec::new();
    let mut touched: HashSet<usize> = HashSet::new();

    loop {
        let _ = poller.wait(&mut events, Some(Duration::from_millis(100)));
        waker.drain();
        touched.clear();

        let ctx = Ctx {
            shared: &shared,
            live: &live,
            tr: &tr,
            completions: &completions,
            wake: &wake,
            max_inflight,
            write_hwm,
        };

        // Server shutdown: stop accepting, drain everything, leave when
        // the last connection closes or the timeout expires.
        if shared.shutdown.load(Ordering::SeqCst) && drain_deadline.is_none() {
            drain_deadline = Some(Instant::now() + drain_timeout);
            if accepting {
                let _ = poller.remove(lfd);
                accepting = false;
            }
            for (i, c) in conns.iter_mut().enumerate() {
                if let Some(c) = c {
                    c.begin_drain();
                    touched.insert(i);
                }
            }
        }

        // drain_connections(): drain current conns, keep accepting.
        let dr = shared.drain_req.load(Ordering::SeqCst);
        if dr != drain_seen && drain_deadline.is_none() {
            drain_seen = dr;
            for (i, c) in conns.iter_mut().enumerate() {
                if let Some(c) = c {
                    c.begin_drain();
                    touched.insert(i);
                }
            }
        }

        // Reply completions pushed by live-server hooks.
        let done: Vec<(u64, u64)> = {
            let mut g = completions.lock().unwrap_or_else(|e| e.into_inner());
            std::mem::take(&mut *g)
        };
        for (token, seq) in done {
            if let Some(idx) = token_index(token) {
                if let Some(Some(c)) = conns.get_mut(idx) {
                    if c.token == token {
                        c.on_completion(seq);
                        touched.insert(idx);
                    }
                }
            }
        }

        // Readiness events.
        for ei in 0..events.len() {
            let ev = events[ei];
            match ev.token {
                TOKEN_WAKER => {}
                TOKEN_LISTENER => {
                    while accepting && open < shared.max_conns {
                        match listener.accept() {
                            Ok((stream, _)) => {
                                shared.lock_metrics().accepted += 1;
                                let conn_id = shared.next_conn.fetch_add(1, Ordering::Relaxed);
                                let idx = free.pop().unwrap_or_else(|| {
                                    conns.push(None);
                                    conns.len() - 1
                                });
                                generation = generation.wrapping_add(1).max(1);
                                let token = conn_token(generation, idx);
                                match Conn::new(stream, conn_id, token) {
                                    Ok(c) => {
                                        if poller
                                            .add(c.stream.as_raw_fd(), token, Interest::READ)
                                            .is_ok()
                                        {
                                            conns[idx] = Some(c);
                                            open += 1;
                                            shared.set_active(open);
                                            touched.insert(idx);
                                        } else {
                                            free.push(idx);
                                        }
                                    }
                                    Err(_) => free.push(idx),
                                }
                            }
                            Err(ref e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                            Err(ref e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                            Err(_) => break,
                        }
                    }
                    // At the cap: unregister so the backlog holds excess
                    // connects (backpressure before accept).
                    if accepting && open >= shared.max_conns {
                        let _ = poller.remove(lfd);
                        accepting = false;
                    }
                }
                token => {
                    if let Some(idx) = token_index(token) {
                        let alive = matches!(
                            conns.get(idx),
                            Some(Some(c)) if c.token == token
                        );
                        if !alive {
                            continue;
                        }
                        let c = conns[idx].as_mut().expect("checked above");
                        let verdict = if ev.hangup && !ev.readable {
                            // Hard error with nothing left to read.
                            Verdict::Close
                        } else if ev.readable {
                            c.on_readable(&ctx)
                        } else {
                            Verdict::Keep
                        };
                        if verdict == Verdict::Close {
                            close_conn(&mut poller, &mut conns, &mut free, &mut open, idx, &shared);
                            touched.remove(&idx);
                        } else {
                            touched.insert(idx);
                        }
                    }
                }
            }
        }

        // Flush + re-derive interest for every connection whose state
        // moved this tick.
        for &idx in &touched {
            let Some(Some(c)) = conns.get_mut(idx) else {
                continue;
            };
            let verdict = c.flush(&ctx);
            shared.note_write_hwm(c.out_hwm as u64);
            if verdict == Verdict::Close {
                close_conn(&mut poller, &mut conns, &mut free, &mut open, idx, &shared);
                continue;
            }
            let want = c.desired_interest(&ctx);
            if want != c.applied {
                let interest = Interest {
                    read: want.0,
                    write: want.1,
                };
                if poller
                    .modify(c.stream.as_raw_fd(), c.token, interest)
                    .is_ok()
                {
                    c.applied = want;
                }
            }
        }

        // Publish the draining and read-buffer gauges from actual state
        // (cheap: one pass over the slab, which is bounded by the
        // connection cap).
        let (mut draining, mut read_cap) = (0u64, 0usize);
        for c in conns.iter().flatten() {
            draining += u64::from(c.state == ConnState::Draining);
            read_cap = read_cap.max(c.read_capacity());
        }
        shared.draining.store(draining, Ordering::Relaxed);
        shared.read_cap.store(read_cap as u64, Ordering::Relaxed);

        // Capacity freed while gated: resume accepting.
        if !accepting && drain_deadline.is_none() && open < shared.max_conns {
            if poller.add(lfd, TOKEN_LISTENER, Interest::READ).is_ok() {
                accepting = true;
            }
        }

        if let Some(deadline) = drain_deadline {
            if open == 0 {
                return;
            }
            if Instant::now() >= deadline {
                // Drain timeout: force-close what remains.
                for idx in 0..conns.len() {
                    if conns[idx].is_some() {
                        close_conn(&mut poller, &mut conns, &mut free, &mut open, idx, &shared);
                    }
                }
                shared.draining.store(0, Ordering::Relaxed);
                return;
            }
        }
    }
}

/// Unregisters and drops one connection, updating the open count, the
/// active gauge, and the slab free list.
fn close_conn(
    poller: &mut Poller,
    conns: &mut [Option<crate::conn::Conn>],
    free: &mut Vec<usize>,
    open: &mut usize,
    idx: usize,
    shared: &NetShared,
) {
    use std::os::fd::AsRawFd;
    if let Some(c) = conns[idx].take() {
        let _ = poller.remove(c.stream.as_raw_fd());
        let _ = c.stream.shutdown(Shutdown::Both);
        *open = open.saturating_sub(1);
        shared.set_active(*open);
        free.push(idx);
    }
}

/// Mask selecting the wire-id bits of a composed trace id; the upper 16
/// bits carry `conn_id + 1` so ids from different connections (and the
/// live server's own 1-based counter) cannot collide.
pub(crate) const TRACE_WIRE_ID_MASK: u64 = 0x0000_FFFF_FFFF_FFFF;

/// Checks a parsed frame against the deployment and resolves where it
/// routes; `Err` is an immediate typed rejection (`BadFrame`
/// additionally closes the connection).
///
/// Routing order: an explicit tenant header (`VRQ2`) wins — a registered
/// pipeline of that name dispatches to its executor, otherwise the name
/// must match a deployed tenant. Without a tenant header the model name
/// routes the same way: the configured `model_name` alias and the empty
/// name land on lane 0, a pipeline name dispatches to its executor, and
/// any other name must match a zoo model (or tenant) the live server
/// hosts. Pipeline requests are ordinary `VRQ2` frames — no new wire
/// version — so any v2 client can drive a cascade by naming it.
pub(crate) fn route<'a>(
    req: &RequestFrame<'a>,
    shared: &NetShared,
    live: &LiveServer,
) -> Result<Target<'a>, (Status, String)> {
    let route = if !req.tenant.is_empty() {
        if live.has_pipeline(req.tenant) {
            Target::Pipeline(req.tenant)
        } else {
            Target::Lane(live.lane_of(req.tenant).ok_or_else(|| {
                (
                    Status::UnknownModel,
                    format!("no tenant named {:?} here", req.tenant),
                )
            })?)
        }
    } else if req.model.is_empty() || req.model == shared.model_name {
        Target::Lane(0)
    } else if live.has_pipeline(req.model) {
        Target::Pipeline(req.model)
    } else {
        Target::Lane(live.lane_of(req.model).ok_or_else(|| {
            (
                Status::UnknownModel,
                format!("no model named {:?} here", req.model),
            )
        })?)
    };
    if req.jpeg.is_empty() {
        return Err((Status::BadFrame, "empty payload".to_owned()));
    }
    Ok(route)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{ClientOptions, NetClient};
    use crate::wire;
    use std::io::Write;
    use std::net::TcpStream;
    use vserve_dnn::models;
    use vserve_server::stages;
    use vserve_workload::synthetic_jpeg;

    fn tiny_live() -> LiveOptions {
        LiveOptions {
            input_side: 32,
            backend_threads: 1,
            max_queue_delay: Duration::from_millis(2),
            ..LiveOptions::default()
        }
    }

    fn bind_tiny(opts: NetOptions) -> NetServer {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        NetServer::bind(model, opts).expect("bind loopback")
    }

    fn spec(side: usize, seed: u64) -> Vec<u8> {
        synthetic_jpeg(&vserve_device::ImageSpec::new(side, side, 0), seed)
    }

    #[test]
    fn serves_one_request_with_net_stages() {
        let server = bind_tiny(NetOptions {
            live: tiny_live(),
            ..NetOptions::default()
        });
        let client = NetClient::connect(server.local_addr(), ClientOptions::default()).unwrap();
        let r = client.infer(&spec(48, 1)).unwrap();
        assert_eq!(r.output.len(), 10);
        let sum: f32 = r.output.iter().sum();
        assert!((sum - 1.0).abs() < 1e-3, "softmax sum {sum}");
        assert!(r.server_total >= r.inference);
        let m = server.metrics();
        assert_eq!(m.accepted as usize, ClientOptions::default().pool);
        assert_eq!(m.frames, 1);
        assert_eq!(m.bad_frames, 0);
        assert_eq!(m.live.completed, 1);
        // The merged summary now carries the paper's transfer and
        // serialization rows.
        let s = m.summary();
        assert_eq!(s.breakdown.count(stages::NET_TRANSFER), 1);
        assert_eq!(s.breakdown.count(stages::DESERIALIZE), 1);
        assert!(s.rpc_time() >= 0.0);
    }

    #[test]
    fn metrics_scrape_reflects_served_traffic() {
        let server = bind_tiny(NetOptions {
            live: tiny_live(),
            ..NetOptions::default()
        });
        let client = NetClient::connect(server.local_addr(), ClientOptions::default()).unwrap();
        for i in 0..3 {
            client.infer(&spec(48, i)).unwrap();
        }
        let doc = client.scrape().unwrap();
        assert!(doc.contains("vserve_up 1"), "{doc}");
        assert!(doc.contains("vserve_requests_completed_total 3"), "{doc}");
        assert!(doc.contains("# TYPE vserve_latency_seconds summary"));
        assert!(doc.contains("vserve_latency_seconds{quantile=\"0.99\"}"));
        assert!(doc.contains("vserve_stage_seconds_total{stage=\"4-inference\"}"));
        assert!(doc.contains("vserve_stage_seconds_total{stage=\"0-net-transfer\"}"));
        assert!(doc.contains("vserve_preproc_cache_events_total{kind=\"hit\"}"));
        // Effective knob values are scrapeable even with tuning off, and
        // the decision counter reads zero — no controller ran.
        let live = LiveOptions::default();
        assert!(
            doc.contains(&format!("vserve_tune_max_batch {}", live.max_batch)),
            "{doc}"
        );
        assert!(
            doc.contains(&format!(
                "vserve_tune_preproc_workers {}",
                live.preproc_workers
            )),
            "{doc}"
        );
        assert!(doc.contains("vserve_tune_linger_us"), "{doc}");
        assert!(doc.contains("vserve_tune_decisions_total 0"), "{doc}");
        // The in-process renderer serves the same document shape.
        assert!(server
            .exposition()
            .contains("vserve_requests_completed_total 3"));
        // A scrape counts as a parsed frame and leaves the pool usable.
        assert!(server.metrics().frames >= 4);
        assert_eq!(client.infer(&spec(48, 9)).unwrap().output.len(), 10);
    }

    #[test]
    fn malformed_bytes_get_typed_bad_frame_then_close() {
        let server = bind_tiny(NetOptions {
            live: tiny_live(),
            ..NetOptions::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        // A valid length prefix framing garbage: parse fails, typed reply.
        let mut frame = vec![0u8; 0];
        frame.extend_from_slice(&(wire::MIN_BODY_LEN as u32).to_le_bytes());
        frame.extend_from_slice(&[0xAB; wire::MIN_BODY_LEN]);
        raw.write_all(&frame).unwrap();
        let mut body = Vec::new();
        let t = wire::read_frame_into(&mut raw, &mut body).unwrap();
        assert!(t.is_some(), "server must answer, not just close");
        let resp = wire::decode_response(&body).unwrap();
        assert_eq!(resp.status, Status::BadFrame);
        // …and then the connection closes.
        assert!(wire::read_frame_into(&mut raw, &mut body)
            .map(|r| r.is_none())
            .unwrap_or(true));
        // Wait for the connection teardown to be reflected in metrics.
        for _ in 0..100 {
            if server.metrics().bad_frames == 1 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.metrics().bad_frames, 1);
    }

    #[test]
    fn hostile_length_prefix_gets_bad_frame() {
        let server = bind_tiny(NetOptions {
            live: tiny_live(),
            ..NetOptions::default()
        });
        let mut raw = TcpStream::connect(server.local_addr()).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(&[0u8; 16]).unwrap();
        let mut body = Vec::new();
        let t = wire::read_frame_into(&mut raw, &mut body).unwrap();
        assert!(t.is_some());
        assert_eq!(
            wire::decode_response(&body).unwrap().status,
            Status::BadFrame
        );
    }

    #[test]
    fn unknown_model_rejected_but_connection_survives() {
        let server = bind_tiny(NetOptions {
            live: tiny_live(),
            model_name: "resnet50".to_owned(),
            ..NetOptions::default()
        });
        let client = NetClient::connect(
            server.local_addr(),
            ClientOptions {
                model: "mobilenet".to_owned(),
                ..ClientOptions::default()
            },
        )
        .unwrap();
        let err = client.infer(&spec(48, 2)).unwrap_err();
        match err {
            crate::client::NetError::Server { status, .. } => {
                assert_eq!(status, Status::UnknownModel)
            }
            other => panic!("expected typed server rejection, got {other}"),
        }
        // Same client, right name: the pooled connections were not torn
        // down by the rejection.
        let client2 = NetClient::connect(
            server.local_addr(),
            ClientOptions {
                model: "resnet50".to_owned(),
                ..ClientOptions::default()
            },
        )
        .unwrap();
        assert_eq!(client2.infer(&spec(48, 2)).unwrap().output.len(), 10);
        drop(client);
    }

    #[test]
    fn connection_cap_backpressures_at_accept() {
        let server = bind_tiny(NetOptions {
            max_conns: 1,
            live: tiny_live(),
            ..NetOptions::default()
        });
        let c1 = NetClient::connect(
            server.local_addr(),
            ClientOptions {
                pool: 1,
                ..ClientOptions::default()
            },
        )
        .unwrap();
        assert_eq!(c1.infer(&spec(48, 3)).unwrap().output.len(), 10);
        // A second connect succeeds at the TCP level (kernel backlog) but
        // is not *served* until the first connection closes.
        let second = TcpStream::connect(server.local_addr()).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(server.metrics().accepted, 1, "cap must hold accepts");
        drop(c1);
        // Slot freed: the queued connection gets served.
        for _ in 0..100 {
            if server.metrics().accepted == 2 {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.metrics().accepted, 2);
        drop(second);
    }

    #[test]
    fn drop_while_client_connected_is_clean() {
        let server = bind_tiny(NetOptions {
            live: tiny_live(),
            ..NetOptions::default()
        });
        let addr = server.local_addr();
        let client = NetClient::connect(addr, ClientOptions::default()).unwrap();
        let _ = client.infer(&spec(48, 4)).unwrap();
        drop(server); // must drain and join, not hang
                      // The socket is gone; any further call fails cleanly (any error
                      // variant is acceptable — what matters is no hang, no panic).
        let _ = client.infer(&spec(48, 5)).unwrap_err();
    }
}
