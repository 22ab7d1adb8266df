//! The live cascade executor: walks a [`PipelineSpec`] DAG over a
//! [`LiveServer`](vserve_server::live::LiveServer)'s tenant lanes.
//!
//! One executor thread owns all pipeline state; each sub-request's
//! [`Reply`] posts its result back as an event, so the executor never
//! blocks on a reply and a single thread can multiplex any number of
//! in-flight cascades. Stage work is submitted through the server's
//! ordinary lanes — cascade stages therefore batch independently, with
//! their tenants' quota and SLO admission applied per sub-request.
//!
//! # Fan-out admission and the no-deadlock rule
//!
//! The ingress queue is bounded. A naive executor that admits a frame,
//! submits its root, and then blocks trying to enqueue K children behind
//! other parents' children could deadlock only if ingress drained through
//! the executor itself — it does not (the preprocessing pool drains it
//! unconditionally), but unbounded admission would still let cascades
//! monopolize the queue. The rule (DESIGN §16):
//!
//! 1. At admission, reserve the spec's **worst-case** sub-request count
//!    ([`PipelineSpec::worst_case_requests`]) from a budget equal to the
//!    ingress capacity; if the budget is short, shed the whole frame with
//!    a typed [`LiveError::Overloaded`] *before* any work starts.
//! 2. Post-admission sub-requests use
//!    [`PipelineHandle::submit_reserved`]: quota/SLO sheds stay typed,
//!    but a momentarily full ingress queue blocks briefly instead of
//!    shedding a half-finished parent's children.
//!
//! Together: every admitted frame either joins or fails with a typed
//! error, and the spawned-vs-retired sub-request counts reconcile exactly
//! (pinned by the fan-out property test).
//!
//! The [`PipelineHandle`] keeps none of the server's workers alive. A
//! runner that outlives its server (one not registered with it) sees
//! every later sub-request, and any still waiting for ingress room when
//! the server shut down, answered [`LiveError::Disconnected`], so its
//! frames still fail exactly once rather than hang.

use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use vserve_metrics::{LatencyStats, LatencySummary, StageBreakdown};
use vserve_server::live::{LiveError, LiveResult, Reply};
use vserve_server::{stages, PipelineDriver, PipelineHandle};
use vserve_tensor::ops;

use crate::spec::{PipelineSpec, Transform};

/// Span name of the per-pipeline parent span on the executor's trace
/// track: it covers submission through join, so every sub-request span
/// sharing the trace id nests under it.
pub const PIPELINE_SPAN: &str = "pipeline";

/// Stage keys of the executor's own [`PipelineRunnerStats::breakdown`]
/// (per-pipeline seconds). Spec stages appear under their own names.
pub mod exec_stages {
    /// Fan-out transform work: decode parent, crop/resize K children,
    /// re-encode.
    pub const FANOUT: &str = "fanout";
    /// Join: assembling terminal outputs into the final reply.
    pub const JOIN: &str = "join";
    /// Summed queue time of every sub-request (ingress + batcher).
    pub const QUEUE: &str = "queue";

    /// Row attributing queue wait to the spec stage whose sub-requests
    /// waited (e.g. `queue:id` for sibling crops held behind busy
    /// inference workers). The per-stage rows partition [`QUEUE`]:
    /// their sum equals it per pipeline.
    pub fn queue_row(stage: &str) -> String {
        format!("queue:{stage}")
    }
}

struct NewReq {
    jpeg: Vec<u8>,
    deadline: Option<Duration>,
    trace_id: Option<u64>,
    /// Budget units reserved at admission, released at completion.
    reserved: usize,
    reply: Reply,
}

enum Ev {
    New(Box<NewReq>),
    /// Sub-request `node` of pipeline `pipe` was answered with `result`.
    Done {
        pipe: u64,
        node: usize,
        result: Result<LiveResult, LiveError>,
    },
    Shutdown,
}

struct Node {
    stage: usize,
    /// Payload this node was submitted with — the fan-out source for its
    /// children's crops.
    jpeg: Arc<Vec<u8>>,
    output: Option<Vec<f32>>,
    /// True once the node is known to spawn no children (leaf stage,
    /// early exit, or zero fan-out): its output joins the final reply.
    terminal: bool,
}

struct Active {
    trace_id: u64,
    tag: u32,
    submitted: Instant,
    deadline: Option<Instant>,
    reserved: usize,
    reply: Reply,
    nodes: Vec<Node>,
    /// Submitted sub-requests whose Done event has not arrived yet.
    pending: usize,
    /// First failure; set once, descendants of failed nodes are not
    /// spawned, and the join answers this error.
    failed: Option<LiveError>,
    /// Per spec stage: summed preproc + inference service seconds.
    stage_service: Vec<f64>,
    /// Per spec stage: summed queue seconds of its sub-requests.
    stage_queue: Vec<f64>,
    fanout_s: f64,
    queue_s: f64,
    preproc: Duration,
    queue: Duration,
    inference: Duration,
}

struct StatsInner {
    completed: u64,
    failed: u64,
    shed: u64,
    spawned: u64,
    retired: u64,
    /// Remaining admission budget (starts at the server's ingress
    /// capacity; each admitted frame holds its worst case until joined).
    budget: usize,
    latency: LatencyStats,
    breakdown: StageBreakdown,
}

struct Stats(Mutex<StatsInner>);

impl Stats {
    fn lock(&self) -> MutexGuard<'_, StatsInner> {
        self.0.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Counters and per-pipeline stage accounting of one
/// [`PipelineRunner`], from [`PipelineRunner::stats`].
#[derive(Debug, Clone)]
pub struct PipelineRunnerStats {
    /// Pipelines joined successfully.
    pub completed: u64,
    /// Pipelines answered with a typed error after admission (a
    /// sub-request shed or failed).
    pub failed: u64,
    /// Frames shed at admission ([`LiveError::Overloaded`]) because the
    /// worst-case reservation exceeded the remaining ingress budget.
    pub shed: u64,
    /// Sub-requests submitted (root + children).
    pub spawned: u64,
    /// Sub-requests whose completion event was processed. Equals
    /// [`spawned`](Self::spawned) whenever no pipeline is in flight —
    /// the no-lost-sub-request invariant.
    pub retired: u64,
    /// Remaining admission budget (ingress capacity minus in-flight
    /// reservations).
    pub budget: usize,
    /// End-to-end pipeline latency distribution.
    pub latency: LatencySummary,
    /// Per-pipeline seconds: one row per spec stage (preproc + inference
    /// service) plus [`exec_stages`] rows.
    pub breakdown: StageBreakdown,
}

/// The live DAG executor for one [`PipelineSpec`] — implements
/// [`PipelineDriver`], so register it with
/// [`LiveServer::register_pipeline`](vserve_server::live::LiveServer::register_pipeline)
/// (which also ties its shutdown to the server's).
pub struct PipelineRunner {
    spec: Arc<PipelineSpec>,
    worst_case: usize,
    tx: mpsc::Sender<Ev>,
    worker: Option<JoinHandle<()>>,
    stats: Arc<Stats>,
}

impl std::fmt::Debug for PipelineRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PipelineRunner")
            .field("pipeline", &self.spec.name)
            .field("stages", &self.spec.stages.len())
            .finish()
    }
}

impl PipelineRunner {
    /// Starts the executor thread for `spec` over `handle`'s server.
    ///
    /// # Errors
    ///
    /// Returns a message when a stage's lane does not resolve to any
    /// tenant or model of the server.
    pub fn new(handle: PipelineHandle, spec: PipelineSpec) -> Result<Self, String> {
        let mut lanes = Vec::with_capacity(spec.stages.len());
        for s in &spec.stages {
            match handle.lane_of(&s.lane) {
                Some(lane) => lanes.push(lane),
                None => {
                    return Err(format!(
                        "pipeline '{}' stage '{}': no lane or model named '{}'",
                        spec.name, s.name, s.lane
                    ))
                }
            }
        }
        let spec = Arc::new(spec);
        let worst_case = spec.worst_case_requests();
        let stats = Arc::new(Stats(Mutex::new(StatsInner {
            completed: 0,
            failed: 0,
            shed: 0,
            spawned: 0,
            retired: 0,
            budget: handle.queue_cap(),
            latency: LatencyStats::new(),
            breakdown: StageBreakdown::new(),
        })));
        let (tx, rx) = mpsc::channel();
        let mut exec = Exec {
            handle,
            spec: Arc::clone(&spec),
            lanes,
            tx: tx.clone(),
            stats: Arc::clone(&stats),
            active: HashMap::new(),
            next_pipe: 0,
            draining: false,
        };
        let worker = std::thread::spawn(move || exec.run(rx));
        Ok(PipelineRunner {
            spec,
            worst_case,
            tx,
            worker: Some(worker),
            stats,
        })
    }

    /// The spec this runner executes.
    pub fn spec(&self) -> &PipelineSpec {
        &self.spec
    }

    /// Worst-case sub-requests reserved per admitted frame.
    pub fn worst_case_requests(&self) -> usize {
        self.worst_case
    }

    /// Snapshot of the runner's counters and stage accounting.
    pub fn stats(&self) -> PipelineRunnerStats {
        let s = self.stats.lock();
        PipelineRunnerStats {
            completed: s.completed,
            failed: s.failed,
            shed: s.shed,
            spawned: s.spawned,
            retired: s.retired,
            budget: s.budget,
            latency: s.latency.summary(),
            breakdown: s.breakdown.clone(),
        }
    }

    /// Submits a frame and blocks for the joined result.
    ///
    /// # Errors
    ///
    /// Any typed [`LiveError`]: admission shed, a sub-request's decode or
    /// model failure, quota/SLO shed, deadline, or shutdown.
    pub fn infer(&self, jpeg: Vec<u8>) -> Result<LiveResult, LiveError> {
        let (reply, rx) = Reply::channel();
        PipelineDriver::submit(self, jpeg, None, None, reply);
        rx.recv().map_err(|_| LiveError::Disconnected)?
    }
}

impl PipelineDriver for PipelineRunner {
    fn submit(
        &self,
        jpeg: Vec<u8>,
        deadline: Option<Duration>,
        trace_id: Option<u64>,
        reply: Reply,
    ) {
        // The fan-out reservation rule: hold the worst case before the
        // root is submitted, or shed the whole frame typed right here.
        {
            let mut s = self.stats.lock();
            if self.worst_case > s.budget {
                s.shed += 1;
                drop(s);
                return reply.send(Err(LiveError::Overloaded));
            }
            s.budget -= self.worst_case;
        }
        let req = Box::new(NewReq {
            jpeg,
            deadline,
            trace_id,
            reserved: self.worst_case,
            reply,
        });
        if let Err(mpsc::SendError(Ev::New(req))) = self.tx.send(Ev::New(req)) {
            self.stats.lock().budget += req.reserved;
            req.reply.send(Err(LiveError::Disconnected));
        }
    }
}

impl Drop for PipelineRunner {
    fn drop(&mut self) {
        let _ = self.tx.send(Ev::Shutdown);
        if let Some(h) = self.worker.take() {
            let _ = h.join();
        }
    }
}

struct Exec {
    handle: PipelineHandle,
    spec: Arc<PipelineSpec>,
    /// Resolved lane index per spec stage.
    lanes: Vec<usize>,
    tx: mpsc::Sender<Ev>,
    stats: Arc<Stats>,
    active: HashMap<u64, Active>,
    next_pipe: u64,
    draining: bool,
}

impl Exec {
    fn run(&mut self, rx: mpsc::Receiver<Ev>) {
        while let Ok(ev) = rx.recv() {
            match ev {
                Ev::New(req) => self.start(*req),
                Ev::Done { pipe, node, result } => self.on_done(pipe, node, result),
                Ev::Shutdown => self.draining = true,
            }
            if self.draining && self.active.is_empty() {
                break;
            }
        }
        // Runner gone with pipelines still active (no Shutdown seen):
        // dropping their replies answers them `Disconnected`.
    }

    fn start(&mut self, req: NewReq) {
        let pipe = self.next_pipe;
        self.next_pipe += 1;
        let now = Instant::now();
        let trace_id = req.trace_id.unwrap_or_else(|| self.handle.next_trace_id());
        let deadline = req.deadline.or(self.handle.default_deadline());
        self.active.insert(
            pipe,
            Active {
                trace_id,
                tag: PipelineHandle::lane_tag(self.lanes[0]),
                submitted: now,
                deadline: deadline.map(|d| now + d),
                reserved: req.reserved,
                reply: req.reply,
                nodes: Vec::new(),
                pending: 0,
                failed: None,
                stage_service: vec![0.0; self.spec.stages.len()],
                stage_queue: vec![0.0; self.spec.stages.len()],
                fanout_s: 0.0,
                queue_s: 0.0,
                preproc: Duration::ZERO,
                queue: Duration::ZERO,
                inference: Duration::ZERO,
            },
        );
        self.submit_node(pipe, 0, Arc::new(req.jpeg));
    }

    /// Submits one sub-request on its stage's lane. Its reply posts a
    /// `Done` event back to this executor; capacity was reserved at
    /// admission, so the send side never sheds (see module docs).
    fn submit_node(&mut self, pipe: u64, stage: usize, jpeg: Arc<Vec<u8>>) {
        let Some(act) = self.active.get_mut(&pipe) else {
            return;
        };
        let node = act.nodes.len();
        let now = Instant::now();
        // Expired pipelines still submit (with a zero remaining budget)
        // so every node flows through the same typed-shed machinery and
        // the spawn/retire counts stay exact.
        let remaining = act.deadline.map(|d| d.saturating_duration_since(now));
        let tx = self.tx.clone();
        let reply = Reply::new(move |result| {
            let _ = tx.send(Ev::Done { pipe, node, result });
        });
        self.handle.submit_reserved(
            self.lanes[stage],
            (*jpeg).clone(),
            remaining,
            Some(act.trace_id),
            reply,
        );
        act.nodes.push(Node {
            stage,
            jpeg,
            output: None,
            terminal: false,
        });
        act.pending += 1;
        self.stats.lock().spawned += 1;
    }

    fn on_done(&mut self, pipe: u64, node: usize, result: Result<LiveResult, LiveError>) {
        let Some(act) = self.active.get_mut(&pipe) else {
            return;
        };
        act.pending -= 1;
        self.stats.lock().retired += 1;
        let stage_idx = act.nodes[node].stage;
        let mut spawn: Vec<(usize, Arc<Vec<u8>>)> = Vec::new();
        match result {
            Ok(r) => {
                act.queue += r.queue;
                act.preproc += r.preproc;
                act.inference += r.inference;
                act.queue_s += r.queue.as_secs_f64();
                act.stage_queue[stage_idx] += r.queue.as_secs_f64();
                act.stage_service[stage_idx] += (r.preproc + r.inference).as_secs_f64();
                let st = &self.spec.stages[stage_idx];
                let exited = st
                    .early_exit
                    .is_some_and(|th| r.output.iter().fold(f32::MIN, |a, &b| a.max(b)) >= th);
                if st.children.is_empty() || exited || act.failed.is_some() {
                    act.nodes[node].terminal = true;
                } else {
                    let t0 = Instant::now();
                    let parent = Arc::clone(&act.nodes[node].jpeg);
                    for e in &st.children {
                        let k = e.fanout.eval(&r.output) as usize;
                        if k == 0 {
                            continue;
                        }
                        match make_children(&parent, e.transform, k) {
                            Ok(blobs) => {
                                spawn.extend(blobs.into_iter().map(|b| (e.to, Arc::new(b))))
                            }
                            Err(err) => {
                                act.failed = Some(err);
                                spawn.clear();
                                break;
                            }
                        }
                    }
                    let t1 = Instant::now();
                    act.fanout_s += (t1 - t0).as_secs_f64();
                    act.nodes[node].terminal = spawn.is_empty();
                    self.handle.trace().span_tagged(
                        act.tag,
                        act.trace_id,
                        stages::FANOUT,
                        t0,
                        t1,
                        0,
                        spawn.len() as u64,
                    );
                }
                act.nodes[node].output = Some(r.output);
            }
            Err(e) => {
                if act.failed.is_none() {
                    act.failed = Some(e);
                }
            }
        }
        for (stage, blob) in spawn {
            self.submit_node(pipe, stage, blob);
        }
        if self.active.get(&pipe).is_some_and(|a| a.pending == 0) {
            self.finish(pipe);
        }
    }

    fn finish(&mut self, pipe: u64) {
        let Some(mut act) = self.active.remove(&pipe) else {
            return;
        };
        let join_t0 = Instant::now();
        let result = match act.failed.take() {
            Some(e) => Err(e),
            None => {
                // Join: terminal outputs concatenated in submission
                // order — deterministic because node ids are assigned by
                // the single executor thread.
                let mut output = Vec::new();
                for n in &act.nodes {
                    if n.terminal {
                        output.extend_from_slice(n.output.as_deref().unwrap_or(&[]));
                    }
                }
                Ok(output)
            }
        };
        let end = Instant::now();
        let join_s = (end - join_t0).as_secs_f64();
        let wall = end.saturating_duration_since(act.submitted);
        let tr = self.handle.trace();
        tr.span_tagged(
            act.tag,
            act.trace_id,
            stages::JOIN,
            join_t0,
            end,
            0,
            act.nodes.len() as u64,
        );
        // The parent span: submission through join, covering every
        // sub-request span recorded under the same trace id.
        tr.span_tagged(
            act.tag,
            act.trace_id,
            PIPELINE_SPAN,
            act.submitted,
            end,
            0,
            act.nodes.len() as u64,
        );
        // Cascade rows in the server's shared breakdown.
        self.handle.record_stage(stages::FANOUT, act.fanout_s);
        self.handle.record_stage(stages::JOIN, join_s);
        for (i, st) in self.spec.stages.iter().enumerate() {
            if act.stage_service[i] > 0.0 {
                self.handle.record_stage(
                    &stages::cascade_stage(&self.spec.name, &st.name),
                    act.stage_service[i],
                );
            }
        }
        let mut s = self.stats.lock();
        s.budget += act.reserved;
        match result {
            Ok(output) => {
                s.completed += 1;
                s.latency.push(wall.as_secs_f64());
                for (i, st) in self.spec.stages.iter().enumerate() {
                    s.breakdown.record(&st.name, act.stage_service[i]);
                    s.breakdown
                        .record(&exec_stages::queue_row(&st.name), act.stage_queue[i]);
                }
                s.breakdown.record(exec_stages::FANOUT, act.fanout_s);
                s.breakdown.record(exec_stages::JOIN, join_s);
                s.breakdown.record(exec_stages::QUEUE, act.queue_s);
                drop(s);
                act.reply.send(Ok(LiveResult {
                    output,
                    preproc: act.preproc,
                    queue: act.queue,
                    inference: act.inference,
                    batch_size: act.nodes.len(),
                    total: wall,
                }));
            }
            Err(e) => {
                s.failed += 1;
                drop(s);
                act.reply.send(Err(e));
            }
        }
    }
}

/// Materializes the K child payloads of one fan-out edge.
fn make_children(jpeg: &[u8], transform: Transform, k: usize) -> Result<Vec<Vec<u8>>, LiveError> {
    match transform {
        Transform::Identity => Ok(vec![jpeg.to_vec(); k]),
        Transform::Resize { side } => {
            let img = vserve_codec::decode(jpeg).map_err(LiveError::Decode)?;
            let side = side.max(1);
            let small = ops::resize_bilinear(&img, side, side);
            let blob = vserve_codec::encode(&small, &Default::default());
            Ok(vec![blob; k])
        }
        Transform::CropGrid => {
            let img = vserve_codec::decode(jpeg).map_err(LiveError::Decode)?;
            let cols = (k as f64).sqrt().ceil().max(1.0) as usize;
            let rows = k.div_ceil(cols);
            let w = (img.width() / cols).max(1);
            let h = (img.height() / rows).max(1);
            let mut out = Vec::with_capacity(k);
            for i in 0..k {
                let x0 = ((i % cols) * w).min(img.width() - w);
                let y0 = ((i / cols) * h).min(img.height() - h);
                let crop = ops::crop_rect(&img, x0, y0, w, h);
                out.push(vserve_codec::encode(&crop, &Default::default()));
            }
            Ok(out)
        }
    }
}
