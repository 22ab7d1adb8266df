//! One epoch: a fresh process that builds the model, binds the server,
//! warms it, and drives a closed and an open phase through one connection.
//!
//! The child half (`run_child`) does the measuring and prints `v <name>
//! <value>` lines plus one `lat` line of open-phase latencies; the parent half
//! (`spawn`) starts it, enforces the timeout, and parses the lines back.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use vserve_net::{NetClient, NetResult, NetServer};
use vserve_server::live::LiveServer;
use vserve_server::stages;
use vserve_sim::rng::RngStream;
use vserve_trace::{TraceSnapshot, Tracer};
use vserve_workload::Arrivals;

use crate::corpus::{self, Corpus};
use crate::spec::{self, Workload, GOLDEN_TOLERANCE};
use crate::stats;

/// Spans per thread ring in a traced epoch: above anything 2 s of the fastest
/// workload records on one thread, so `trace.dropped_spans` stays 0.
const TRACE_RING_SPANS: usize = 1 << 20;
/// Trace id the server composes for wire id `n` on its first connection.
const FIRST_CONN_TRACE_BASE: u64 = 1 << 48;
const CLIENT_SERIALIZE: &str = "client-serialize";
const CLIENT_WRITE: &str = "client-write";
const CLIENT_WAIT: &str = "client-wait";

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Mode {
    /// Closed phase then open phase over the wire, tracer disabled.
    Wire,
    /// Closed phase then a window-1 phase over the wire, tracer enabled.
    WireTraced,
    /// Closed phase only, through `LiveServer::submit` without the wire.
    Inproc,
}

impl Mode {
    pub fn name(self) -> &'static str {
        match self {
            Mode::Wire => "wire",
            Mode::WireTraced => "wire-traced",
            Mode::Inproc => "inproc",
        }
    }

    pub fn parse(s: &str) -> Option<Mode> {
        [Mode::Wire, Mode::WireTraced, Mode::Inproc]
            .into_iter()
            .find(|m| m.name() == s)
    }
}

#[derive(Debug, Clone)]
pub struct EpochPlan {
    pub mode: Mode,
    pub index: usize,
    pub seed: u64,
    pub closed: Duration,
    /// Open phase (`Wire`) or window-1 phase (`WireTraced`).
    pub second: Duration,
    /// Where a traced epoch writes its chrome trace; empty = nowhere.
    pub trace_out: PathBuf,
}

/// Process CPU time (user + system, all threads).
fn cpu_time() -> Duration {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit fields on
    // the 64-bit Linux targets this benchmark builds for) and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    Duration::new(ts.tv_sec as u64, ts.tv_nsec as u32)
}

/// Peak resident set of this process in MiB (`VmHWM`, the value `ru_maxrss`
/// reports).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Poisson arrival offsets at `rate` within `span`, from the run's seed and
/// the epoch index.
pub fn arrival_offsets(rate: f64, span: Duration, seed: u64, epoch: usize) -> Vec<Duration> {
    let mut rng = RngStream::new(seed.wrapping_mul(0x9e37_79b9).wrapping_add(epoch as u64));
    let mut arrivals = Arrivals::poisson(rate);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += arrivals.next_gap(&mut rng);
        if t >= span.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

pub struct OpenSample {
    /// Due time → reply checked; +inf for a failed, refused or wrong reply.
    pub latency_ms: f64,
    /// Due time → the sender actually started submitting.
    pub lateness_ms: f64,
}

pub struct OpenOutcome {
    pub samples: Vec<OpenSample>,
    /// Scheduled span of the arrivals over the span the sender needed.
    pub achieved_rate_frac: f64,
}

/// Open loop: a sender thread submits request `k` at `dues[k]` whatever the
/// replies do, and the calling thread completes them in order. Latency is
/// taken from the *due* time, so a stalled sender is charged to every
/// request that was due during the stall.
pub fn open_loop<P: Send>(
    dues: &[Duration],
    mut submit: impl FnMut(usize) -> Option<P> + Send,
    mut complete: impl FnMut(usize, P) -> bool,
) -> OpenOutcome {
    let start = Instant::now();
    let (tx, rx) = mpsc::channel();
    let mut samples = Vec::with_capacity(dues.len());
    let mut last_send = start;
    std::thread::scope(|s| {
        s.spawn(move || {
            for (k, &due) in dues.iter().enumerate() {
                let due_at = start + due;
                if let Some(wait) = due_at.checked_duration_since(Instant::now()) {
                    std::thread::sleep(wait);
                }
                let began = Instant::now();
                let pending = submit(k);
                if tx.send((k, due_at, began, pending)).is_err() {
                    return;
                }
            }
        });
        for (k, due_at, began, pending) in rx {
            let ok = pending.is_some_and(|p| complete(k, p));
            let latency = Instant::now().saturating_duration_since(due_at);
            samples.push(OpenSample {
                latency_ms: if ok {
                    latency.as_secs_f64() * 1e3
                } else {
                    f64::INFINITY
                },
                lateness_ms: began.saturating_duration_since(due_at).as_secs_f64() * 1e3,
            });
            last_send = began;
        }
    });
    let scheduled = dues.last().copied().unwrap_or_default().as_secs_f64();
    let actual = last_send.saturating_duration_since(start).as_secs_f64();
    OpenOutcome {
        samples,
        achieved_rate_frac: if actual > 0.0 {
            (scheduled / actual).min(1.0)
        } else {
            1.0
        },
    }
}

/// Running sums of the per-reply stage times a `NetResult` carries.
#[derive(Default)]
struct StageSums {
    n: u64,
    us: [f64; 8],
}

const STAGE_NAMES: [&str; 8] = [
    "client.serialize_us",
    "client.round_trip_us",
    "net.transfer_us",
    "net.deserialize_us",
    "server.queue_us",
    "server.preproc_us",
    "server.inference_us",
    "server.total_us",
];

impl StageSums {
    fn add(&mut self, r: &NetResult) {
        let d = [
            r.serialize,
            r.round_trip,
            r.transfer,
            r.deserialize,
            r.queue,
            r.preproc,
            r.inference,
            r.server_total,
        ];
        for (sum, d) in self.us.iter_mut().zip(d) {
            *sum += d.as_secs_f64() * 1e6;
        }
        self.n += 1;
    }
}

/// Reply checker shared by every phase: counts and the worst golden diff.
struct Checker<'a> {
    expected: &'a [Vec<f32>],
    max_diff: f32,
}

impl Checker<'_> {
    fn check(&mut self, idx: usize, output: &[f32]) -> bool {
        let d = corpus::max_abs_diff(output, &self.expected[idx]);
        if d > self.max_diff || d.is_nan() {
            self.max_diff = d;
        }
        d <= GOLDEN_TOLERANCE
    }
}

struct Out(Vec<String>);

impl Out {
    fn v(&mut self, name: &str, value: f64) {
        self.0.push(format!("v {name} {value}"));
    }
}

/// Entry point of `vbench --epoch`: runs one epoch and prints its lines.
pub fn run_child(w: &Workload, dir: &Path, plan: &EpochPlan) -> Result<(), String> {
    let corpus = corpus::load(dir, w)?;
    let mut out = Out(Vec::new());
    match plan.mode {
        Mode::Inproc => child_inproc(w, &corpus, plan, &mut out)?,
        Mode::Wire | Mode::WireTraced => child_wire(w, &corpus, plan, &mut out)?,
    }
    out.v("peak_rss_mb", peak_rss_mb());
    println!("{}", out.0.join("\n"));
    Ok(())
}

/// When a closed loop stops submitting.
#[derive(Clone, Copy)]
enum Until {
    Elapsed(Duration),
    Attempts(u64),
}

struct Closed {
    attempted: u64,
    correct: u64,
    wall: Duration,
    cpu: Duration,
}

/// Closed loop: keeps `window` requests in flight until `until`, then drains.
/// Request `k` is numbered by `cursor`, which is left after the last one.
fn closed_phase<P>(
    window: usize,
    until: Until,
    cursor: &mut usize,
    mut submit: impl FnMut(usize) -> Option<P>,
    mut complete: impl FnMut(usize, P) -> bool,
) -> Closed {
    let cpu0 = cpu_time();
    let t0 = Instant::now();
    let (mut attempted, mut correct) = (0u64, 0u64);
    let mut inflight = VecDeque::with_capacity(window);
    let done = |attempted: u64| match until {
        Until::Elapsed(d) => t0.elapsed() >= d,
        Until::Attempts(n) => attempted >= n,
    };
    loop {
        while inflight.len() < window && !done(attempted) {
            let k = *cursor;
            *cursor += 1;
            attempted += 1;
            match submit(k) {
                Some(p) => inflight.push_back((k, p)),
                // A refused submit is a failed attempt; do not spin on a dead
                // connection.
                None => std::thread::sleep(Duration::from_millis(1)),
            }
        }
        match inflight.pop_front() {
            Some((k, p)) => correct += u64::from(complete(k, p)),
            None if done(attempted) => break,
            None => {}
        }
    }
    Closed {
        attempted,
        correct,
        wall: t0.elapsed(),
        cpu: cpu_time() - cpu0,
    }
}

fn report_closed(out: &mut Out, c: &Closed) {
    out.v("closed_attempted", c.attempted as f64);
    out.v("closed_ok", c.correct as f64);
    out.v("closed_wall_s", c.wall.as_secs_f64());
    out.v("closed_cpu_s", c.cpu.as_secs_f64());
}

fn child_inproc(w: &Workload, c: &Corpus, plan: &EpochPlan, out: &mut Out) -> Result<(), String> {
    let t0 = Instant::now();
    let server = LiveServer::start(
        w.build_model(),
        spec::live_options(w.side, Tracer::disabled()),
    );
    let n = c.images.len();
    let mut check = Checker {
        expected: &c.expected,
        max_diff: 0.0,
    };
    let mut cursor = 0;
    let mut complete = |k: usize, rx: vserve_server::live::ReplyReceiver| match rx.recv() {
        Ok(Ok(r)) => check.check(k % n, &r.output),
        _ => false,
    };
    let warm = closed_phase(
        w.window,
        Until::Attempts(w.warm_replies() as u64),
        &mut cursor,
        |k| Some(server.submit(c.images[k % n].clone())),
        &mut complete,
    );
    if warm.correct != warm.attempted {
        return Err(format!(
            "in-process warm-up: {} of {} correct",
            warm.correct, warm.attempted
        ));
    }
    out.v("setup_s", t0.elapsed().as_secs_f64());
    let closed = closed_phase(
        w.window,
        Until::Elapsed(plan.closed),
        &mut cursor,
        |k| Some(server.submit(c.images[k % n].clone())),
        &mut complete,
    );
    report_closed(out, &closed);
    out.v("golden_max_abs_diff", f64::from(check.max_diff));
    Ok(())
}

fn child_wire(w: &Workload, c: &Corpus, plan: &EpochPlan, out: &mut Out) -> Result<(), String> {
    let traced = plan.mode == Mode::WireTraced;
    let t0 = Instant::now();
    let tracer = if traced {
        Tracer::with_capacity(TRACE_RING_SPANS)
    } else {
        Tracer::disabled()
    };
    let server = NetServer::bind(w.build_model(), spec::net_options(w.side, tracer))
        .map_err(|e| format!("bind: {e}"))?;
    let client = NetClient::connect(server.local_addr(), spec::client_options())
        .map_err(|e| format!("connect: {e}"))?;
    let n = c.images.len();
    let mut check = Checker {
        expected: &c.expected,
        max_diff: 0.0,
    };
    // Wire ids are the client's submit ordinals, starting at 1; the traced
    // phase needs them to file its spans under the server's request id.
    let mut sent = 0u64;
    let mut cursor = 0;

    let warm = closed_phase(
        w.window,
        Until::Attempts(w.warm_replies() as u64),
        &mut cursor,
        |k| {
            sent += 1;
            client.submit(&c.images[k % n]).ok()
        },
        |k, p| p.wait().is_ok_and(|r| check.check(k % n, &r.output)),
    );
    if warm.correct != warm.attempted {
        return Err(format!(
            "warm-up: {} of {} correct",
            warm.correct, warm.attempted
        ));
    }
    out.v("setup_s", t0.elapsed().as_secs_f64());

    let m0 = server.metrics();
    let closed = closed_phase(
        w.window,
        Until::Elapsed(plan.closed),
        &mut cursor,
        |k| {
            sent += 1;
            client.submit(&c.images[k % n]).ok()
        },
        |k, p| p.wait().is_ok_and(|r| check.check(k % n, &r.output)),
    );
    let m1 = server.metrics();
    report_closed(out, &closed);
    let done = (m1.live.completed - m0.live.completed).max(1) as f64;
    let calls = (m1.live.forward_calls - m0.live.forward_calls).max(1) as f64;
    let (c0, c1) = (m0.live.preproc_cache, m1.live.preproc_cache);
    let forward_wall = m1
        .live
        .inference_wall
        .saturating_sub(m0.live.inference_wall);
    out.v(
        "closed_forward_wall_us",
        forward_wall.as_secs_f64() * 1e6 / calls,
    );
    out.v("server.mean_batch", done / calls);
    out.v("server.forward_calls_per_req", calls / done);
    out.v("server.cache_hit_frac", (c1.hits - c0.hits) as f64 / done);
    out.v(
        "server.cache_evictions_per_req",
        (c1.evictions - c0.evictions) as f64 / done,
    );
    out.v(
        "server.coalesced_frac",
        (c1.coalesced - c0.coalesced) as f64 / done,
    );

    if traced {
        window_one_phase(
            c,
            plan,
            &server,
            &client,
            &mut check,
            &mut sent,
            &mut cursor,
            out,
        )?;
    } else {
        let dues = arrival_offsets(w.open_rate_rps, plan.second, plan.seed, plan.index);
        let base = cursor;
        let mut stages = StageSums::default();
        let mut open_sent = 0u64;
        let open = open_loop(
            &dues,
            |k| {
                open_sent += 1;
                client.submit(&c.images[(base + k) % n]).ok()
            },
            |k, p| {
                p.wait().is_ok_and(|r| {
                    stages.add(&r);
                    check.check((base + k) % n, &r.output)
                })
            },
        );
        sent += open_sent;
        let ok = open
            .samples
            .iter()
            .filter(|s| s.latency_ms.is_finite())
            .count();
        out.v("open_attempted", open.samples.len() as f64);
        out.v("open_ok", ok as f64);
        for (name, sum) in STAGE_NAMES.iter().zip(stages.us) {
            out.v(name, sum / stages.n.max(1) as f64);
        }
        let late = stats::sorted(open.samples.iter().map(|s| s.lateness_ms).collect());
        out.v("client.lateness_p95_ms", stats::percentile(&late, 95.0));
        out.v("client.achieved_rate_frac", open.achieved_rate_frac);
        let lat: Vec<String> = open
            .samples
            .iter()
            .map(|s| s.latency_ms.to_string())
            .collect();
        out.0.push(format!("lat {}", lat.join(" ")));
    }

    let m = server.metrics();
    out.v("net.frames", m.frames as f64);
    out.v("net.bad_frames", m.bad_frames as f64);
    out.v("server.rejected", m.live.rejected as f64);
    out.v("server.expired", m.live.expired as f64);
    out.v("sent_total", sent as f64);
    out.v("golden_max_abs_diff", f64::from(check.max_diff));
    Ok(())
}

/// Length of the union of `[start, end)` intervals.
fn union_len(mut iv: Vec<(f64, f64)>) -> f64 {
    iv.sort_by(|a, b| a.0.total_cmp(&b.0));
    let (mut total, mut hi) = (0.0, f64::NEG_INFINITY);
    for (s, e) in iv {
        if e > hi {
            total += e - s.max(hi);
            hi = e;
        }
    }
    total
}

/// Traced epochs only: one request at a time, with `vbench`'s own spans around
/// its calls filed under the server's request id, then the conservation check
/// and the chrome trace.
#[allow(clippy::too_many_arguments)]
fn window_one_phase(
    c: &Corpus,
    plan: &EpochPlan,
    server: &NetServer,
    client: &NetClient,
    check: &mut Checker<'_>,
    sent: &mut u64,
    cursor: &mut usize,
    out: &mut Out,
) -> Result<(), String> {
    let n = c.images.len();
    let tr = server.tracer().register("vbench-client");
    let phase_start = Instant::now();
    let mut walls: HashMap<u64, (f64, f64)> = HashMap::new();
    let (mut attempted, mut ok) = (0u64, 0u64);
    while phase_start.elapsed() < plan.second {
        let idx = *cursor % n;
        *cursor += 1;
        *sent += 1;
        attempted += 1;
        let id = FIRST_CONN_TRACE_BASE | *sent;
        let t0 = Instant::now();
        let submitted = client.submit(&c.images[idx]);
        let t1 = Instant::now();
        let Ok(r) = submitted.and_then(|p| p.wait()) else {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        };
        let t2 = Instant::now();
        let bytes = c.images[idx].len() as u64;
        tr.span(id, CLIENT_SERIALIZE, t0, t0 + r.serialize, 0, bytes);
        tr.span(id, CLIENT_WRITE, t0 + r.serialize, t1, 0, bytes);
        tr.span(id, CLIENT_WAIT, t1, t2, 0, 0);
        walls.insert(id, (tr.secs(t0), tr.secs(t2)));
        ok += u64::from(check.check(idx, &r.output));
    }
    out.v("w1_attempted", attempted as f64);
    out.v("w1_ok", ok as f64);

    let snap = server.tracer().snapshot();
    let attributed_stage = |s: &str| {
        [
            CLIENT_SERIALIZE,
            CLIENT_WRITE,
            stages::NET_TRANSFER,
            stages::DESERIALIZE,
            stages::QUEUE,
            stages::PREPROC,
            stages::INFERENCE,
        ]
        .contains(&s)
    };
    let mut per_req: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in &snap.spans {
        if let Some(&(lo, hi)) = walls.get(&s.request_id) {
            if attributed_stage(s.stage) {
                per_req
                    .entry(s.request_id)
                    .or_default()
                    .push((s.t_start.max(lo), s.t_end.min(hi)));
            }
        }
    }
    let wall: f64 = walls.values().map(|(lo, hi)| hi - lo).sum();
    let attributed: f64 = per_req.into_values().map(union_len).sum();
    let completed = server.metrics().live.completed.max(1);
    out.v(
        "trace.unattributed_frac",
        if wall > 0.0 {
            1.0 - attributed / wall
        } else {
            1.0
        },
    );
    out.v(
        "trace.spans_per_req",
        snap.spans.len() as f64 / completed as f64,
    );
    out.v("trace.dropped_spans", snap.dropped as f64);

    if !plan.trace_out.as_os_str().is_empty() {
        // The file holds the last 50 ms of the saturated phase and the whole
        // window-1 phase: enough to see batches form and single requests
        // cross every layer, small enough to open.
        let from = tr.secs(phase_start) - 0.05;
        let view = TraceSnapshot {
            spans: snap
                .spans
                .iter()
                .filter(|s| s.t_start >= from)
                .copied()
                .collect(),
            threads: snap.threads.clone(),
            dropped: snap.dropped,
        };
        let json = vserve_trace::chrome::chrome_trace_json(&view);
        vserve_trace::chrome::validate_json(&json)
            .map_err(|e| format!("chrome trace does not validate: {e}"))?;
        std::fs::write(&plan.trace_out, json)
            .map_err(|e| format!("write {}: {e}", plan.trace_out.display()))?;
    }
    Ok(())
}

/// What the parent keeps of one epoch.
#[derive(Debug, Default, Clone)]
pub struct EpochResult {
    pub values: BTreeMap<String, f64>,
    pub latencies_ms: Vec<f64>,
}

impl EpochResult {
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }
}

pub fn parse_child_output(text: &str) -> Result<EpochResult, String> {
    let mut r = EpochResult::default();
    for line in text.lines() {
        let mut it = line.split_whitespace();
        match it.next() {
            Some("v") => {
                let (Some(name), Some(value)) = (it.next(), it.next()) else {
                    return Err(format!("bad value line {line:?}"));
                };
                let value = value.parse().map_err(|e| format!("{line:?}: {e}"))?;
                r.values.insert(name.to_owned(), value);
            }
            Some("lat") => {
                for v in it {
                    r.latencies_ms
                        .push(v.parse().map_err(|e| format!("latency {v:?}: {e}"))?);
                }
            }
            _ => {}
        }
    }
    if r.values.is_empty() {
        return Err("child printed no values".into());
    }
    Ok(r)
}

/// Runs `cmd` to completion or kills it at `timeout`; a non-zero exit, a
/// timeout and unparsable output are all errors the caller counts as a failed
/// epoch.
pub fn spawn(mut cmd: Command, timeout: Duration) -> Result<EpochResult, String> {
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().expect("stdout was piped");
    // Read on a thread so a child that fills the pipe cannot deadlock the wait.
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        stdout.read_to_string(&mut s).map(|_| s)
    });
    let deadline = Instant::now() + timeout;
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => break None,
            None => std::thread::sleep(Duration::from_millis(5)),
        }
    };
    if status.is_none() {
        let _ = child.kill();
        let _ = child.wait();
    }
    let text = reader
        .join()
        .map_err(|_| "child output reader panicked".to_owned())?
        .map_err(|e| format!("read child output: {e}"))?;
    match status {
        None => Err(format!(
            "timed out after {:.1} s and was killed",
            timeout.as_secs_f64()
        )),
        Some(s) if !s.success() => Err(format!("exited with {s}")),
        Some(_) => parse_child_output(&text),
    }
}

/// The command line that runs one epoch of `w` in a fresh process.
pub fn child_command(exe: &Path, w: &Workload, dir: &Path, plan: &EpochPlan) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("--epoch")
        .args(["--workload", w.name])
        .arg("--corpus")
        .arg(dir)
        .args(["--mode", plan.mode.name()])
        .args(["--index", &plan.index.to_string()])
        .args(["--seed", &plan.seed.to_string()])
        .args(["--closed-ms", &plan.closed.as_millis().to_string()])
        .args(["--second-ms", &plan.second.as_millis().to_string()]);
    if !plan.trace_out.as_os_str().is_empty() {
        cmd.arg("--trace-out").arg(&plan.trace_out);
    }
    cmd
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_charges_a_stalled_sender_to_the_requests_due_meanwhile() {
        // 20 requests due every 5 ms; the sender stalls 60 ms while submitting
        // request 3 (due at 15 ms). Replies are instant.
        let dues: Vec<Duration> = (0..20).map(|k| Duration::from_millis(5 * k)).collect();
        let out = open_loop(
            &dues,
            |k| {
                if k == 3 {
                    std::thread::sleep(Duration::from_millis(60));
                }
                Some(())
            },
            |_, ()| true,
        );
        assert_eq!(out.samples.len(), 20);
        // Before the stall: on time.
        assert!(
            out.samples[1].latency_ms < 20.0,
            "{}",
            out.samples[1].latency_ms
        );
        // Request 4 was due at 20 ms but could only go out at ~75 ms: it is
        // charged ~55 ms although its own reply was instant.
        assert!(
            out.samples[4].latency_ms >= 50.0,
            "{}",
            out.samples[4].latency_ms
        );
        assert!(out.samples[4].lateness_ms >= 50.0);
        // Request 10 (due 50 ms) still pays ~25 ms of the stall.
        assert!(
            out.samples[10].latency_ms >= 20.0,
            "{}",
            out.samples[10].latency_ms
        );
        // Well after the stall the generator is back on schedule.
        assert!(
            out.samples[19].lateness_ms < 20.0,
            "{}",
            out.samples[19].lateness_ms
        );
        // The stalled request itself was submitted on time.
        assert!(out.samples[3].lateness_ms < 20.0);
    }

    #[test]
    fn open_loop_counts_failed_and_wrong_replies_beyond_every_percentile() {
        let dues = vec![Duration::ZERO; 4];
        let out = open_loop(&dues, |k| (k != 1).then_some(k), |_, k| k != 2);
        let lat: Vec<f64> = out.samples.iter().map(|s| s.latency_ms).collect();
        assert!(lat[0].is_finite() && lat[3].is_finite());
        assert_eq!(lat[1], f64::INFINITY, "refused submit");
        assert_eq!(lat[2], f64::INFINITY, "wrong reply");
    }

    #[test]
    fn arrivals_are_seeded_and_inside_the_span() {
        let a = arrival_offsets(500.0, Duration::from_secs(1), 7, 2);
        let b = arrival_offsets(500.0, Duration::from_secs(1), 7, 2);
        let c = arrival_offsets(500.0, Duration::from_secs(1), 7, 3);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert!(a.len() > 400 && a.len() < 600, "{}", a.len());
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < Duration::from_secs(1));
    }

    #[test]
    fn crashed_and_hung_children_are_errors_not_silence() {
        let mut crash = Command::new("sh");
        crash.args(["-c", "echo 'v setup_s 1'; exit 3"]);
        let err = spawn(crash, Duration::from_secs(5)).unwrap_err();
        assert!(err.contains("exited"), "{err}");

        let mut hang = Command::new("sh");
        hang.args(["-c", "exec sleep 30"]);
        let t0 = Instant::now();
        let err = spawn(hang, Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("timed out"), "{err}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "the hung child was killed"
        );

        let mut fine = Command::new("sh");
        fine.args(["-c", "echo 'v setup_s 0.5'; echo 'lat 1.5 inf'"]);
        let r = spawn(fine, Duration::from_secs(5)).unwrap();
        assert_eq!(r.get("setup_s"), 0.5);
        assert_eq!(r.latencies_ms, vec![1.5, f64::INFINITY]);
    }

    #[test]
    fn union_len_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(vec![(0.0, 5.0), (1.0, 2.0)]), 5.0);
        assert_eq!(union_len(vec![]), 0.0);
    }
}
