//! Differential sim↔live suite pinned by request-level tracing.
//!
//! The live server and the discrete-event simulator describe the same
//! pipeline; these tests hold them to that. A seeded workload runs
//! through the *real* `LiveServer` (traced), the measured per-stage
//! costs calibrate a `ServerConfig` replay, and the per-stage time
//! *shares* must agree stage-by-stage — upgrading the old single-assert
//! smoke test (`live_preproc_share_grows_with_image_size`) into a full
//! breakdown comparison. The same trace infrastructure is pinned here
//! end-to-end: span sums reconcile with the bookkept `StageBreakdown`,
//! the chrome-trace export stays loadable, recording is structurally
//! deterministic, and the overhead of tracing stays within budget.

use std::time::{Duration, Instant};

use vserve_device::{CpuModel, GpuModel, ImageSpec, NodeConfig};
use vserve_dnn::{models, Model};
use vserve_server::live::{LiveOptions, LiveServer};
use vserve_server::{stages, Experiment, ModelProfile, ServerConfig};
use vserve_trace::{chrome, Tracer};
use vserve_workload::{synthetic_jpeg, ImageMix};

const SIDE: usize = 32;

fn model(seed: u64) -> Model {
    Model::from_graph(models::micro_cnn(SIDE, 4).expect("valid graph"), seed)
}

/// Single-lane options: one worker per stage, batch 1, no batcher wait,
/// cache off — every request pays its own full preprocessing cost, so
/// live stage means are directly comparable with the simulator's
/// per-request charges.
fn single_lane(trace: Tracer) -> LiveOptions {
    LiveOptions {
        preproc_workers: 1,
        inference_workers: 1,
        max_batch: 1,
        max_queue_delay: Duration::ZERO,
        input_side: SIDE,
        backend_threads: 1,
        preproc_cache_mb: Some(0),
        coalesce: false,
        trace,
        ..LiveOptions::default()
    }
}

fn payload(w: usize, h: usize, seed: u64) -> Vec<u8> {
    synthetic_jpeg(&ImageSpec::new(w, h, 0), seed)
}

/// Measured live stage means for one image size on a fresh server.
struct LiveArm {
    queue_share: f64,
    preproc_share: f64,
    inference_share: f64,
    preproc_mean: f64,
    inference_mean: f64,
}

fn run_live_arm(w: usize, h: usize) -> LiveArm {
    // Warm caches and code paths on a throwaway server, then measure on
    // fresh ones so the breakdown holds only steady-state requests.
    let warm = LiveServer::start(model(13), single_lane(Tracer::disabled()));
    for i in 0..2u64 {
        warm.infer(payload(w, h, 900 + i)).expect("warm-up");
    }
    drop(warm);
    // A scheduler stall (a slow cross-thread wakeup) only ever *adds*
    // time, and one multi-millisecond stall can dominate a short arm's
    // queue mean. Run three independent arms and keep the least-stalled
    // one — the minimum-queue-share arm is the closest measurement of the
    // pipeline's steady state.
    let mut best: Option<LiveArm> = None;
    for arm in 0..3u64 {
        let server = LiveServer::start(model(13), single_lane(Tracer::disabled()));
        for i in 0..16u64 {
            server
                .infer(payload(w, h, 100 * (arm + 1) + i))
                .expect("infer");
        }
        let s = server.metrics().summary();
        let cand = LiveArm {
            queue_share: s.queue_share(),
            preproc_share: s.preproc_share(),
            inference_share: s.inference_share(),
            preproc_mean: s.breakdown.mean(stages::PREPROC),
            inference_mean: s.breakdown.mean(stages::INFERENCE),
        };
        if best
            .as_ref()
            .map_or(true, |b| cand.queue_share < b.queue_share)
        {
            best = Some(cand);
        }
    }
    best.expect("at least one arm")
}

/// A simulator node calibrated so a request costs exactly the live
/// server's measured mean preprocessing and inference time: every
/// per-pixel/per-byte coefficient is zeroed and the measured means are
/// planted as the fixed per-request costs. Dispatch and staging are made
/// negligible — the live path has no analogue of either at batch 1.
fn calibrated_node(preproc_s: f64, inference_s: f64) -> NodeConfig {
    let testbed = NodeConfig::paper_testbed();
    NodeConfig {
        cpu: CpuModel {
            decode_fixed_s: preproc_s,
            decode_s_per_px: 0.0,
            decode_s_per_byte: 0.0,
            resize_s_per_src_px: 0.0,
            resize_s_per_dst_px: 0.0,
            normalize_s_per_px: 0.0,
            dispatch_fixed_s: 1e-9,
            dispatch_s_per_byte: 0.0,
            staging_bytes_per_s: 1e18,
            rpc_fixed_s: 0.0,
            serialize_bytes_per_s: 1e18,
            ..testbed.cpu
        },
        gpu: GpuModel {
            launch_s: inference_s,
            peak_flops: 1e18,
            batch_half_sat: 1e-6,
            pcie_bytes_per_s: 1e18,
            interference: 0.0,
            ..testbed.gpu
        },
        gpu_count: 1,
    }
}

fn calibrated_sim(w: usize, h: usize, live: &LiveArm) -> Experiment {
    Experiment {
        node: calibrated_node(live.preproc_mean, live.inference_mean),
        config: ServerConfig {
            preproc_workers: 1,
            instances_per_gpu: 1,
            max_batch: 1,
            max_queue_delay_s: 1e-6,
            ..ServerConfig::optimized_cpu_preproc()
        },
        model: ModelProfile::new("live-micro", 1.0, SIDE),
        mix: ImageMix::fixed(ImageSpec::new(w, h, 0)),
        concurrency: 1,
        warmup_s: 0.3,
        measure_s: 3.0,
        seed: 77,
    }
}

/// The tentpole differential assertion: for three image sizes, the live
/// server's per-stage time shares and a calibrated sim replay's shares
/// agree stage-by-stage, and *both* reproduce the paper's headline shape
/// (preprocessing share grows with image size).
#[test]
fn sim_and_live_stage_shares_agree_stage_by_stage() {
    const TOL: f64 = 0.12;
    let sizes = [(96usize, 80usize), (400, 300), (1280, 960)];
    let mut live_pre = Vec::new();
    let mut sim_pre = Vec::new();
    for &(w, h) in &sizes {
        let live = run_live_arm(w, h);
        let sim = calibrated_sim(w, h, &live).run();
        let pairs = [
            ("queue", live.queue_share, sim.queue_share()),
            ("preproc", live.preproc_share, sim.preproc_share()),
            ("inference", live.inference_share, sim.inference_share()),
        ];
        for (name, l, s) in pairs {
            assert!(
                (l - s).abs() < TOL,
                "{w}x{h} {name} share: live {l:.3} vs sim {s:.3}"
            );
        }
        live_pre.push(live.preproc_share);
        sim_pre.push(sim.preproc_share());
    }
    assert!(
        live_pre[0] < live_pre[1] && live_pre[1] < live_pre[2],
        "live preproc share must grow with image size: {live_pre:?}"
    );
    assert!(
        sim_pre[0] < sim_pre[1] && sim_pre[1] < sim_pre[2],
        "sim preproc share must grow with image size: {sim_pre:?}"
    );
}

/// Span sums reconcile with the bookkept breakdown: for a shed-free
/// traced run, the per-stage sum of recorded spans equals the
/// `StageBreakdown` total (same `Instant`s, floating rounding only), and
/// span counts match the documented cardinalities (two queue spans per
/// request: ingress wait + batch wait).
#[test]
fn trace_spans_reconcile_with_live_breakdown() {
    let tracer = Tracer::with_capacity(1 << 16);
    let server = LiveServer::start(model(13), single_lane(tracer.clone()));
    let n = 30u64;
    for i in 0..n {
        server.infer(payload(200, 150, 500 + i)).expect("infer");
    }
    let m = server.metrics();
    assert_eq!(m.completed, n);
    // Dropping the server joins every worker thread, so the snapshot is
    // guaranteed to hold the full run (the respond event of the final
    // batch is recorded after its replies are sent).
    drop(server);
    let snap = tracer.snapshot();
    assert_eq!(snap.dropped, 0, "ring must not drop in a sized run");
    for stage in [stages::QUEUE, stages::PREPROC, stages::INFERENCE] {
        let spans = snap.stage_total(stage);
        let book = m.breakdown.total(stage);
        assert!(
            (spans - book).abs() <= 1e-6 * book.max(1e-9) + 1e-9,
            "{stage}: span sum {spans:.9} vs breakdown {book:.9}"
        );
    }
    assert_eq!(snap.stage_count(stages::QUEUE), 2 * n);
    assert_eq!(snap.stage_count(stages::PREPROC), n);
    assert_eq!(snap.stage_count(stages::INFERENCE), n);
}

/// The chrome-trace export of a real run parses as strict JSON and never
/// contains NaN or negative timestamps/durations.
#[test]
fn chrome_export_of_live_run_is_loadable() {
    let tracer = Tracer::with_capacity(1 << 14);
    let server = LiveServer::start(model(13), single_lane(tracer.clone()));
    for i in 0..8u64 {
        server.infer(payload(160, 120, 700 + i)).expect("infer");
    }
    drop(server); // join workers: snapshot sees the complete run
    let json = chrome::chrome_trace_json(&tracer.snapshot());
    chrome::validate_json(&json).expect("chrome trace must be valid JSON");
    assert!(json.contains("\"traceEvents\""));
    assert!(!json.contains("NaN"));
    assert!(!json.contains("\"ts\":-"));
    assert!(!json.contains("\"dur\":-"));
}

/// Structural view of one span: what happened, where, in which batch —
/// everything except wall-clock times, which legitimately vary.
type SpanShape = (u64, &'static str, String, u64, u64);

fn structural_run(seed: u64) -> (usize, Vec<SpanShape>) {
    let tracer = Tracer::with_capacity(1 << 14);
    let server = LiveServer::start(model(seed), single_lane(tracer.clone()));
    for i in 0..10u64 {
        server.infer(payload(120, 90, 300 + i)).expect("infer");
    }
    drop(server); // join workers: snapshot sees the complete run
    let snap = tracer.snapshot();
    let mut shape: Vec<SpanShape> = snap
        .spans
        .iter()
        .map(|s| {
            (
                s.request_id,
                s.stage,
                snap.thread_name(s.thread).unwrap_or("?").to_owned(),
                s.batch_id,
                u64::from(s.is_event()),
            )
        })
        .collect();
    // Wall-clock order of equal-time neighbors can vary; the structural
    // identity is the multiset keyed by request, stage, and batch.
    shape.sort();
    (snap.spans.len(), shape)
}

/// Golden-trace determinism: the same seeded workload on a single-lane
/// server records a structurally identical span tree on every run — same
/// span count, same stages per request, same thread names and batch ids.
#[test]
fn golden_trace_is_structurally_deterministic() {
    let (count_a, shape_a) = structural_run(13);
    let (count_b, shape_b) = structural_run(13);
    assert_eq!(count_a, count_b, "span count must be deterministic");
    assert_eq!(shape_a, shape_b, "span structure must be deterministic");
    // Spot-check the expected cardinalities: 10 requests on a batch-1
    // lane → 10 batch-flush events with batch ids 1..=10.
    let flushes: Vec<u64> = shape_a
        .iter()
        .filter(|s| s.1 == "batch-flush")
        .map(|s| s.3)
        .collect();
    assert_eq!(flushes, (1..=10).collect::<Vec<u64>>());
}

/// Tracing-overhead regression: with the ring enabled, pipelined
/// throughput stays within 3% of the disabled baseline (best-of-five
/// interleaved rounds to damp scheduler noise; the whole comparison
/// retries up to three times because single-core CI boxes still flake
/// past best-of-five — a real overhead regression fails every attempt).
#[test]
fn tracing_overhead_within_three_percent() {
    let payloads: Vec<Vec<u8>> = (0..120u64).map(|i| payload(256, 192, i)).collect();
    let opts = |trace: Tracer| LiveOptions {
        preproc_workers: 2,
        inference_workers: 1,
        max_batch: 4,
        max_queue_delay: Duration::from_micros(500),
        input_side: SIDE,
        backend_threads: 1,
        preproc_cache_mb: Some(0),
        coalesce: false,
        trace,
        ..LiveOptions::default()
    };
    let run = |trace: Tracer| -> f64 {
        let server = LiveServer::start(model(13), opts(trace));
        for p in &payloads[..8] {
            server.infer(p.clone()).expect("warm-up");
        }
        let t0 = Instant::now();
        let pending: Vec<_> = payloads.iter().map(|p| server.submit(p.clone())).collect();
        for rx in pending {
            rx.recv().expect("reply").expect("infer");
        }
        payloads.len() as f64 / t0.elapsed().as_secs_f64()
    };
    let mut last = (0.0f64, 0.0f64);
    for attempt in 0..3 {
        // Fresh bests per attempt: one lucky spike in the disabled arm
        // must not set a bar every later attempt has to clear.
        let mut best_off: f64 = 0.0;
        let mut best_on: f64 = 0.0;
        for _ in 0..5 {
            best_off = best_off.max(run(Tracer::disabled()));
            best_on = best_on.max(run(Tracer::with_capacity(1 << 16)));
        }
        if best_on >= 0.97 * best_off {
            return;
        }
        eprintln!(
            "attempt {attempt}: enabled {best_on:.1} rps vs disabled {best_off:.1} rps, retrying"
        );
        last = (best_on, best_off);
    }
    panic!(
        "tracing overhead over budget: enabled {:.1} rps vs disabled {:.1} rps",
        last.0, last.1
    );
}
