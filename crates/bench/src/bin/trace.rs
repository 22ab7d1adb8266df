//! Tracing benchmark: recording overhead and a committed example trace.
//!
//! Two deliverables from one seeded run of the live server:
//!
//! * **Overhead** — pipelined live-server throughput with the span ring
//!   enabled vs `Tracer::disabled()` (the runtime no-op), interleaved
//!   best-of-N rounds, appended as JSON lines to `BENCH_trace.json`
//!   (override with `--out PATH`). The `noop_build` row is the
//!   `vserve-trace` `off` feature, which compiles every recording call to
//!   nothing — its overhead is 0% by construction and is recorded as such.
//! * **Example trace** — a chrome://tracing-loadable JSON timeline of a
//!   seeded traced run, validated with the crate's strict JSON parser
//!   before it is written to `TRACE_example.json` (override with
//!   `--trace-out PATH`), plus a printed reconciliation table showing the
//!   per-stage span sums against the server's bookkept `StageBreakdown`.
//!
//! `--smoke` shrinks request counts/rounds to CI-wiring size.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use vserve_device::ImageSpec;
use vserve_dnn::{models, Model};
use vserve_server::live::{LiveOptions, LiveServer};
use vserve_server::stages;
use vserve_trace::{chrome, Tracer};
use vserve_workload::synthetic_jpeg;

const SIDE: usize = 32;

/// One timed variant, serialized as a JSON line.
struct Record {
    bench: &'static str,
    variant: &'static str,
    shape: String,
    threads: usize,
    secs: f64,
    rate: f64,
    rate_unit: &'static str,
    overhead_pct: f64,
}

impl Record {
    fn json(&self, host_cores: usize, smoke: bool) -> String {
        format!(
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"shape\":\"{}\",\"threads\":{},\
             \"secs\":{:.6},\"{}\":{:.3},\"overhead_pct\":{:.3},\
             \"host_cores\":{},\"smoke\":{}}}",
            self.bench,
            self.variant,
            self.shape,
            self.threads,
            self.secs,
            self.rate_unit,
            self.rate,
            self.overhead_pct,
            host_cores,
            smoke
        )
    }
}

fn model() -> Model {
    Model::from_graph(models::micro_cnn(SIDE, 10).expect("graph"), 13)
}

fn live_opts(trace: Tracer) -> LiveOptions {
    LiveOptions {
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
    }
}

/// Pipelined throughput (requests/s) of one fresh server over `payloads`.
fn throughput_run(trace: Tracer, payloads: &[Vec<u8>]) -> f64 {
    let server = LiveServer::start(model(), live_opts(trace));
    for p in payloads.iter().take(8) {
        server.infer(p.clone()).expect("warm-up");
    }
    let t0 = Instant::now();
    let pending: Vec<_> = payloads.iter().map(|p| server.submit(p.clone())).collect();
    for rx in pending {
        rx.recv().expect("reply").expect("infer");
    }
    payloads.len() as f64 / t0.elapsed().as_secs_f64()
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let arg_after = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out_path = arg_after("--out").unwrap_or_else(|| "BENCH_trace.json".to_string());
    let trace_out = arg_after("--trace-out").unwrap_or_else(|| "TRACE_example.json".to_string());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let (n_requests, rounds) = if smoke { (40usize, 2usize) } else { (160, 5) };
    let (w, h) = (256usize, 192usize);
    let payloads: Vec<Vec<u8>> = (0..n_requests as u64)
        .map(|i| synthetic_jpeg(&ImageSpec::new(w, h, 0), i))
        .collect();
    let shape = format!("{w}x{h}x{n_requests}");

    // --- Overhead: interleaved best-of-`rounds` enabled vs disabled. ---
    let mut best_off: f64 = 0.0;
    let mut best_on: f64 = 0.0;
    for _ in 0..rounds {
        best_off = best_off.max(throughput_run(Tracer::disabled(), &payloads));
        best_on = best_on.max(throughput_run(Tracer::with_capacity(1 << 16), &payloads));
    }
    let overhead_pct = (1.0 - best_on / best_off) * 100.0;
    let records = vec![
        Record {
            bench: "trace",
            variant: "disabled",
            shape: shape.clone(),
            threads: 4,
            secs: n_requests as f64 / best_off,
            rate: best_off,
            rate_unit: "rps",
            overhead_pct: 0.0,
        },
        Record {
            bench: "trace",
            variant: "enabled",
            shape: shape.clone(),
            threads: 4,
            secs: n_requests as f64 / best_on,
            rate: best_on,
            rate_unit: "rps",
            overhead_pct,
        },
        // The `off` feature removes recording at compile time; by
        // construction it costs exactly what `disabled` costs minus the
        // (already unmeasurable) branch, so its overhead is definitionally
        // zero.
        Record {
            bench: "trace",
            variant: "noop_build",
            shape: shape.clone(),
            threads: 4,
            secs: n_requests as f64 / best_off,
            rate: best_off,
            rate_unit: "rps",
            overhead_pct: 0.0,
        },
    ];

    // --- Example trace: a small seeded traced run, exported + validated. ---
    let tracer = Tracer::with_capacity(1 << 16);
    let server = LiveServer::start(model(), live_opts(tracer.clone()));
    let trace_n = if smoke { 12u64 } else { 24 };
    for i in 0..trace_n {
        server
            .infer(synthetic_jpeg(&ImageSpec::new(400, 300, 0), 1000 + i))
            .expect("traced infer");
    }
    let metrics = server.metrics();
    drop(server); // join workers so the snapshot holds the complete run
    let snap = tracer.snapshot();
    let json = chrome::chrome_trace_json(&snap);
    chrome::validate_json(&json).expect("chrome trace must be valid JSON");
    std::fs::write(&trace_out, &json).expect("write example trace");

    // Reconciliation: span sums vs the server's own breakdown.
    let mut table = String::new();
    let _ = writeln!(
        table,
        "{:<14} {:>12} {:>12} {:>10}",
        "stage", "span_sum_s", "breakdown_s", "delta"
    );
    for stage in [stages::QUEUE, stages::PREPROC, stages::INFERENCE] {
        let spans = snap.stage_total(stage);
        let book = metrics.breakdown.total(stage);
        assert!(
            (spans - book).abs() <= 1e-6 * book.max(1e-9) + 1e-9,
            "{stage}: span sum {spans} != breakdown {book}"
        );
        let _ = writeln!(
            table,
            "{:<14} {:>12.6} {:>12.6} {:>10.2e}",
            stage,
            spans,
            book,
            spans - book
        );
    }
    print!("{table}");
    println!(
        "trace: {} spans / {} threads, dropped={}, wrote {trace_out}",
        snap.spans.len(),
        snap.threads.len(),
        snap.dropped
    );

    println!(
        "throughput: disabled {best_off:.1} rps, enabled {best_on:.1} rps \
         (overhead {overhead_pct:.2}%)"
    );
    if !smoke {
        assert!(
            overhead_pct <= 3.0,
            "tracing overhead over budget: {overhead_pct:.2}%"
        );
    }

    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .expect("open bench output");
    for r in &records {
        writeln!(file, "{}", r.json(host_cores, smoke)).expect("write bench output");
    }
    println!(
        "appended {} records to {out_path} (host_cores={host_cores} smoke={smoke})",
        records.len()
    );
}
