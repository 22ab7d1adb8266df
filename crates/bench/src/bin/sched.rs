//! Multi-tenant scheduling benchmark: SLO isolation under best-effort
//! flood, DRR fairness, and the deterministic sim mirror.
//!
//! Three sections:
//!
//! * `live` — one latency-critical (LC) tenant paced at a fixed fraction
//!   of the host's measured capacity while a best-effort (BE) tenant
//!   floods at ≥2× the LC rate. Three variants share the schedule:
//!   `solo` (LC alone, the isolation baseline), `single-lane` (both
//!   workloads through one unbounded FIFO lane — the pre-scheduler
//!   server), and `multi-lane` (per-tenant lanes, LC at high priority,
//!   BE at low). The acceptance bar is the tentpole claim: the LC p99
//!   under flood stays within 2× of its solo p99 once lanes isolate it.
//! * `drr` — the weighted-fair picker driven directly over always-ready
//!   lanes for a deterministic share sweep (1:1, 2:1, 4:1, and a 3-lane
//!   mix); dispatched-cost shares must land within 10 % of the weight
//!   ratios.
//! * `sim` — the two-lane discrete-event mirror replayed twice: per-lane
//!   rows must be bit-identical across replays, and co-locating the BE
//!   lane must inflate LC queueing versus the solo sim.
//!
//! Results are printed as a table and appended as JSON lines to
//! `BENCH_sched.json` (override with `--out PATH`). `--smoke` shrinks the
//! live schedule to a CI pulse-check and skips the live timing bars; the
//! `drr` and `sim` sections are deterministic and always enforced. The
//! live section is retried on fresh servers (up to 3 attempts) when a
//! host stall lands on an attempt, the same policy the tune bench uses on
//! shared 1-core containers.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use vserve_device::{ImageSpec, NodeConfig};
use vserve_dnn::{models, Model};
use vserve_sched::{DrrPicker, LaneView, Priority, TenantSpec};
use vserve_server::live::{LiveOptions, LiveServer, Request, Target};
use vserve_server::{Experiment, ModelProfile, ServerConfig};
use vserve_workload::{synthetic_jpeg, ImageMix};

/// Heavy enough (~1 ms inference on the reference container) that batch
/// scheduling, not per-request constant overhead, dominates the contrast.
const MODEL_SIDE: usize = 160;

struct Record {
    section: &'static str,
    variant: String,
    /// Offered LC rate (live) or replay index (sim), as labeled.
    rate: f64,
    lc_p99_s: f64,
    lc_mean_s: f64,
    lc_completed: usize,
    lc_shed: usize,
    be_completed: usize,
    be_shed: usize,
    /// DRR section only: measured vs expected share of lane 0.
    share_measured: f64,
    share_expected: f64,
    attempt: usize,
}

impl Record {
    fn json(&self, host_cores: usize, smoke: bool) -> String {
        format!(
            "{{\"bench\":\"sched\",\"section\":\"{}\",\"variant\":\"{}\",\
             \"offered_per_s\":{:.1},\"lc_p99_s\":{:.6},\"lc_mean_s\":{:.6},\
             \"lc_completed\":{},\"lc_shed\":{},\"be_completed\":{},\"be_shed\":{},\
             \"share_measured\":{:.4},\"share_expected\":{:.4},\"attempt\":{},\
             \"host_cores\":{},\"smoke\":{}}}",
            self.section,
            self.variant,
            self.rate,
            self.lc_p99_s,
            self.lc_mean_s,
            self.lc_completed,
            self.lc_shed,
            self.be_completed,
            self.be_shed,
            self.share_measured,
            self.share_expected,
            self.attempt,
            host_cores,
            smoke
        )
    }
}

fn tiny_model() -> Model {
    Model::from_graph(models::micro_cnn(MODEL_SIDE, 10).expect("micro_cnn"), 7)
}

fn live_opts(tenants: Vec<TenantSpec>) -> LiveOptions {
    LiveOptions {
        preproc_workers: 2,
        inference_workers: 1,
        max_batch: 8,
        max_queue_delay: Duration::from_millis(1),
        input_side: MODEL_SIDE,
        queue_cap: 256,
        backend_threads: 1,
        tenants,
        ..LiveOptions::default()
    }
}

/// Closed-loop capacity estimate (images/s) for the pacing baseline.
fn calibrate_capacity(jpegs: &[Vec<u8>], smoke: bool) -> f64 {
    let server = LiveServer::start(tiny_model(), live_opts(Vec::new()));
    let reqs = if smoke { 40 } else { 160 };
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for c in 0..2 {
            let server = &server;
            s.spawn(move || {
                for i in 0..reqs {
                    let _ = server.infer(jpegs[(c + i) % jpegs.len()].clone());
                }
            });
        }
    });
    (2 * reqs) as f64 / t0.elapsed().as_secs_f64()
}

struct SideStats {
    lats: Vec<f64>,
    shed: usize,
}

/// Paces `rate` submissions/s into `lane` for `dur`, open loop, then
/// drains. Latencies are server-measured round trips.
fn pace_lane(server: &LiveServer, lane: usize, rate: f64, dur: Duration) -> SideStats {
    let jpeg = synthetic_jpeg(&ImageSpec::new(224, 224, 0), lane as u64);
    let total = (rate * dur.as_secs_f64()).max(1.0) as usize;
    let t0 = Instant::now();
    let mut rxs = Vec::with_capacity(total);
    for i in 0..total {
        let target = Duration::from_secs_f64(i as f64 / rate);
        let elapsed = t0.elapsed();
        if elapsed < target {
            std::thread::sleep(target - elapsed);
        }
        rxs.push(server.submit_request(to_lane(lane, jpeg.clone())));
    }
    let mut lats = Vec::with_capacity(total);
    let mut shed = 0usize;
    for rx in rxs {
        match rx.recv() {
            Ok(Ok(r)) => lats.push(r.total.as_secs_f64()),
            _ => shed += 1,
        }
    }
    SideStats { lats, shed }
}

fn to_lane(lane: usize, jpeg: Vec<u8>) -> Request<'static> {
    Request {
        target: Target::Lane(lane),
        ..Request::new(jpeg)
    }
}

/// Warms every lane of a fresh server (cold caches and first-forward
/// costs land on the warmup, not a measured tail).
fn warm(server: &LiveServer, lanes: &[usize]) {
    let jpeg = synthetic_jpeg(&ImageSpec::new(224, 224, 0), 99);
    for _ in 0..4 {
        let rxs: Vec<_> = lanes
            .iter()
            .map(|&l| server.submit_request(to_lane(l, jpeg.clone())))
            .collect();
        for rx in rxs {
            let _ = rx.recv();
        }
    }
}

fn p99(lats: &[f64]) -> f64 {
    let mut sorted = lats.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    sorted
        .get(((sorted.len() as f64) * 0.99) as usize)
        .or(sorted.last())
        .copied()
        .unwrap_or(0.0)
}

fn mean(lats: &[f64]) -> f64 {
    lats.iter().sum::<f64>() / lats.len().max(1) as f64
}

struct FloodOutcome {
    lc: SideStats,
    be: SideStats,
}

/// LC paced on this thread, BE flood paced on its own thread — the two
/// tenants offer load concurrently, as real co-located clients would.
fn run_flood(
    server: &LiveServer,
    lc_lane: usize,
    be_lane: usize,
    lc_rate: f64,
    be_rate: f64,
    dur: Duration,
) -> FloodOutcome {
    std::thread::scope(|s| {
        let be = s.spawn(move || pace_lane(server, be_lane, be_rate, dur));
        let lc = pace_lane(server, lc_lane, lc_rate, dur);
        FloodOutcome {
            lc,
            be: be.join().expect("be pacer"),
        }
    })
}

struct LiveOutcome {
    solo_p99: f64,
    single_p99: f64,
    multi_p99: f64,
}

/// One full pass of the live schedule on fresh servers.
fn live_section(
    records: &mut Vec<Record>,
    capacity: f64,
    dur: Duration,
    attempt: usize,
) -> LiveOutcome {
    println!(
        "\n--- live: solo vs single-lane vs multi-lane under BE flood (attempt {attempt}) ---"
    );
    let lc_rate = 0.20 * capacity;
    // The flood: 3× the LC rate (the bar requires ≥2×), pushing the
    // co-located total to ~80 % of closed-loop capacity.
    let be_rate = 3.0 * lc_rate;
    let mut push = |variant: &str, lc: &SideStats, be: &SideStats| {
        let r = Record {
            section: "live",
            variant: variant.to_string(),
            rate: lc_rate,
            lc_p99_s: p99(&lc.lats),
            lc_mean_s: mean(&lc.lats),
            lc_completed: lc.lats.len(),
            lc_shed: lc.shed,
            be_completed: be.lats.len(),
            be_shed: be.shed,
            share_measured: 0.0,
            share_expected: 0.0,
            attempt,
        };
        println!(
            "  {variant:<12} lc p99 {:>8.2} ms mean {:>8.2} ms done {:>5} shed {:>4} | \
             be done {:>5} shed {:>4}",
            r.lc_p99_s * 1e3,
            r.lc_mean_s * 1e3,
            r.lc_completed,
            r.lc_shed,
            r.be_completed,
            r.be_shed,
        );
        let out = r.lc_p99_s;
        records.push(r);
        out
    };

    // Solo: the LC tenant alone on a fresh single-lane server.
    let solo_srv = LiveServer::start(tiny_model(), live_opts(Vec::new()));
    warm(&solo_srv, &[0]);
    let solo = pace_lane(&solo_srv, 0, lc_rate, dur);
    let none = SideStats {
        lats: Vec::new(),
        shed: 0,
    };
    let solo_p99 = push("solo", &solo, &none);
    drop(solo_srv);

    // Single lane: both workloads share one unbounded FIFO — the BE flood
    // queues ahead of LC requests and drags its tail out.
    let single_srv = LiveServer::start(tiny_model(), live_opts(Vec::new()));
    warm(&single_srv, &[0]);
    let single = run_flood(&single_srv, 0, 0, lc_rate, be_rate, dur);
    let single_p99 = push("single-lane", &single.lc, &single.be);
    drop(single_srv);

    // Multi-lane: per-tenant lanes, LC strictly above BE.
    let multi_srv = LiveServer::start(
        tiny_model(),
        live_opts(vec![
            TenantSpec::new("lc", "default")
                .priority(Priority::High)
                .weight(4.0),
            TenantSpec::new("be", "default").priority(Priority::Low),
        ]),
    );
    let lc_lane = multi_srv.lane_of("lc").expect("lc lane");
    let be_lane = multi_srv.lane_of("be").expect("be lane");
    warm(&multi_srv, &[lc_lane, be_lane]);
    let multi = run_flood(&multi_srv, lc_lane, be_lane, lc_rate, be_rate, dur);
    let multi_p99 = push("multi-lane", &multi.lc, &multi.be);
    let lanes = multi_srv.metrics().lanes;
    println!(
        "  lanes: {} completed {} shed {} | {} completed {} shed {}",
        lanes[0].name,
        lanes[0].completed,
        lanes[0].shed,
        lanes[1].name,
        lanes[1].completed,
        lanes[1].shed
    );

    LiveOutcome {
        solo_p99,
        single_p99,
        multi_p99,
    }
}

/// Deterministic DRR share sweep: always-ready lanes dispatched until the
/// total cost passes a fixed budget; shares must track weights.
fn drr_section(records: &mut Vec<Record>) -> Vec<(String, f64, f64)> {
    println!("\n--- drr: weighted-fair share sweep (deterministic) ---");
    let cases: Vec<(String, Vec<f64>)> = vec![
        ("1:1".into(), vec![1.0, 1.0]),
        ("2:1".into(), vec![2.0, 1.0]),
        ("4:1".into(), vec![4.0, 1.0]),
        ("4:2:1".into(), vec![4.0, 2.0, 1.0]),
    ];
    let mut outcomes = Vec::new();
    for (name, weights) in cases {
        let views: Vec<LaneView> = weights
            .iter()
            .map(|&w| LaneView {
                priority: Priority::Normal,
                weight: w,
                cost: 8.0,
                ready: true,
            })
            .collect();
        let mut picker = DrrPicker::new(1.0);
        let mut dispatched = vec![0.0f64; views.len()];
        while dispatched.iter().sum::<f64>() < 20_000.0 {
            let lane = picker.pick(&views).expect("ready lane");
            dispatched[lane] += views[lane].cost;
        }
        let total: f64 = dispatched.iter().sum();
        let wsum: f64 = weights.iter().sum();
        let measured = dispatched[0] / total;
        let expected = weights[0] / wsum;
        println!(
            "  weights {name:<6} lane-0 share {measured:.4} (expected {expected:.4}), \
             dispatched {dispatched:?}"
        );
        records.push(Record {
            section: "drr",
            variant: name.clone(),
            rate: 0.0,
            lc_p99_s: 0.0,
            lc_mean_s: 0.0,
            lc_completed: dispatched[0] as usize,
            lc_shed: 0,
            be_completed: (total - dispatched[0]) as usize,
            be_shed: 0,
            share_measured: measured,
            share_expected: expected,
            attempt: 0,
        });
        outcomes.push((name, measured, expected));
    }
    outcomes
}

struct SimOutcome {
    deterministic: bool,
    lc_queue_solo: f64,
    lc_queue_coloc: f64,
}

/// The sim mirror: two-lane replay determinism plus the interference
/// signal (co-located BE inflates LC queueing vs solo).
fn sim_section(records: &mut Vec<Record>, smoke: bool) -> SimOutcome {
    println!("\n--- sim: two-lane replay (deterministic) ---");
    let exp = |tenants: Vec<TenantSpec>, concurrency: usize| Experiment {
        node: NodeConfig::paper_testbed(),
        config: ServerConfig {
            tenants,
            ..ServerConfig::optimized()
        },
        model: ModelProfile::vit_base(),
        mix: ImageMix::fixed(ImageSpec::small()),
        concurrency,
        warmup_s: if smoke { 0.2 } else { 0.5 },
        measure_s: if smoke { 0.5 } else { 2.0 },
        seed: 31,
    };
    let two_lanes = || {
        vec![
            TenantSpec::new("lc", "vit-base")
                .priority(Priority::High)
                .weight(4.0),
            TenantSpec::new("be", "vit-base").priority(Priority::Low),
        ]
    };
    let solo = exp(Vec::new(), 32).run();
    let a = exp(two_lanes(), 64).run();
    let b = exp(two_lanes(), 64).run();
    let deterministic = a.lanes == b.lanes && a.completed == b.completed;
    for (replay, r) in [(0usize, &a), (1, &b)] {
        for lane in &r.lanes {
            println!(
                "  replay {replay} lane {:<3} completed {:>6} queue {:>9.6} s latency {:>9.6} s",
                lane.name, lane.completed, lane.mean_queue_s, lane.mean_latency_s
            );
            records.push(Record {
                section: "sim",
                variant: format!("replay{replay}:{}", lane.name),
                rate: replay as f64,
                lc_p99_s: 0.0,
                lc_mean_s: lane.mean_latency_s,
                lc_completed: lane.completed as usize,
                lc_shed: 0,
                be_completed: 0,
                be_shed: 0,
                share_measured: lane.mean_queue_s,
                share_expected: 0.0,
                attempt: 0,
            });
        }
    }
    let lc_queue_solo = solo.queue_time();
    let lc_queue_coloc = a.lanes[0].mean_queue_s;
    println!(
        "  deterministic: {deterministic} | lc queue solo {:.6} s vs co-located {:.6} s",
        lc_queue_solo, lc_queue_coloc
    );
    SimOutcome {
        deterministic,
        lc_queue_solo,
        lc_queue_coloc,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_sched.json".to_string());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let dur = if smoke {
        Duration::from_millis(1500)
    } else {
        Duration::from_secs(8)
    };
    let jpegs: Vec<Vec<u8>> = (0..4)
        .map(|seed| synthetic_jpeg(&ImageSpec::new(224, 224, 0), seed))
        .collect();
    let capacity = calibrate_capacity(&jpegs, smoke);
    println!("calibrated closed-loop capacity: {capacity:.1} img/s (host_cores={host_cores})");

    let mut records = Vec::new();

    // Live bar: multi-lane LC p99 within 2× solo despite the ≥2× flood.
    // Retried on fresh servers when a host stall lands on an attempt.
    let max_attempts = if smoke { 1 } else { 3 };
    let mut live_pass: Result<(), String> = Err("live section never ran".into());
    for attempt in 0..max_attempts {
        let o = live_section(&mut records, capacity, dur, attempt);
        if smoke {
            live_pass = Ok(());
            break;
        }
        live_pass = if o.multi_p99 <= 2.0 * o.solo_p99 {
            Ok(())
        } else {
            Err(format!(
                "multi-lane lc p99 {:.2} ms not within 2x solo {:.2} ms (single-lane {:.2} ms)",
                o.multi_p99 * 1e3,
                o.solo_p99 * 1e3,
                o.single_p99 * 1e3
            ))
        };
        match &live_pass {
            Ok(()) => break,
            Err(e) if attempt + 1 < max_attempts => {
                println!("live attempt {attempt} missed acceptance ({e}); fresh servers, retrying")
            }
            Err(e) => println!("live attempt {attempt} missed acceptance ({e}); out of attempts"),
        }
    }

    let drr_outcome = drr_section(&mut records);
    let sim_outcome = sim_section(&mut records, smoke);

    let mut table = String::new();
    let _ = writeln!(
        table,
        "\n{:<7} {:<16} {:>9} {:>11} {:>11} {:>9} {:>7} {:>9} {:>7} {:>8} {:>8}",
        "section",
        "variant",
        "offered/s",
        "lc_p99_ms",
        "lc_mean_ms",
        "lc_done",
        "lc_shed",
        "be_done",
        "be_shed",
        "share",
        "expected"
    );
    for r in &records {
        let _ = writeln!(
            table,
            "{:<7} {:<16} {:>9.1} {:>11.2} {:>11.2} {:>9} {:>7} {:>9} {:>7} {:>8.4} {:>8.4}",
            r.section,
            r.variant,
            r.rate,
            r.lc_p99_s * 1e3,
            r.lc_mean_s * 1e3,
            r.lc_completed,
            r.lc_shed,
            r.be_completed,
            r.be_shed,
            r.share_measured,
            r.share_expected
        );
    }
    print!("{table}");

    // The artifact is written before the acceptance bars run, so a failed
    // run still leaves its records for diagnosis.
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .expect("open bench output");
    for r in &records {
        writeln!(file, "{}", r.json(host_cores, smoke)).expect("write bench output");
    }
    println!("appended {} records to {out_path}", records.len());

    // Deterministic bars hold in every mode.
    for (name, measured, expected) in &drr_outcome {
        assert!(
            (measured - expected).abs() / expected <= 0.10,
            "drr {name}: lane-0 share {measured:.4} more than 10% off expected {expected:.4}"
        );
    }
    assert!(
        sim_outcome.deterministic,
        "sim two-lane replay diverged across identical runs"
    );
    if !smoke {
        assert!(
            sim_outcome.lc_queue_coloc > sim_outcome.lc_queue_solo,
            "sim co-located lc queue {:.6}s not above solo {:.6}s",
            sim_outcome.lc_queue_coloc,
            sim_outcome.lc_queue_solo
        );
        if let Err(e) = live_pass {
            panic!("live acceptance failed after {max_attempts} attempts: {e}");
        }
        println!(
            "acceptance: lc p99 within 2x solo under the flood, drr shares within 10%, \
             sim replay deterministic"
        );
    } else {
        println!("acceptance (smoke): drr shares within 10%, sim replay deterministic");
    }
}
