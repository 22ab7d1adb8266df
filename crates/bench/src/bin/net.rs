//! Network front-end benchmarks: loopback RPC vs in-process serving.
//!
//! The paper's end-to-end breakdown charges every request a client→server
//! data-transfer and a serialization leg. This harness measures those legs
//! on this machine by running the *same* model behind two front doors:
//!
//! * `inproc` — closed-loop clients calling `LiveServer::infer` directly
//!   (no wire, the baseline every other figure uses),
//! * `rpc` — the same closed-loop clients going through `vserve-net`'s
//!   framed TCP protocol over loopback (pooled, pipelining client),
//! * `rpc_open` — an open-loop Poisson load over the same socket pool at
//!   roughly half the measured closed-loop capacity, the paper's
//!   load-sweep methodology,
//! * `sim_tcp` — the simulator replaying the RPC path
//!   (`ServerConfig::with_rpc(RpcPath::Tcp)`) with `CpuModel` rpc knobs
//!   calibrated from the loopback measurement, printed paper-vs-measured.
//!
//! The payload sweep (224/448/896 px sources) shows the transfer leg
//! growing with compressed size while deserialize stays fixed — the same
//! shape as the paper's data-transfer vs serialization rows.
//!
//! Two architecture sweeps ride along:
//!
//! * `conn_sweep` — the server holding 1/64/1k/10k *idle*
//!   connections (capped by the fd soft limit) while a small active
//!   subset keeps inferring: per-connection memory and the p50 under
//!   flood are the capacity story,
//! * `sim_shards` — the simulator's router tier (`ServerConfig::shards`)
//!   at 10k closed-loop clients, showing front-end sharding scaling a
//!   CPU-preprocessing-bound deployment.
//!
//! Results are printed as a table and appended as JSON lines to
//! `BENCH_net.json` (override with `--out PATH`). `--smoke` shrinks
//! shapes and repetitions to a few hundred milliseconds for CI checks.

use std::fmt::Write as _;
use std::io::Write as _;
use std::time::{Duration, Instant};

use vserve_device::{ImageSpec, NodeConfig};
use vserve_dnn::{models, Model};
use vserve_net::{ClientOptions, NetClient, NetError, NetOptions, NetServer};
use vserve_server::live::{LiveOptions, LiveServer};
use vserve_server::{Experiment, ModelProfile, RpcPath, ServerConfig};
use vserve_sim::rng::RngStream;
use vserve_workload::{synthetic_jpeg, Arrivals, ImageMix};

/// One measured variant at one payload size, serialized as a JSON line.
struct Record {
    bench: &'static str,
    variant: &'static str,
    shape: String,
    clients: usize,
    /// Mean request latency, seconds.
    mean_latency_s: f64,
    /// Median request latency, seconds (0 when not measured).
    p50_latency_s: f64,
    /// Completed images per second.
    rate: f64,
    /// Mean server-measured transfer + deserialize, seconds (0 for the
    /// in-process variant — the rows do not exist there).
    rpc_time_s: f64,
    /// RPC overhead share of mean latency (variant-specific; see table).
    rpc_share: f64,
    completed: usize,
    shed: usize,
    /// Idle connections held open during the measurement (conn sweep).
    idle_conns: usize,
    /// Resident-set growth attributable to the held connections, MiB
    /// (conn sweep; 0 elsewhere).
    rss_mb: f64,
}

impl Record {
    fn json(&self, host_cores: usize, smoke: bool) -> String {
        format!(
            "{{\"bench\":\"{}\",\"variant\":\"{}\",\"shape\":\"{}\",\"clients\":{},\
             \"mean_latency_s\":{:.6},\"p50_latency_s\":{:.6},\"img_per_s\":{:.1},\
             \"rpc_time_s\":{:.6},\"rpc_share\":{:.4},\"completed\":{},\"shed\":{},\
             \"idle_conns\":{},\"rss_mb\":{:.2},\"host_cores\":{},\"smoke\":{}}}",
            self.bench,
            self.variant,
            self.shape,
            self.clients,
            self.mean_latency_s,
            self.p50_latency_s,
            self.rate,
            self.rpc_time_s,
            self.rpc_share,
            self.completed,
            self.shed,
            self.idle_conns,
            self.rss_mb,
            host_cores,
            smoke
        )
    }
}

/// Benchmark scale knobs (shrunk by `--smoke`).
struct Scale {
    sources: Vec<usize>,
    model_side: usize,
    clients: usize,
    reqs_per_client: usize,
    /// Idle-connection levels for the connection-scaling sweep.
    idle_levels: Vec<usize>,
    /// Closed-loop clients for the sim shard sweep.
    sim_clients: usize,
}

fn tiny_model(side: usize) -> Model {
    Model::from_graph(models::micro_cnn(side, 10).expect("micro_cnn graph"), 7)
}

fn live_opts(side: usize) -> LiveOptions {
    LiveOptions {
        preproc_workers: 2,
        inference_workers: 1,
        max_batch: 8,
        max_queue_delay: Duration::from_millis(1),
        input_side: side,
        backend_threads: 1,
        ..LiveOptions::default()
    }
}

/// Median of a sample set (by sorting; fine at bench sizes).
fn p50(mut xs: Vec<f64>) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// Mean + median latency and throughput of `clients` closed-loop threads
/// each doing `reqs` calls of `f` (one warmup call per thread first).
fn closed_loop<F>(clients: usize, reqs: usize, f: F) -> (f64, f64, f64, usize)
where
    F: Fn(usize) + Send + Sync,
{
    let f = &f;
    let t0 = Instant::now();
    let per_thread: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    f(c); // warmup: first call pays cold caches
                    let mut lats = Vec::with_capacity(reqs);
                    for _ in 0..reqs {
                        let t = Instant::now();
                        f(c);
                        lats.push(t.elapsed().as_secs_f64());
                    }
                    lats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let lats: Vec<f64> = per_thread.into_iter().flatten().collect();
    let n = lats.len();
    let mean = lats.iter().sum::<f64>() / n.max(1) as f64;
    (mean, p50(lats), n as f64 / wall, n)
}

fn bench_source(records: &mut Vec<Record>, src: usize, sc: &Scale, smoke: bool) -> (f64, f64) {
    let jpeg = synthetic_jpeg(&ImageSpec::new(src, src, 0), 17);
    let shape = format!("{src}px");
    println!(
        "--- payload {shape} ({:.1} kB compressed) ---",
        jpeg.len() as f64 / 1024.0
    );

    // In-process baseline: same model, same live options, no wire.
    let inproc_server = LiveServer::start(tiny_model(sc.model_side), live_opts(sc.model_side));
    let (inproc_mean, inproc_p50, inproc_rate, inproc_n) =
        closed_loop(sc.clients, sc.reqs_per_client, |_| {
            inproc_server.infer(jpeg.clone()).expect("in-process infer");
        });
    drop(inproc_server);
    records.push(Record {
        bench: "net",
        variant: "inproc",
        shape: shape.clone(),
        clients: sc.clients,
        mean_latency_s: inproc_mean,
        p50_latency_s: inproc_p50,
        rate: inproc_rate,
        rpc_time_s: 0.0,
        rpc_share: 0.0,
        completed: inproc_n,
        shed: 0,
        idle_conns: 0,
        rss_mb: 0.0,
    });

    // Loopback RPC: identical server behind the framed TCP front-end.
    let net_server = NetServer::bind(
        tiny_model(sc.model_side),
        NetOptions {
            live: live_opts(sc.model_side),
            ..NetOptions::default()
        },
    )
    .expect("bind loopback");
    let client = NetClient::connect(
        net_server.local_addr(),
        ClientOptions {
            pool: sc.clients.min(4),
            ..ClientOptions::default()
        },
    )
    .expect("connect loopback");
    let rpc_times = std::sync::Mutex::new((0.0f64, 0usize));
    let (rpc_mean, rpc_p50, rpc_rate, rpc_n) = closed_loop(sc.clients, sc.reqs_per_client, |_| {
        let r = client.infer(&jpeg).expect("rpc infer");
        let leg = (r.transfer + r.deserialize).as_secs_f64();
        let mut acc = rpc_times.lock().unwrap_or_else(|e| e.into_inner());
        acc.0 += leg;
        acc.1 += 1;
    });
    let (leg_sum, leg_n) = *rpc_times.lock().unwrap_or_else(|e| e.into_inner());
    let rpc_leg = leg_sum / leg_n.max(1) as f64;
    // The honest overhead number: how much slower the same work is once a
    // real socket, framing, and a second copy of the bytes are in the path.
    let overhead_share = ((rpc_mean - inproc_mean) / rpc_mean).max(0.0);
    records.push(Record {
        bench: "net",
        variant: "rpc",
        shape: shape.clone(),
        clients: sc.clients,
        mean_latency_s: rpc_mean,
        p50_latency_s: rpc_p50,
        rate: rpc_rate,
        rpc_time_s: rpc_leg,
        rpc_share: overhead_share,
        completed: rpc_n,
        shed: 0,
        idle_conns: 0,
        rss_mb: 0.0,
    });

    // Open-loop Poisson at ~50% of the measured closed-loop capacity:
    // below saturation, latency should stay near the closed-loop value
    // and nothing should shed.
    let rate = (rpc_rate * 0.5).max(5.0);
    let n_open = (sc.reqs_per_client * sc.clients).max(8);
    let mut rng = RngStream::derive(11, "net-open-loop");
    let mut arrivals = Arrivals::poisson(rate);
    let t0 = Instant::now();
    let mut pending = Vec::with_capacity(n_open);
    let mut next_at = 0.0f64;
    for _ in 0..n_open {
        next_at += arrivals.next_gap(&mut rng);
        let until = Duration::from_secs_f64(next_at).saturating_sub(t0.elapsed());
        if !until.is_zero() {
            std::thread::sleep(until);
        }
        let sent = Instant::now();
        pending.push((sent, client.submit(&jpeg)));
    }
    let mut open_lats = Vec::with_capacity(n_open);
    let mut open_shed = 0usize;
    let mut open_leg = 0.0;
    for (sent, p) in pending {
        match p.and_then(|p| p.wait()) {
            Ok(r) => {
                open_lats.push(sent.elapsed().as_secs_f64());
                open_leg += (r.transfer + r.deserialize).as_secs_f64();
            }
            Err(NetError::Server { .. }) => open_shed += 1,
            Err(e) => panic!("open-loop transport failure: {e}"),
        }
    }
    let open_wall = t0.elapsed().as_secs_f64();
    let open_ok = open_lats.len();
    let open_mean = open_lats.iter().sum::<f64>() / open_ok.max(1) as f64;
    let open_leg = open_leg / open_ok.max(1) as f64;
    records.push(Record {
        bench: "net",
        variant: "rpc_open",
        shape: shape.clone(),
        clients: 1,
        mean_latency_s: open_mean,
        p50_latency_s: p50(open_lats),
        rate: open_ok as f64 / open_wall,
        rpc_time_s: open_leg,
        rpc_share: if open_mean > 0.0 {
            open_leg / open_mean
        } else {
            0.0
        },
        completed: open_ok,
        shed: open_shed,
        idle_conns: 0,
        rss_mb: 0.0,
    });

    println!(
        "inproc {:>8.1} us | rpc {:>8.1} us (leg {:>6.1} us, overhead {:>4.1}%) | open-loop @{rate:.0}/s mean {:>8.1} us, {open_shed} shed",
        inproc_mean * 1e6,
        rpc_mean * 1e6,
        rpc_leg * 1e6,
        overhead_share * 100.0,
        open_mean * 1e6,
    );

    if !smoke {
        // The wire must cost something, but must not dominate a pipeline
        // that still decodes JPEGs and runs a CNN.
        assert!(rpc_leg > 0.0, "rpc leg unmeasured at {shape}");
        assert!(
            overhead_share < 0.8,
            "rpc overhead {overhead_share:.2} implausibly dominant at {shape}"
        );
    }
    (rpc_leg, jpeg.len() as f64)
}

/// Replay the measured loopback legs through the simulator and print the
/// paper-style share next to the measured one.
fn sim_replay(records: &mut Vec<Record>, measured: &[(f64, f64)], smoke: bool) {
    // Calibrate the CpuModel rpc knobs from the loopback sweep: the fixed
    // part is the intercept (smallest payload's leg), the bandwidth comes
    // from the growth between the smallest and largest payloads.
    let mut node = NodeConfig::paper_testbed();
    if let (Some((leg_a, bytes_a)), Some((leg_b, bytes_b))) = (measured.first(), measured.last()) {
        if leg_b > leg_a && bytes_b > bytes_a {
            node.cpu.serialize_bytes_per_s = (bytes_b - bytes_a) / (leg_b - leg_a);
            node.cpu.rpc_fixed_s = (leg_a - bytes_a / node.cpu.serialize_bytes_per_s).max(5e-6);
        } else {
            node.cpu.rpc_fixed_s = *leg_a;
        }
    }

    let exp = |rpc: RpcPath| Experiment {
        node: node.clone(),
        config: ServerConfig::optimized_cpu_preproc().with_rpc(rpc),
        model: ModelProfile::vit_base(),
        mix: ImageMix::fixed(ImageSpec::medium()),
        concurrency: 8,
        warmup_s: if smoke { 0.1 } else { 0.3 },
        measure_s: if smoke { 0.3 } else { 1.5 },
        seed: 7,
    };
    let base = exp(RpcPath::InProcess).run();
    let tcp = exp(RpcPath::Tcp).run();
    let sim_share = tcp.rpc_share();
    println!(
        "\nsim replay (ViT-Base, medium images, CPU preproc, concurrency 8):\n\
         in-process mean {:.2} ms | tcp mean {:.2} ms | modeled rpc leg {:.1} us | rpc share {:.1}%",
        base.latency.mean * 1e3,
        tcp.latency.mean * 1e3,
        tcp.rpc_time() * 1e6,
        sim_share * 100.0,
    );
    println!(
        "paper-vs-measured: the paper reports the RPC/serialization rows as a\n\
         few percent of end-to-end latency for medium images; modeled share\n\
         here is {:.1}% with knobs calibrated from the loopback run\n\
         (rpc_fixed={:.1} us, serialize_bw={:.2} GB/s).",
        sim_share * 100.0,
        node.cpu.rpc_fixed_s * 1e6,
        node.cpu.serialize_bytes_per_s / 1e9,
    );
    if !smoke {
        assert!(
            sim_share > 0.0 && sim_share < 0.25,
            "modeled rpc share {sim_share} out of the paper's small-slice range"
        );
        assert!(
            base.rpc_time() == 0.0,
            "in-process replay must not charge rpc rows"
        );
    }
    records.push(Record {
        bench: "net",
        variant: "sim_tcp",
        shape: "medium".to_string(),
        clients: 8,
        mean_latency_s: tcp.latency.mean,
        p50_latency_s: tcp.latency.p50,
        rate: tcp.throughput,
        rpc_time_s: tcp.rpc_time(),
        rpc_share: sim_share,
        completed: tcp.completed as usize,
        shed: 0,
        idle_conns: 0,
        rss_mb: 0.0,
    });
}

/// Resident-set size of this process in MiB (`/proc/self/status` VmRSS;
/// 0 where unavailable).
fn rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmRSS:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|kb| kb.parse::<f64>().ok())
            })
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Connection-scaling sweep: hold N idle connections open on the server
/// while a 4-client subset keeps inferring; record the p50 under
/// flood and the resident-set growth the idle connections cost.
fn bench_conn_scaling(records: &mut Vec<Record>, sc: &Scale, smoke: bool) {
    let fd_budget = vserve_net::fd_soft_limit()
        .map(|l| (l.saturating_sub(512)) / 2)
        .unwrap_or(1024) as usize;
    println!("\n--- connection scaling (fd budget {fd_budget}) ---");

    let side = sc.model_side;
    let jpeg = synthetic_jpeg(&ImageSpec::new(side * 2, side * 2, 0), 23);
    let active_clients = 4usize.min(sc.clients.max(1));
    let reqs = sc.reqs_per_client;

    for &want in &sc.idle_levels {
        let n = want.min(fd_budget);
        let server = NetServer::bind(
            tiny_model(side),
            NetOptions {
                max_conns: n + 64,
                live: live_opts(side),
                ..NetOptions::default()
            },
        )
        .expect("bind conn-sweep server");
        let addr = server.local_addr();
        let rss_before = rss_mb();
        let mut idle = Vec::with_capacity(n);
        for i in 0..n {
            match std::net::TcpStream::connect(addr) {
                Ok(s) => idle.push(s),
                Err(e) => panic!("idle conn {i}/{n} failed: {e}"),
            }
        }
        // Wait for the server to register every idle connection before
        // measuring, so the sweep really runs *with* them resident.
        let deadline = Instant::now() + Duration::from_secs(30);
        while server.metrics().active < n {
            assert!(
                Instant::now() < deadline,
                "server saw {}/{} conns",
                server.metrics().active,
                n
            );
            std::thread::sleep(Duration::from_millis(5));
        }
        let rss_after = rss_mb();

        let client = NetClient::connect(
            addr,
            ClientOptions {
                pool: active_clients,
                ..ClientOptions::default()
            },
        )
        .expect("connect conn-sweep client");
        let (mean, med, rate, done) = closed_loop(active_clients, reqs, |_| {
            client.infer(&jpeg).expect("conn-sweep infer");
        });
        let grew = (rss_after - rss_before).max(0.0);
        println!(
            "{n:>6} idle: p50 {:>8.1} us mean {:>8.1} us {:>8.1} img/s rss +{grew:.2} MiB",
            med * 1e6,
            mean * 1e6,
            rate,
        );
        records.push(Record {
            bench: "net",
            variant: "conn_sweep",
            shape: format!("{n}idle"),
            clients: active_clients,
            mean_latency_s: mean,
            p50_latency_s: med,
            rate,
            rpc_time_s: 0.0,
            rpc_share: 0.0,
            completed: done,
            shed: 0,
            idle_conns: n,
            rss_mb: grew,
        });
        drop(idle);
        drop(client);
        if !smoke {
            assert!(done > 0, "no completions with {n} idle conns");
        }
    }
}

/// Simulator shard sweep: the router tier (`ServerConfig::shards`) at high
/// closed-loop concurrency on a CPU-preprocessing-bound deployment.
fn sim_shard_sweep(records: &mut Vec<Record>, sc: &Scale, smoke: bool) {
    println!(
        "\n--- sim shard sweep ({} closed-loop clients) ---",
        sc.sim_clients
    );
    let node = NodeConfig::paper_testbed();
    let mut base_rate = 0.0;
    for &shards in &[1usize, 2, 4] {
        let report = Experiment {
            node: node.clone(),
            config: ServerConfig::optimized_cpu_preproc()
                .with_rpc(RpcPath::Tcp)
                .with_shards(shards),
            model: ModelProfile::vit_base(),
            // Large images make CPU preprocessing the binding stage — the
            // deployment sharding actually helps (each shard brings its
            // own preproc pool, like the live router's per-shard stacks).
            mix: ImageMix::fixed(ImageSpec::large()),
            concurrency: sc.sim_clients,
            warmup_s: if smoke { 0.1 } else { 0.5 },
            measure_s: if smoke { 0.3 } else { 2.0 },
            seed: 19,
        }
        .run();
        if shards == 1 {
            base_rate = report.throughput;
        }
        println!(
            "{shards} shard(s): {:>10.1} img/s p50 {:>8.2} ms ({:.2}x of 1 shard)",
            report.throughput,
            report.latency.p50 * 1e3,
            report.throughput / base_rate.max(1e-9),
        );
        records.push(Record {
            bench: "net",
            variant: "sim_shards",
            shape: format!("{shards}shards"),
            clients: sc.sim_clients,
            mean_latency_s: report.latency.mean,
            p50_latency_s: report.latency.p50,
            rate: report.throughput,
            rpc_time_s: report.rpc_time(),
            rpc_share: report.rpc_share(),
            completed: report.completed as usize,
            shed: 0,
            idle_conns: 0,
            rss_mb: 0.0,
        });
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
        .unwrap_or_else(|| "BENCH_net.json".to_string());
    let host_cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let sc = if smoke {
        Scale {
            sources: vec![96, 192],
            model_side: 32,
            clients: 2,
            reqs_per_client: 4,
            idle_levels: vec![1, 64, 256],
            sim_clients: 256,
        }
    } else {
        Scale {
            sources: vec![224, 448, 896],
            model_side: 64,
            clients: 4,
            reqs_per_client: 40,
            idle_levels: vec![1, 64, 1000, 10_000],
            sim_clients: 10_000,
        }
    };

    let mut records = Vec::new();
    let mut measured = Vec::new();
    for &src in &sc.sources {
        measured.push(bench_source(&mut records, src, &sc, smoke));
    }
    bench_conn_scaling(&mut records, &sc, smoke);
    sim_replay(&mut records, &measured, smoke);
    sim_shard_sweep(&mut records, &sc, smoke);

    let mut table = String::new();
    let _ = writeln!(
        table,
        "\n{:<6} {:<13} {:<10} {:>7} {:>12} {:>12} {:>10} {:>11} {:>9} {:>9} {:>6} {:>7} {:>7}",
        "bench",
        "variant",
        "shape",
        "clients",
        "mean_lat_s",
        "p50_lat_s",
        "img/s",
        "rpc_time_s",
        "rpc_share",
        "completed",
        "shed",
        "idle",
        "rss_mb"
    );
    for r in &records {
        let _ = writeln!(
            table,
            "{:<6} {:<13} {:<10} {:>7} {:>12.6} {:>12.6} {:>10.1} {:>11.6} {:>8.1}% {:>9} {:>6} {:>7} {:>7.2}",
            r.bench,
            r.variant,
            r.shape,
            r.clients,
            r.mean_latency_s,
            r.p50_latency_s,
            r.rate,
            r.rpc_time_s,
            r.rpc_share * 100.0,
            r.completed,
            r.shed,
            r.idle_conns,
            r.rss_mb
        );
    }
    print!("{table}");
    println!("host_cores={host_cores} smoke={smoke}");

    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&out_path)
        .expect("open bench output");
    for r in &records {
        writeln!(file, "{}", r.json(host_cores, smoke)).expect("write bench output");
    }
    println!("appended {} records to {out_path}", records.len());
}
