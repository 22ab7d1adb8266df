//! What the benchmark fixes: the four workloads, the server and client
//! options shared by all of them, and the metric names with their units.
//! `BENCHMARK.json` repeats the names; `--smoke` checks the two agree.

use std::time::Duration;

use vserve_device::ImageSpec;
use vserve_dnn::{models, Model};
use vserve_net::{ClientOptions, NetOptions};
use vserve_server::live::LiveOptions;
use vserve_trace::Tracer;

/// Epochs (fresh child processes) per untraced run. Each redraws the
/// per-instance forward-speed lottery, so one run sees it eight times.
pub const EPOCHS: usize = 8;
/// A child that has not finished by then is killed and counted as failed.
pub const EPOCH_TIMEOUT: Duration = Duration::from_secs(60);
/// Replies must match the golden output this closely.
pub const GOLDEN_TOLERANCE: f32 = 1e-4;
/// Weight seed of every model; part of the golden outputs.
pub const MODEL_SEED: u64 = 7;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Net {
    MicroCnn,
    Resnet18,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub image: fn() -> ImageSpec,
    pub distinct: usize,
    /// Hot workloads fit the preprocessing cache; the cold one cycles past it.
    pub hot: bool,
    pub net: Net,
    pub side: usize,
    /// Requests kept in flight in the closed phase.
    pub window: usize,
    /// Poisson arrival rate of the open phase: about half of the closed-phase
    /// throughput measured when the benchmark was defined, never adapted at
    /// run time.
    pub open_rate_rps: f64,
    /// Latency limit for `client.slo_miss_frac`.
    pub slo_ms: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "wire_small_hot",
        why: "16 cache-hot 60x70 JPEGs into micro_cnn(16): decode and forward are ~0, so frames, syscalls, wake-ups and lane bookkeeping are the whole request",
        image: ImageSpec::small,
        distinct: 16,
        hot: true,
        net: Net::MicroCnn,
        side: 16,
        window: 64,
        open_rate_rps: 2000.0,
        slo_ms: 10.0,
    },
    Workload {
        name: "decode_medium_cold",
        why: "256 distinct 500x375 JPEGs cycled past the 32 MiB cache into micro_cnn(224): every request decodes, resizes, inserts and evicts - preprocessing dominates",
        image: ImageSpec::medium,
        distinct: 256,
        hot: false,
        net: Net::MicroCnn,
        side: 224,
        window: 8,
        open_rate_rps: 70.0,
        slo_ms: 100.0,
    },
    Workload {
        name: "transfer_large_hot",
        why: "3 cache-hot 3564x2880 JPEGs into micro_cnn(224): few messages, many bytes - socket reads, frame assembly, payload copies and the content hash",
        image: ImageSpec::large,
        distinct: 3,
        hot: true,
        net: Net::MicroCnn,
        side: 224,
        window: 4,
        open_rate_rps: 90.0,
        slo_ms: 60.0,
    },
    Workload {
        name: "forward_batched",
        why: "the 16 hot small JPEGs into resnet18(64): GEMM and batch formation dominate; codec and wire changes must not move it",
        image: ImageSpec::small,
        distinct: 16,
        hot: true,
        net: Net::Resnet18,
        side: 64,
        window: 16,
        open_rate_rps: 24.0,
        slo_ms: 120.0,
    },
];

impl Workload {
    pub fn by_name(name: &str) -> Option<&'static Workload> {
        WORKLOADS.iter().find(|w| w.name == name)
    }

    pub fn build_model(&self) -> Model {
        let graph = match self.net {
            Net::MicroCnn => models::micro_cnn(self.side, 10),
            Net::Resnet18 => models::resnet18(self.side, 10),
        }
        .expect("benchmark model graphs are valid");
        Model::from_graph(graph, MODEL_SEED)
    }

    pub fn model_name(&self) -> String {
        match self.net {
            Net::MicroCnn => format!("micro_cnn({}, 10)", self.side),
            Net::Resnet18 => format!("resnet18({}, 10)", self.side),
        }
    }

    /// Replies the warm-up waits for: every hot image once, or enough cold
    /// ones to fill the cache past its budget.
    pub fn warm_replies(&self) -> usize {
        if self.hot {
            self.distinct
        } else {
            64
        }
    }
}

/// The one server configuration every workload runs under. Every field is
/// written out so no `VSERVE_*` variable can reach it.
pub fn live_options(side: usize, trace: Tracer) -> LiveOptions {
    LiveOptions {
        preproc_workers: 2,
        inference_workers: 1,
        max_batch: 8,
        max_queue_delay: Duration::from_micros(2000),
        input_side: side,
        queue_cap: 256,
        deadline: None,
        backend_threads: 1,
        fast_preproc: true,
        preproc_cache_mb: Some(32),
        coalesce: true,
        trace,
        tenants: Vec::new(),
    }
}

pub fn net_options(side: usize, trace: Tracer) -> NetOptions {
    NetOptions {
        addr: "127.0.0.1:0".to_owned(),
        max_conns: 64,
        max_inflight_per_conn: 128,
        evented: true,
        write_hwm_bytes: 1 << 20,
        drain_timeout: Duration::from_secs(5),
        model_name: "default".to_owned(),
        live: live_options(side, trace),
        tune: None,
        pipeline: None,
    }
}

pub fn client_options() -> ClientOptions {
    ClientOptions {
        pool: 1,
        deadline: None,
        model: String::new(),
        tenant: String::new(),
        side: 0,
    }
}

/// Recorded in every result header.
pub const OPTIONS_LINE: &str = "server: evented, tune none, pipeline none, preproc_workers 2, \
inference_workers 1, max_batch 8, linger 2000us, queue_cap 256, backend_threads 1, \
fast_preproc true, preproc_cache_mb 32, coalesce true, tracer disabled, no tenants, \
max_conns 64, max_inflight_per_conn 128, no cpu pinning; client: pool 1, pipelined \
NetClient::submit, one sender thread, no deadline";

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// End-to-end only: share of the parent's median it may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        higher_is_better: higher,
        bound,
    }
}

pub const END_TO_END: [MetricDef; 6] = [
    e2e("throughput_rps", "1/s", true, 0.25),
    e2e("latency_p50_ms", "ms", false, 0.25),
    e2e("latency_p95_ms", "ms", false, 0.25),
    e2e("cpu_ms_per_req", "ms", false, 0.25),
    e2e("peak_rss_mb", "MiB", false, 0.10),
    e2e("setup_s", "s", false, 0.25),
];

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricDef {
    e2e(name, unit, higher, 0.0)
}

/// Per-layer metrics, layer = crate. Sources and the end-to-end metric each
/// should move are tabulated in `benchmark/README.md`.
pub const PER_LAYER: [MetricDef; 57] = [
    layer("client.serialize_us", "us", false),
    layer("client.round_trip_us", "us", false),
    layer("client.lateness_p95_ms", "ms", false),
    layer("client.achieved_rate_frac", "ratio", true),
    layer("client.latency_tail_ms", "ms", false),
    layer("client.latency_tail_pct", "%", true),
    layer("client.slo_miss_frac", "ratio", false),
    layer("net.transfer_us", "us", false),
    layer("net.deserialize_us", "us", false),
    layer("net.wire_residual_us", "us", false),
    layer("net.wire_over_inproc", "ratio", true),
    layer("net.frame_roundtrip_us", "us", false),
    layer("net.response_codec_us", "us", false),
    layer("net.frames", "count", true),
    layer("net.bad_frames", "count", false),
    layer("server.queue_us", "us", false),
    layer("server.preproc_us", "us", false),
    layer("server.inference_us", "us", false),
    layer("server.total_us", "us", false),
    layer("server.residual_us", "us", false),
    layer("server.mean_batch", "count", true),
    layer("server.forward_calls_per_req", "count", false),
    layer("server.cache_hit_frac", "ratio", true),
    layer("server.cache_evictions_per_req", "ratio", false),
    layer("server.coalesced_frac", "ratio", true),
    layer("server.rejected", "count", false),
    layer("server.expired", "count", false),
    layer("server.inproc_rps", "1/s", true),
    layer("server.fnv1a_us", "us", false),
    layer("server.cache_hit_us", "us", false),
    layer("server.cache_insert_evict_us", "us", false),
    layer("server.preproc_over_ceiling", "ratio", false),
    layer("server.inference_over_ceiling", "ratio", false),
    layer("sched.admit_take_ns", "ns", false),
    layer("sched.pick_ns", "ns", false),
    layer("codec.payload_bytes", "bytes", false),
    layer("codec.probe_us", "us", false),
    layer("codec.decode_us", "us", false),
    layer("codec.decode_scaled_us", "us", false),
    layer("codec.preprocess_us", "us", false),
    layer("tensor.fused_preprocess_us", "us", false),
    layer("simd.lanes", "count", true),
    layer("simd.preprocess_scalar_over_active", "ratio", true),
    layer("compute.preprocess_speedup_2t", "ratio", true),
    layer("dnn.forward_b1_us", "us", false),
    layer("dnn.forward_b8_us", "us", false),
    layer("dnn.forward_at_batch_us", "us", false),
    layer("dnn.flops_per_item", "count", false),
    layer("dnn.gflops_b8", "GFLOP/s", true),
    layer("dnn.forward_b8_spread_frac", "ratio", false),
    layer("trace.overhead_frac", "ratio", false),
    layer("trace.spans_per_req", "count", false),
    layer("trace.dropped_spans", "count", false),
    layer("trace.unattributed_frac", "ratio", false),
    layer("workload.corpus_gen_s", "s", false),
    layer("workload.distinct_images", "count", true),
    layer("workload.golden_max_abs_diff", "f32", false),
];
