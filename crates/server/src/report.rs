//! Experiment results: throughput, latency, breakdown, energy.

use vserve_device::EnergyReport;
use vserve_metrics::{LatencySummary, StageBreakdown};

/// Canonical stage names used in per-request breakdowns, prefixed for
/// presentation order.
pub mod stages {
    /// Request dispatch on the host CPU.
    pub const DISPATCH: &str = "0-dispatch";
    /// Reading the request's bytes off the network (the paper's
    /// client→server data-transfer row). Only present when requests
    /// arrive over the `vserve-net` wire or the sim models an RPC path.
    pub const NET_TRANSFER: &str = "0-net-transfer";
    /// Parsing and validating the request frame (the paper's request
    /// serialization/deserialization row). Only present on the RPC path.
    pub const DESERIALIZE: &str = "0-deserialize";
    /// Waiting in any queue (dispatch, preprocessing, batching).
    pub const QUEUE: &str = "1-queue";
    /// Preprocessing (decode + resize + normalize) on CPU or GPU.
    pub const PREPROC: &str = "2-preproc";
    /// Host staging + PCIe transfers.
    pub const TRANSFER: &str = "3-transfer";
    /// DNN inference on the GPU.
    pub const INFERENCE: &str = "4-inference";
    /// Cascade fan-out: decoding a parent stage's frame, cutting the K
    /// detection crops, and re-encoding them as child sub-requests.
    /// Recorded by the pipeline executor, per parent request.
    pub const FANOUT: &str = "5-fanout";
    /// Cascade join: assembling the K child replies into the pipeline's
    /// final result. Recorded by the pipeline executor, per pipeline.
    pub const JOIN: &str = "6-join";
    /// Prefix of per-stage cascade rows: a pipeline named `faces` with a
    /// stage `det` records its per-stage wall as `7-cascade:faces/det`
    /// (see [`cascade_stage`]).
    pub const CASCADE_PREFIX: &str = "7-cascade:";

    /// Breakdown row name for one cascade stage of one pipeline.
    pub fn cascade_stage(pipeline: &str, stage: &str) -> String {
        format!("{CASCADE_PREFIX}{pipeline}/{stage}")
    }
}

/// The report shape shared by the simulated server and the live
/// thread-based server: throughput, a latency distribution, a per-stage
/// breakdown, and the mean batch size the batcher actually formed.
///
/// Both [`ServerReport`] (sim) and the live server's metrics snapshot
/// reduce to this type, so sim-vs-live comparisons of the paper's
/// overhead shares are one-to-one.
#[derive(Debug, Clone)]
pub struct ServingSummary {
    /// Completed requests per second over the window.
    pub throughput: f64,
    /// Round-trip latency distribution.
    pub latency: LatencySummary,
    /// Mean seconds per request attributed to each stage (see [`stages`]).
    pub breakdown: StageBreakdown,
    /// Requests completed inside the window.
    pub completed: u64,
    /// Mean inference batch size actually formed by the batcher.
    pub mean_batch: f64,
}

impl ServingSummary {
    /// Mean seconds a request spent queued (all queues combined).
    pub fn queue_time(&self) -> f64 {
        self.breakdown.mean(stages::QUEUE)
    }

    /// Mean seconds a request spent preprocessing.
    pub fn preproc_time(&self) -> f64 {
        self.breakdown.mean(stages::PREPROC)
    }

    /// Mean seconds a request spent on the RPC leg: network transfer of
    /// the request bytes plus frame deserialization. Zero for in-process
    /// serving, where these stages are never recorded.
    pub fn rpc_time(&self) -> f64 {
        self.breakdown.mean(stages::NET_TRANSFER) + self.breakdown.mean(stages::DESERIALIZE)
    }

    /// Fraction of mean latency spent on the RPC leg
    /// (transfer + deserialize) — the paper's data-transfer and
    /// serialization rows combined.
    pub fn rpc_share(&self) -> f64 {
        if self.latency.mean <= 0.0 {
            0.0
        } else {
            self.rpc_time() / self.latency.mean
        }
    }

    /// Fraction of mean latency spent queued.
    pub fn queue_share(&self) -> f64 {
        self.stage_share(stages::QUEUE)
    }

    /// Fraction of mean latency spent preprocessing.
    pub fn preproc_share(&self) -> f64 {
        self.stage_share(stages::PREPROC)
    }

    /// Fraction of mean latency spent in DNN inference (the complement of
    /// the paper's "overheads").
    pub fn inference_share(&self) -> f64 {
        self.stage_share(stages::INFERENCE)
    }

    /// Fraction of mean latency spent on anything *other than* DNN
    /// inference — preprocessing, queueing, transfer, dispatch. This is
    /// what the paper's Fig 6 plots as the non-inference bar (its
    /// "preprocessing" component includes the transfer path).
    pub fn overhead_share(&self) -> f64 {
        (1.0 - self.inference_share()).max(0.0)
    }

    /// Fraction of mean latency attributed to `stage`.
    pub fn stage_share(&self, stage: &str) -> f64 {
        if self.latency.mean <= 0.0 {
            0.0
        } else {
            self.breakdown.mean(stage) / self.latency.mean
        }
    }

    /// One-line summary for report tables.
    pub fn to_row(&self) -> String {
        format!(
            "{:>9.1} img/s  avg {:>8.2} ms  p99 {:>8.2} ms  queue {:>5.1}%  pre {:>5.1}%  inf {:>5.1}%",
            self.throughput,
            self.latency.mean * 1e3,
            self.latency.p99 * 1e3,
            self.queue_share() * 100.0,
            self.preproc_share() * 100.0,
            self.inference_share() * 100.0,
        )
    }
}

/// Per-tenant-lane outcome of a multi-tenant sim run — the sim mirror of
/// the live server's `LaneMetrics`, for deterministic interference
/// replay. Empty on single-lane runs.
#[derive(Debug, Clone, PartialEq)]
pub struct LaneReport {
    /// Tenant name from the `ServerConfig::tenants` entry.
    pub name: String,
    /// Requests this lane completed inside the measurement window.
    pub completed: u64,
    /// Mean seconds the lane's requests spent queued (dispatch + batch
    /// wait) — the number a best-effort flood inflates for an LC tenant.
    pub mean_queue_s: f64,
    /// Mean round-trip seconds for the lane's requests.
    pub mean_latency_s: f64,
}

/// Outcome of one serving experiment over its measurement window.
#[derive(Debug, Clone)]
pub struct ServerReport {
    /// Per-tenant lane rows (multi-tenant sims only; empty otherwise).
    pub lanes: Vec<LaneReport>,
    /// Completed requests per second.
    pub throughput: f64,
    /// Round-trip latency distribution.
    pub latency: LatencySummary,
    /// Mean seconds per request attributed to each stage (see [`stages`]).
    pub breakdown: StageBreakdown,
    /// Requests completed inside the window.
    pub completed: u64,
    /// Energy over the window.
    pub energy: EnergyReport,
    /// Time-averaged CPU pool utilization (0–1).
    pub cpu_utilization: f64,
    /// Per-GPU time-averaged utilization (preprocessing + inference).
    pub gpu_utilization: Vec<f64>,
    /// Mean inference batch size actually formed by the batcher.
    pub mean_batch: f64,
    /// Per-GPU high-water mark of in-flight request memory, bytes —
    /// compare with the device's eviction threshold to diagnose the
    /// Fig 5 high-concurrency decline.
    pub gpu_mem_peak_bytes: Vec<f64>,
}

impl ServerReport {
    /// Reduces to the [`ServingSummary`] shape shared with the live server.
    pub fn summary(&self) -> ServingSummary {
        ServingSummary {
            throughput: self.throughput,
            latency: self.latency,
            breakdown: self.breakdown.clone(),
            completed: self.completed,
            mean_batch: self.mean_batch,
        }
    }

    /// Mean seconds a request spent queued (all queues combined).
    pub fn queue_time(&self) -> f64 {
        self.breakdown.mean(stages::QUEUE)
    }

    /// Mean seconds a request spent preprocessing.
    pub fn preproc_time(&self) -> f64 {
        self.breakdown.mean(stages::PREPROC)
    }

    /// Mean seconds a request spent on the RPC leg (network transfer +
    /// frame deserialization) — see [`ServingSummary::rpc_time`].
    pub fn rpc_time(&self) -> f64 {
        self.summary().rpc_time()
    }

    /// Fraction of mean latency spent on the RPC leg — see
    /// [`ServingSummary::rpc_share`].
    pub fn rpc_share(&self) -> f64 {
        self.summary().rpc_share()
    }

    /// Fraction of mean latency spent queued.
    pub fn queue_share(&self) -> f64 {
        self.summary().queue_share()
    }

    /// Fraction of mean latency spent preprocessing.
    pub fn preproc_share(&self) -> f64 {
        self.summary().preproc_share()
    }

    /// Fraction of mean latency spent in DNN inference (the complement of
    /// the paper's "overheads").
    pub fn inference_share(&self) -> f64 {
        self.summary().inference_share()
    }

    /// Fraction of mean latency spent on anything *other than* DNN
    /// inference — see [`ServingSummary::overhead_share`].
    pub fn overhead_share(&self) -> f64 {
        self.summary().overhead_share()
    }

    /// One-line summary for report tables.
    pub fn to_row(&self) -> String {
        self.summary().to_row()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vserve_device::EnergyReport;

    fn report_with(latency_mean: f64, queue: f64, pre: f64, inf: f64) -> ServerReport {
        let mut b = StageBreakdown::new();
        b.record(stages::QUEUE, queue);
        b.record(stages::PREPROC, pre);
        b.record(stages::INFERENCE, inf);
        ServerReport {
            lanes: Vec::new(),
            gpu_mem_peak_bytes: vec![0.0],
            throughput: 100.0,
            latency: LatencySummary {
                count: 1,
                mean: latency_mean,
                std_dev: 0.0,
                min: latency_mean,
                max: latency_mean,
                p50: latency_mean,
                p95: latency_mean,
                p99: latency_mean,
            },
            breakdown: b,
            completed: 1,
            energy: EnergyReport {
                cpu_joules: 0.0,
                gpu_joules: 0.0,
                images: 1,
            },
            cpu_utilization: 0.0,
            gpu_utilization: vec![0.0],
            mean_batch: 1.0,
        }
    }

    #[test]
    fn shares_computed_from_breakdown() {
        let r = report_with(10.0, 5.0, 3.0, 2.0);
        assert!((r.queue_share() - 0.5).abs() < 1e-12);
        assert!((r.preproc_share() - 0.3).abs() < 1e-12);
        assert!((r.inference_share() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn zero_latency_gives_zero_shares() {
        let r = report_with(0.0, 0.0, 0.0, 0.0);
        assert_eq!(r.queue_share(), 0.0);
    }

    #[test]
    fn row_contains_throughput() {
        let r = report_with(1.0, 0.1, 0.2, 0.7);
        assert!(r.to_row().contains("100.0 img/s"));
    }
}
