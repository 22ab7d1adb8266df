//! One run of one workload: the parent's side. Spawns the epoch children,
//! aggregates their values by the benchmark's rules, and (for the traced
//! run) adds the ceilings and the forward probes.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Duration;

use crate::corpus::{self, Corpus};
use crate::epoch::{self, EpochPlan, EpochResult, Mode};
use crate::layers;
use crate::spec::{self, MetricDef, Workload, EPOCH_TIMEOUT, GOLDEN_TOLERANCE};
use crate::stats;

/// Where a run finds its files.
pub struct Ctx {
    /// The `vbench` binary, re-run as the child of every epoch.
    pub exe: PathBuf,
    /// Corpus, traces and result files go here.
    pub out: PathBuf,
    pub golden: PathBuf,
}

/// One reported metric with what backs it.
pub struct Measured {
    pub def: MetricDef,
    pub value: f64,
    /// Epochs (rate-like metrics) or pooled samples (latencies) behind it.
    pub n: usize,
    pub q1: f64,
    pub q3: f64,
    /// The per-epoch values behind a best-quarter mean, in epoch order.
    pub per_epoch: Vec<f64>,
}

pub struct RunOutput {
    pub workload: &'static str,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Measured>,
    /// Per phase: (phase, attempted, succeeded, failed).
    pub phases: Vec<(&'static str, u64, u64, u64)>,
    pub notes: Vec<String>,
}

impl RunOutput {
    pub fn value(&self, name: &str) -> f64 {
        self.metrics
            .iter()
            .find(|m| m.def.name == name)
            .map_or(f64::NAN, |m| m.value)
    }
}

fn def(name: &str) -> MetricDef {
    *spec::END_TO_END
        .iter()
        .chain(&spec::PER_LAYER)
        .find(|d| d.name == name)
        .unwrap_or_else(|| panic!("metric {name} is not declared in spec.rs"))
}

/// Bookkeeping shared by the untraced and the traced run: spawns epochs and
/// keeps the counts a crashed child would otherwise take with it.
struct Epochs<'a> {
    ctx: &'a Ctx,
    w: &'static Workload,
    dir: PathBuf,
    ok: Vec<EpochResult>,
    /// Attempts charged for epochs that died: their open-phase schedule, at
    /// least one each.
    crashed_attempts: u64,
    notes: Vec<String>,
}

impl Epochs<'_> {
    fn run(&mut self, plan: &EpochPlan) -> Option<EpochResult> {
        let cmd = epoch::child_command(&self.ctx.exe, self.w, &self.dir, plan);
        self.finish(plan, epoch::spawn(cmd, EPOCH_TIMEOUT))
    }

    /// A child that crashed or timed out is not dropped: everything it was
    /// scheduled to send in its second phase counts as attempted and failed.
    fn finish(&mut self, plan: &EpochPlan, r: Result<EpochResult, String>) -> Option<EpochResult> {
        match r {
            Ok(r) => {
                self.ok.push(r.clone());
                Some(r)
            }
            Err(e) => {
                let planned = epoch::arrival_offsets(
                    self.w.open_rate_rps,
                    plan.second,
                    plan.seed,
                    plan.index,
                );
                self.crashed_attempts += planned.len().max(1) as u64;
                self.notes.push(format!(
                    "epoch {} ({}) failed: {e}",
                    plan.index,
                    plan.mode.name()
                ));
                None
            }
        }
    }

    fn sum(&self, name: &str) -> u64 {
        self.ok.iter().map(|r| r.get(name) as u64).sum()
    }

    fn phase(&self, label: &'static str, prefix: &str) -> (&'static str, u64, u64, u64) {
        let attempted = self.sum(&format!("{prefix}_attempted"));
        let ok = self.sum(&format!("{prefix}_ok"));
        (label, attempted, ok, attempted - ok)
    }

    /// Output checks every epoch must pass beyond "no failed request".
    fn outputs_correct(&mut self) -> bool {
        let mut good = self.crashed_attempts == 0;
        for r in &self.ok {
            let diff = r.get("golden_max_abs_diff");
            if !(diff <= f64::from(GOLDEN_TOLERANCE)) {
                self.notes
                    .push(format!("golden diff {diff} above {GOLDEN_TOLERANCE}"));
                good = false;
            }
            if r.values.contains_key("net.frames")
                && (r.get("net.frames") != r.get("sent_total") || r.get("net.bad_frames") != 0.0)
            {
                self.notes.push(format!(
                    "server parsed {} frames (+{} bad) for {} requests sent",
                    r.get("net.frames"),
                    r.get("net.bad_frames"),
                    r.get("sent_total")
                ));
                good = false;
            }
        }
        good
    }
}

fn rate_metric(name: &str, per_epoch: &[f64]) -> Measured {
    let q = stats::quartiles(per_epoch);
    let def = def(name);
    Measured {
        def,
        value: stats::best_quarter_mean(per_epoch, def.higher_is_better),
        n: per_epoch.len(),
        q1: q[0],
        q3: q[2],
        per_epoch: per_epoch.to_vec(),
    }
}

fn prepare<'a>(
    ctx: &'a Ctx,
    w: &'static Workload,
    seed: u64,
) -> Result<(Corpus, Epochs<'a>), String> {
    let corpus = corpus::prepare(&ctx.out, &ctx.golden, w, seed, false)?;
    let epochs = Epochs {
        ctx,
        w,
        dir: corpus::corpus_dir(&ctx.out, w, seed),
        ok: Vec::new(),
        crashed_attempts: 0,
        notes: Vec::new(),
    };
    Ok((corpus, epochs))
}

fn wire_plan(mode: Mode, index: usize, seed: u64, closed: Duration, second: Duration) -> EpochPlan {
    EpochPlan {
        mode,
        index,
        seed,
        closed,
        second,
        trace_out: PathBuf::new(),
    }
}

/// Share of an epoch's measured time given to the closed phase; the open
/// phase gets the rest: latency percentiles need the samples more than the
/// two best closed phases need the length.
const CLOSED_SHARE: f64 = 0.4;

/// Pooled samples that leave ten beyond the 95th percentile.
const P95_MIN_SAMPLES: usize = 200;

/// The untraced run: `epochs` fresh processes sharing `seconds` equally, each
/// a closed phase and an open phase. Every end-to-end metric comes from here.
pub fn untraced(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    epochs: usize,
) -> Result<RunOutput, String> {
    let (_, mut ep) = prepare(ctx, w, seed)?;
    let closed = Duration::from_secs_f64(CLOSED_SHARE * seconds / epochs as f64);
    let open = Duration::from_secs_f64((1.0 - CLOSED_SHARE) * seconds / epochs as f64);
    // Open-phase samples per surviving epoch; failed requests go to the pool
    // whichever epochs are selected below.
    let mut per_epoch: Vec<Vec<f64>> = Vec::new();
    let mut failures = 0usize;
    for i in 0..epochs {
        if let Some(r) = ep.run(&wire_plan(Mode::Wire, i, seed, closed, open)) {
            let (ok, bad): (Vec<f64>, Vec<f64>) =
                r.latencies_ms.iter().partition(|l| l.is_finite());
            failures += bad.len();
            per_epoch.push(stats::sorted(ok));
        }
    }
    failures += ep.crashed_attempts as usize;
    if ep.ok.is_empty() {
        return Err(format!("every epoch failed: {}", ep.notes.join("; ")));
    }
    let per = |f: &dyn Fn(&EpochResult) -> f64| ep.ok.iter().map(f).collect::<Vec<_>>();
    // Latencies pool the quietest epochs, ranked by their own median: at
    // least half of them, and as many more as a 95th percentile needs.
    per_epoch.sort_by(|a, b| stats::percentile(a, 50.0).total_cmp(&stats::percentile(b, 50.0)));
    let mut pooled = Vec::new();
    for (k, samples) in per_epoch.iter().enumerate() {
        if k >= per_epoch.len().div_ceil(2) && pooled.len() >= P95_MIN_SAMPLES {
            break;
        }
        pooled.extend_from_slice(samples);
    }
    pooled.extend(std::iter::repeat(f64::INFINITY).take(failures));
    let pooled = stats::sorted(pooled);
    let lat = |name, pct| Measured {
        def: def(name),
        value: stats::percentile(&pooled, pct),
        n: pooled.len(),
        q1: stats::percentile(&pooled, 25.0),
        q3: stats::percentile(&pooled, 75.0),
        per_epoch: Vec::new(),
    };
    let metrics = vec![
        rate_metric(
            "throughput_rps",
            &per(&|r| r.get("closed_ok") / r.get("closed_wall_s")),
        ),
        lat("latency_p50_ms", 50.0),
        lat("latency_p95_ms", 95.0),
        rate_metric(
            "cpu_ms_per_req",
            &per(&|r| 1e3 * r.get("closed_cpu_s") / r.get("closed_ok").max(1.0)),
        ),
        rate_metric("peak_rss_mb", &per(&|r| r.get("peak_rss_mb"))),
        rate_metric("setup_s", &per(&|r| r.get("setup_s"))),
    ];
    if stats::beyond(pooled.len(), 95.0) < 10 {
        ep.notes.push(format!(
            "latency_p95_ms has only {} samples beyond it ({} pooled)",
            stats::beyond(pooled.len(), 95.0),
            pooled.len()
        ));
    }
    open_phase_validity(&mut ep);
    let phases = vec![ep.phase("closed", "closed"), ep.phase("open", "open")];
    finish(ep, metrics, phases)
}

/// The open phase is only a fair latency measurement if the generator kept
/// its schedule; say so when it did not (latencies stay, measured from the
/// due time they already include the delay).
fn open_phase_validity(ep: &mut Epochs<'_>) {
    for (i, r) in ep.ok.iter().enumerate() {
        if !r.values.contains_key("client.lateness_p95_ms") {
            continue;
        }
        let (late, achieved) = (
            r.get("client.lateness_p95_ms"),
            r.get("client.achieved_rate_frac"),
        );
        if late > 1.0 || achieved < 0.98 {
            ep.notes.push(format!(
                "open phase {i}: generator lateness p95 {late:.3} ms, achieved rate {achieved:.3}"
            ));
        }
    }
}

fn finish(
    mut ep: Epochs<'_>,
    metrics: Vec<Measured>,
    phases: Vec<(&'static str, u64, u64, u64)>,
) -> Result<RunOutput, String> {
    let outputs_ok = ep.outputs_correct();
    let attempted: u64 = phases.iter().map(|p| p.1).sum::<u64>() + ep.crashed_attempts;
    let failed: u64 = phases.iter().map(|p| p.3).sum::<u64>() + ep.crashed_attempts;
    Ok(RunOutput {
        workload: ep.w.name,
        correct: outputs_ok && failed == 0,
        attempted: attempted.max(1),
        failed,
        metrics,
        phases,
        notes: ep.notes,
    })
}

fn probe_command(
    exe: &Path,
    w: &Workload,
    dir: &Path,
    at_batch: usize,
    budget: Duration,
) -> Command {
    let mut cmd = Command::new(exe);
    cmd.arg("--forward-probe")
        .args(["--workload", w.name])
        .arg("--corpus")
        .arg(dir)
        .args(["--at-batch", &at_batch.to_string()])
        .args(["--budget-ms", &budget.as_millis().to_string()]);
    cmd
}

/// The traced run: every per-layer metric. A third of `seconds` goes to two
/// untraced and two traced wire epochs (alternating, so their closed phases
/// pair up for the tracing overhead), an eighth to two in-process epochs, and
/// the rest to eight forward probes and the in-parent ceilings.
pub fn traced(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
) -> Result<RunOutput, String> {
    let (corpus, mut ep) = prepare(ctx, w, seed)?;
    let phase = Duration::from_secs_f64(seconds / 16.0);
    let w1 = Duration::from_secs_f64(seconds / 24.0);
    let trace_file = ctx.out.join(format!("trace_{}.json", w.name));
    let (mut wire, mut tr, mut inproc) = (Vec::new(), Vec::new(), Vec::new());
    for i in 0..2 {
        wire.extend(ep.run(&wire_plan(Mode::Wire, i, seed, phase, phase)));
        let mut plan = wire_plan(Mode::WireTraced, i, seed, phase, w1);
        if i == 0 {
            plan.trace_out = trace_file.clone();
        }
        tr.extend(ep.run(&plan));
        inproc.extend(ep.run(&wire_plan(Mode::Inproc, i, seed, phase, Duration::ZERO)));
    }
    if wire.is_empty() || tr.is_empty() || inproc.is_empty() {
        return Err(format!(
            "a whole epoch kind failed: {}",
            ep.notes.join("; ")
        ));
    }
    let avg = |rs: &[EpochResult], name: &str| {
        stats::mean(&rs.iter().map(|r| r.get(name)).collect::<Vec<_>>())
    };
    let rps = |rs: &[EpochResult]| {
        stats::mean(
            &rs.iter()
                .map(|r| r.get("closed_ok") / r.get("closed_wall_s"))
                .collect::<Vec<_>>(),
        )
    };

    let at_batch = (avg(&wire, "server.mean_batch").round() as usize).clamp(1, 8);
    let probe_budget = Duration::from_secs_f64(seconds / 64.0);
    let mut probes = Vec::new();
    for i in 0..8 {
        let cmd = probe_command(&ctx.exe, w, &ep.dir, at_batch, probe_budget);
        match epoch::spawn(cmd, EPOCH_TIMEOUT) {
            Ok(r) => probes.push(r),
            Err(e) => ep.notes.push(format!("forward probe {i} failed: {e}")),
        }
    }
    if probes.is_empty() {
        return Err(format!(
            "every forward probe failed: {}",
            ep.notes.join("; ")
        ));
    }
    let ceil = layers::ceilings(w, &corpus, Duration::from_secs_f64(seconds / 4.0));

    let mut v: BTreeMap<&'static str, f64> = ceil;
    // client / net / server: what the replies and the public metrics carry,
    // averaged over the two untraced epochs.
    for name in [
        "client.serialize_us",
        "client.round_trip_us",
        "net.transfer_us",
        "net.deserialize_us",
        "server.queue_us",
        "server.preproc_us",
        "server.inference_us",
        "server.total_us",
        "server.mean_batch",
        "server.forward_calls_per_req",
        "server.cache_hit_frac",
        "server.cache_evictions_per_req",
        "server.coalesced_frac",
    ] {
        v.insert(name, avg(&wire, name));
    }
    let sum = |name: &str| ep.ok.iter().map(|r| r.get(name)).sum::<f64>();
    for name in [
        "net.frames",
        "net.bad_frames",
        "server.rejected",
        "server.expired",
    ] {
        v.insert(name, sum(name));
    }
    let worst = |name: &str, pick: fn(f64, f64) -> f64| {
        wire.iter().map(|r| r.get(name)).reduce(pick).unwrap_or(0.0)
    };
    v.insert(
        "client.lateness_p95_ms",
        worst("client.lateness_p95_ms", f64::max),
    );
    v.insert(
        "client.achieved_rate_frac",
        worst("client.achieved_rate_frac", f64::min),
    );
    let pooled = stats::sorted(
        wire.iter()
            .flat_map(|r| r.latencies_ms.iter().copied())
            .collect(),
    );
    let tail_pct = stats::highest_supported(pooled.len(), 10);
    v.insert("client.latency_tail_pct", tail_pct);
    v.insert(
        "client.latency_tail_ms",
        stats::percentile(&pooled, tail_pct),
    );
    let missed = pooled.iter().filter(|&&l| !(l <= w.slo_ms)).count();
    v.insert(
        "client.slo_miss_frac",
        missed as f64 / pooled.len().max(1) as f64,
    );
    // NetResult::round_trip starts after serialization, so only the server's
    // residency is taken off it.
    v.insert(
        "net.wire_residual_us",
        v["client.round_trip_us"] - v["server.total_us"],
    );
    v.insert(
        "server.residual_us",
        v["server.total_us"]
            - v["net.transfer_us"]
            - v["net.deserialize_us"]
            - v["server.queue_us"]
            - v["server.preproc_us"]
            - v["server.inference_us"],
    );
    v.insert("server.inproc_rps", rps(&inproc));
    v.insert("net.wire_over_inproc", rps(&wire) / rps(&inproc));

    // dnn: medians over the eight fresh processes, and their spread.
    for name in [
        "dnn.forward_b1_us",
        "dnn.forward_b8_us",
        "dnn.forward_at_batch_us",
        "dnn.flops_per_item",
    ] {
        v.insert(
            name,
            stats::median(&probes.iter().map(|r| r.get(name)).collect::<Vec<_>>()),
        );
    }
    let b8: Vec<f64> = probes.iter().map(|r| r.get("dnn.forward_b8_us")).collect();
    let (lo, hi) = b8
        .iter()
        .fold((f64::MAX, 0.0f64), |(lo, hi), &x| (lo.min(x), hi.max(x)));
    v.insert(
        "dnn.forward_b8_spread_frac",
        (hi - lo) / v["dnn.forward_b8_us"],
    );
    v.insert(
        "dnn.gflops_b8",
        8.0 * v["dnn.flops_per_item"] / v["dnn.forward_b8_us"] / 1e3,
    );
    v.insert(
        "server.preproc_over_ceiling",
        v["server.preproc_us"] / v["codec.preprocess_us"],
    );
    v.insert(
        "server.inference_over_ceiling",
        avg(&wire, "closed_forward_wall_us") / v["dnn.forward_at_batch_us"],
    );

    // trace: the traced epochs against their untraced neighbours.
    v.insert("trace.overhead_frac", 1.0 - rps(&tr) / rps(&wire));
    for name in ["trace.spans_per_req", "trace.unattributed_frac"] {
        v.insert(name, avg(&tr, name));
    }
    v.insert(
        "trace.dropped_spans",
        tr.iter().map(|r| r.get("trace.dropped_spans")).sum(),
    );
    v.insert("workload.corpus_gen_s", corpus.gen_s);
    v.insert("workload.distinct_images", corpus.images.len() as f64);
    let diff = ep
        .ok
        .iter()
        .map(|r| r.get("golden_max_abs_diff"))
        .fold(0.0, f64::max);
    v.insert("workload.golden_max_abs_diff", diff);

    if v["trace.dropped_spans"] != 0.0 {
        ep.notes
            .push(format!("tracer dropped {} spans", v["trace.dropped_spans"]));
    }
    ep.notes
        .push(format!("chrome trace: {}", trace_file.display()));
    open_phase_validity(&mut ep);
    let epochs = ep.ok.len();
    let metrics = spec::PER_LAYER
        .iter()
        .map(|d| {
            let value = *v
                .get(d.name)
                .unwrap_or_else(|| panic!("per-layer metric {} was not measured", d.name));
            Measured {
                def: *d,
                value,
                n: epochs,
                q1: value,
                q3: value,
                per_epoch: Vec::new(),
            }
        })
        .collect();
    let phases = vec![
        ep.phase("closed", "closed"),
        ep.phase("open", "open"),
        ep.phase("window-1", "w1"),
    ];
    finish(ep, metrics, phases)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn epoch_with(values: &[(&str, f64)]) -> EpochResult {
        EpochResult {
            values: values.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect(),
            latencies_ms: Vec::new(),
        }
    }

    #[test]
    fn a_crashed_epoch_counts_as_failed_attempts() {
        let ctx = Ctx {
            exe: PathBuf::new(),
            out: PathBuf::new(),
            golden: PathBuf::new(),
        };
        let w = &spec::WORKLOADS[3];
        let mut ep = Epochs {
            ctx: &ctx,
            w,
            dir: PathBuf::new(),
            ok: Vec::new(),
            crashed_attempts: 0,
            notes: Vec::new(),
        };
        let second = Duration::from_secs(2);
        let plan = wire_plan(Mode::Wire, 5, 1, second, second);
        let good = epoch_with(&[
            ("closed_attempted", 100.0),
            ("closed_ok", 100.0),
            ("open_attempted", 80.0),
            ("open_ok", 80.0),
            ("net.frames", 196.0),
            ("sent_total", 196.0),
        ]);
        assert!(ep.finish(&plan, Ok(good)).is_some());
        assert!(ep
            .finish(&plan, Err("timed out after 60.0 s and was killed".into()))
            .is_none());

        let scheduled = epoch::arrival_offsets(w.open_rate_rps, second, 1, 5).len() as u64;
        assert!(scheduled > 30, "{scheduled}");
        let phases = vec![ep.phase("closed", "closed"), ep.phase("open", "open")];
        let out = finish(ep, Vec::new(), phases).unwrap();
        assert_eq!(out.attempted, 180 + scheduled);
        assert_eq!(
            out.failed, scheduled,
            "the dead epoch's schedule is failed, not dropped"
        );
        assert!(!out.correct);
        assert!(out
            .notes
            .iter()
            .any(|n| n.contains("epoch 5 (wire) failed: timed out")));
    }

    #[test]
    fn frames_must_equal_requests_sent_and_goldens_must_match() {
        let ctx = Ctx {
            exe: PathBuf::new(),
            out: PathBuf::new(),
            golden: PathBuf::new(),
        };
        let mut ep = Epochs {
            ctx: &ctx,
            w: &spec::WORKLOADS[0],
            dir: PathBuf::new(),
            ok: vec![epoch_with(&[("net.frames", 10.0), ("sent_total", 10.0)])],
            crashed_attempts: 0,
            notes: Vec::new(),
        };
        assert!(ep.outputs_correct());
        ep.ok
            .push(epoch_with(&[("net.frames", 9.0), ("sent_total", 10.0)]));
        assert!(!ep.outputs_correct());
        ep.ok = vec![epoch_with(&[("golden_max_abs_diff", 1e-3)])];
        assert!(!ep.outputs_correct());
        ep.ok = vec![epoch_with(&[("golden_max_abs_diff", f64::NAN)])];
        assert!(!ep.outputs_correct());
    }
}
