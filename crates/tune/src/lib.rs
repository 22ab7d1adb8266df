//! Online self-tuning controller for the live serving stack.
//!
//! The paper's takeaway is that end-to-end serving latency is governed as
//! much by the configuration around the model — batch size, batch linger,
//! the CPU split between preprocessing and compute, cache budget — as by
//! the model itself, and that the best configuration shifts with offered
//! load and image mix. This crate closes the loop: a [`Tuner`] thread
//! scrapes the live server's windowed latency at a fixed cadence and
//! hill-climbs its runtime knobs against a latency objective, instead of
//! freezing a grid-swept configuration at deploy time.
//!
//! Three layers:
//!
//! * [`HillClimber`] — the pure policy: a gradient-free coordinate probe
//!   with hysteresis (a move must *clearly* improve the objective to
//!   stick), per-knob step limits and clamps, a rollback guardrail that
//!   reverts any move that regresses, and a load-shift detector that
//!   re-baselines when throughput steps. Deterministic and fully unit
//!   testable without a server.
//! * [`Tuner`] — the live harness: a background thread that drains
//!   `LiveServer::take_latency_window`, feeds the climber, and applies
//!   accepted moves through the server's runtime setters.
//! * [`replay_experiment`] — the sim mirror: runs the *same* policy inside
//!   `Experiment::run_open_controlled`, so a tuning strategy can be
//!   validated against calibrated step-load curves in milliseconds.
//!
//! # Examples
//!
//! Pure policy, synthetic world — the climber walks linger down when
//! lower linger means lower latency:
//!
//! ```
//! use vserve_tune::{HillClimber, Knobs, Observation, TuneOptions};
//!
//! let mut opts = TuneOptions::default();
//! opts.hysteresis = 0.0; // accept any improvement
//! let mut climber = HillClimber::new(opts);
//! let mut knobs = Knobs { max_batch: 8, linger_us: 20_000, preproc_workers: 2,
//!                         backend_threads: 0, cache_bytes: 0 };
//! for _ in 0..200 {
//!     let mean = 1e-6 * knobs.linger_us as f64 + 1.0 / (4.0 + knobs.max_batch as f64);
//!     let obs = Observation { completed: 500, mean_latency_s: mean, p50_s: mean,
//!                             p99_s: 2.0 * mean, throughput: 1000.0 };
//!     climber.tick(obs, &mut knobs);
//! }
//! assert!(knobs.linger_us < 1000, "linger {}", knobs.linger_us);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use vserve_server::live::LiveServer;
use vserve_server::{Experiment, ServerReport};
use vserve_workload::Arrivals;

/// Enables the controller in binaries that consult the environment
/// (`1`/`true`/`on`); see [`TuneOptions::enabled_from_env`].
///
/// Interaction with `VSERVE_TENANTS`: on a multi-tenant server (more
/// than one lane) the tuner starts **frozen** — the thread is never
/// spawned and no knob is ever written. The scheduler owns per-lane
/// batch/linger on such servers, and a global hill-climber stomping
/// every lane's assembly knobs each interval would oscillate against
/// the fairness policy (tuner widens linger → LC lane tail grows →
/// tuner narrows it back, forever). `VSERVE_TUNE=1` is therefore a
/// no-op alongside a multi-tenant `VSERVE_TENANTS`; use the per-lane
/// setters (`set_lane_max_batch` / `set_lane_batch_linger`) instead.
pub const TUNE_ENV: &str = "VSERVE_TUNE";
/// Overrides the control interval in milliseconds.
pub const TUNE_INTERVAL_MS_ENV: &str = "VSERVE_TUNE_INTERVAL_MS";
/// Sets the p99 latency target in milliseconds; over-target tails are
/// penalized in the objective.
pub const TUNE_P99_TARGET_MS_ENV: &str = "VSERVE_TUNE_P99_TARGET_MS";

/// Default control cadence.
pub const DEFAULT_INTERVAL: Duration = Duration::from_millis(200);

// Per-knob clamps: the climber never proposes a value outside these, no
// matter what the objective says.
const MAX_BATCH_MIN: usize = 1;
const MAX_BATCH_MAX: usize = 64;
const LINGER_MIN_US: u64 = 50;
const LINGER_MAX_US: u64 = 50_000;
const PREPROC_MIN: usize = 1;
const PREPROC_MAX: usize = 16;
const CACHE_STEP_BYTES: usize = 8 << 20;

/// Weight of the p99-over-target hinge in the objective, in units of
/// "seconds of mean latency per second of excess tail".
const P99_PENALTY: f64 = 10.0;

/// Controller configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TuneOptions {
    /// Control cadence: one observation window and at most one knob move
    /// per interval.
    pub interval: Duration,
    /// Optional p99 target; windows whose p99 exceeds it add a hinge
    /// penalty to the objective, steering the climber toward tail-safe
    /// configurations even when the mean alone would not.
    pub p99_target: Option<Duration>,
    /// Relative improvement a probe must show to be accepted
    /// (hysteresis). Below it the move is rolled back, so measurement
    /// noise cannot walk the knobs.
    pub hysteresis: f64,
    /// Relative throughput change treated as a load shift: the climber
    /// abandons the current probe baseline and re-explores.
    pub load_shift: f64,
    /// Observation windows to discard before the first probe.
    pub warmup_ticks: u32,
    /// Windows to hold (no probing) after two consecutive laps of the
    /// axes yield only rollbacks — the knobs sit at a local optimum, so
    /// continuous probing would just tax latency with futile excursions.
    /// Consecutive settles double the hold (capped at 8×), so a converged
    /// server is probed ever more rarely. `0` probes every window. A load
    /// shift or any kept move ends the hold / resets the backoff.
    pub settle_ticks: u32,
    /// Tune `max_batch` and batch linger.
    pub tune_batching: bool,
    /// Tune the preproc-worker / backend-thread split.
    pub tune_threads: bool,
    /// Tune the preproc cache byte budget.
    pub tune_cache: bool,
}

impl Default for TuneOptions {
    fn default() -> Self {
        TuneOptions {
            interval: DEFAULT_INTERVAL,
            p99_target: None,
            hysteresis: 0.03,
            load_shift: 0.25,
            warmup_ticks: 2,
            settle_ticks: 6,
            tune_batching: true,
            tune_threads: true,
            tune_cache: true,
        }
    }
}

impl TuneOptions {
    /// Reads [`TUNE_INTERVAL_MS_ENV`] and [`TUNE_P99_TARGET_MS_ENV`] over
    /// the defaults. Unset or unparsable values fall back silently, like
    /// the rest of the suite's env knobs.
    pub fn from_env() -> Self {
        let mut opts = TuneOptions::default();
        if let Some(ms) = read_env_u64(TUNE_INTERVAL_MS_ENV) {
            if ms > 0 {
                opts.interval = Duration::from_millis(ms);
            }
        }
        if let Some(ms) = read_env_u64(TUNE_P99_TARGET_MS_ENV) {
            if ms > 0 {
                opts.p99_target = Some(Duration::from_millis(ms));
            }
        }
        opts
    }

    /// Whether [`TUNE_ENV`] asks for the controller (`1`, `true`, `on`,
    /// case-insensitive). Off by default: self-reconfiguration is opt-in.
    pub fn enabled_from_env() -> bool {
        match std::env::var(TUNE_ENV) {
            Ok(v) => matches!(v.to_ascii_lowercase().as_str(), "1" | "true" | "on"),
            Err(_) => false,
        }
    }
}

fn read_env_u64(key: &str) -> Option<u64> {
    std::env::var(key).ok()?.trim().parse().ok()
}

/// One control window's measurements, as seen by the policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Requests completed in the window.
    pub completed: u64,
    /// Mean round-trip latency over the window, seconds.
    pub mean_latency_s: f64,
    /// Median round-trip latency over the window, seconds (`0.0` when the
    /// deployment cannot compute one; the objective then falls back to
    /// the mean).
    pub p50_s: f64,
    /// p99 round-trip latency over the window, seconds.
    pub p99_s: f64,
    /// Completions per second over the window.
    pub throughput: f64,
}

/// The knob vector the policy optimizes. Mirrors the live server's
/// runtime setters; a deployment without a given knob (e.g. the sim has
/// no compute backend or cache) sets it to `0` and the climber skips the
/// corresponding axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Knobs {
    /// Batch size cap.
    pub max_batch: usize,
    /// Batch linger, microseconds.
    pub linger_us: u64,
    /// Preprocessing worker threads.
    pub preproc_workers: usize,
    /// Compute backend threads (`0` = not tunable here; the worker-split
    /// axis then steps `preproc_workers` alone).
    pub backend_threads: usize,
    /// Preproc cache budget in bytes (`0` = disabled / not tunable).
    pub cache_bytes: usize,
}

/// What the climber did with an observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// No knob change (warming up, empty window, or nothing movable).
    Hold,
    /// Applied a trial move; the next window judges it.
    Probe,
    /// The pending trial improved the objective and was kept.
    Accept,
    /// The pending trial left the objective flat but moved toward less
    /// speculative waiting (smaller linger or batch cap), so it was kept.
    /// Drift lets multiplicative steps compound across a flat region of
    /// the objective — e.g. any linger longer than the arrival spacing
    /// measures the same, and a single step cannot cross the whole band.
    Drift,
    /// The pending trial regressed (or was flat with no safe lean) and
    /// was reverted.
    Rollback,
    /// Throughput shifted; probe state discarded and re-baselined.
    Reset,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Axis {
    MaxBatch,
    Linger,
    WorkerSplit,
    Cache,
}

#[derive(Debug, Clone, Copy)]
enum State {
    Warmup(u32),
    Baseline,
    Probing {
        prev: Knobs,
        axis: usize,
        dir: i8,
        baseline_obj: f64,
    },
    /// At a local optimum (a whole lap of probes rolled back): hold for
    /// the remaining count of windows before probing again. Consecutive
    /// settles back off exponentially (see `nap_mult`).
    Settled(u32),
}

/// Baseline windows kept for the robust probe reference.
const BASE_HIST: usize = 3;
/// Cap on the settle-nap backoff multiplier.
const NAP_MULT_MAX: u32 = 8;

/// Gradient-free coordinate hill-climber over [`Knobs`].
///
/// Each accepted observation either *opens* a probe (apply one bounded
/// move on one axis, round-robin) or *judges* the pending probe against
/// the pre-move objective: kept if it improved by more than the
/// hysteresis margin, kept-as-[`Drift`](Decision::Drift) if it stayed
/// flat while shrinking linger or the batch cap, reverted otherwise. A
/// kept move gives its axis momentum — the same axis is probed again
/// next, so a monotone direction is walked at two ticks per step instead
/// of one step per round-robin lap. Probes are judged against the
/// *median of the last few baseline windows*, not the single pre-move
/// window: one noisy-fast baseline window would otherwise set an
/// unbeatable bar (vetoing a genuine improvement), and one noisy-slow
/// window would invite a spurious accept that walks the knobs. Two
/// consecutive laps of rollbacks settle the climber: it stops probing
/// for `settle_ticks` windows, and each consecutive settle doubles the
/// nap (capped at 8×) — once converged, the probe duty cycle and its
/// latency tax shrink toward zero, while any kept move or load shift
/// snaps the nap back to its base length. A throughput step larger than
/// `load_shift` discards the stale baseline (and ends any settle hold).
/// The objective is `p50 + 10·max(0, p99 − target)` — window-median
/// latency (robust against a host stall inflating a short window's
/// mean), tail-penalized.
#[derive(Debug)]
pub struct HillClimber {
    opts: TuneOptions,
    state: State,
    axes: Vec<Axis>,
    /// Preferred probe direction per axis; flipped on rollback so the
    /// next probe on that axis tries the other way.
    dirs: Vec<i8>,
    next_axis: usize,
    /// Consecutive rollbacks since the last kept move; a full lap of them
    /// means no axis has anywhere better to go right now.
    futile_lap: usize,
    /// Objectives of recent windows measured under the *kept* knobs
    /// (baseline and settled windows; never probe windows). Probes are
    /// judged against the median of these.
    base_hist: Vec<f64>,
    /// Settle-nap backoff: doubles on each consecutive settle (cap
    /// [`NAP_MULT_MAX`]), resets to 1 on any kept move or load shift.
    nap_mult: u32,
    last_throughput: f64,
    /// preproc + backend thread total, captured at the first tick;
    /// the worker-split axis conserves it.
    total_threads: Option<usize>,
    /// Cache budget ceiling (2× the starting budget), captured at the
    /// first tick with a non-zero budget.
    cache_cap: usize,
    initialized: bool,
}

impl HillClimber {
    /// Creates a climber; axes are bound to the knob vector on the first
    /// [`tick`](Self::tick).
    pub fn new(opts: TuneOptions) -> Self {
        HillClimber {
            opts,
            state: State::Warmup(opts.warmup_ticks),
            axes: Vec::new(),
            dirs: Vec::new(),
            next_axis: 0,
            futile_lap: 0,
            base_hist: Vec::new(),
            nap_mult: 1,
            last_throughput: 0.0,
            total_threads: None,
            cache_cap: 0,
            initialized: false,
        }
    }

    fn objective(&self, obs: &Observation) -> f64 {
        // Prefer the window median: control windows are short (tens of
        // samples), and a single host-level stall burst inflates such a
        // window's mean severalfold, which reads as a spurious probe
        // verdict. The median shrugs off the burst; the p99 hinge below
        // still charges for a genuinely degraded tail.
        let mut obj = if obs.p50_s > 0.0 {
            obs.p50_s
        } else {
            obs.mean_latency_s
        };
        if let Some(target) = self.opts.p99_target {
            obj += P99_PENALTY * (obs.p99_s - target.as_secs_f64()).max(0.0);
        }
        obj
    }

    fn bind_axes(&mut self, knobs: &Knobs) {
        if self.opts.tune_batching {
            self.axes.push(Axis::MaxBatch);
            self.axes.push(Axis::Linger);
        }
        if self.opts.tune_threads {
            if knobs.backend_threads > 0 {
                self.total_threads = Some(knobs.preproc_workers + knobs.backend_threads);
            }
            self.axes.push(Axis::WorkerSplit);
        }
        if self.opts.tune_cache && knobs.cache_bytes > 0 {
            self.cache_cap = (knobs.cache_bytes * 2).max(CACHE_STEP_BYTES);
            self.axes.push(Axis::Cache);
        }
        self.dirs = vec![1; self.axes.len()];
        self.initialized = true;
    }

    /// Applies one bounded move on `axis`; `false` if the knob is already
    /// at the clamp in that direction.
    fn step(&self, axis: Axis, dir: i8, knobs: &mut Knobs) -> bool {
        match axis {
            Axis::MaxBatch => {
                let step = (knobs.max_batch / 4).max(1);
                let next = if dir > 0 {
                    (knobs.max_batch + step).min(MAX_BATCH_MAX)
                } else {
                    knobs.max_batch.saturating_sub(step).max(MAX_BATCH_MIN)
                };
                let moved = next != knobs.max_batch;
                knobs.max_batch = next;
                moved
            }
            Axis::Linger => {
                let next = if dir > 0 {
                    knobs.linger_us.saturating_mul(3) / 2
                } else {
                    knobs.linger_us * 2 / 3
                }
                .clamp(LINGER_MIN_US, LINGER_MAX_US);
                let moved = next != knobs.linger_us;
                knobs.linger_us = next;
                moved
            }
            Axis::WorkerSplit => match self.total_threads {
                // Conserved split: a worker moves between the pools.
                Some(total) => {
                    if dir > 0 && knobs.backend_threads > 1 {
                        knobs.preproc_workers += 1;
                        knobs.backend_threads = total - knobs.preproc_workers;
                        true
                    } else if dir < 0 && knobs.preproc_workers > 1 {
                        knobs.preproc_workers -= 1;
                        knobs.backend_threads = total - knobs.preproc_workers;
                        true
                    } else {
                        false
                    }
                }
                // No backend knob (sim replay): step the pool alone.
                None => {
                    let next = if dir > 0 {
                        (knobs.preproc_workers + 1).min(PREPROC_MAX)
                    } else {
                        knobs.preproc_workers.saturating_sub(1).max(PREPROC_MIN)
                    };
                    let moved = next != knobs.preproc_workers;
                    knobs.preproc_workers = next;
                    moved
                }
            },
            Axis::Cache => {
                let next = if dir > 0 {
                    (knobs.cache_bytes + CACHE_STEP_BYTES).min(self.cache_cap)
                } else {
                    knobs.cache_bytes.saturating_sub(CACHE_STEP_BYTES)
                };
                let moved = next != knobs.cache_bytes;
                knobs.cache_bytes = next;
                moved
            }
        }
    }

    /// The direction on `axis` that is cost-free when the objective is
    /// flat: less speculative waiting. Splitting threads or sizing the
    /// cache has no such lean — a flat move there is just wandering.
    fn lean(axis: Axis) -> Option<i8> {
        match axis {
            Axis::MaxBatch | Axis::Linger => Some(-1),
            Axis::WorkerSplit | Axis::Cache => None,
        }
    }

    /// Records one window measured under the kept knobs.
    fn push_baseline(&mut self, obj: f64) {
        self.base_hist.push(obj);
        if self.base_hist.len() > BASE_HIST {
            self.base_hist.remove(0);
        }
    }

    /// The probe reference: median of the recent kept-knob windows, so a
    /// single noisy window (fast or slow) cannot decide a probe alone.
    fn robust_baseline(&self) -> f64 {
        let mut v = self.base_hist.clone();
        v.sort_by(|a, b| a.total_cmp(b));
        v[v.len() / 2]
    }

    /// Opens a probe on the next movable axis (round-robin, preferred
    /// direction first, then the other).
    fn open_probe(&mut self, obs: &Observation, knobs: &mut Knobs) -> Decision {
        self.push_baseline(self.objective(obs));
        let baseline_obj = self.robust_baseline();
        for _ in 0..self.axes.len() {
            let i = self.next_axis;
            self.next_axis = (self.next_axis + 1) % self.axes.len();
            let axis = self.axes[i];
            let prev = *knobs;
            let preferred = self.dirs[i];
            if self.step(axis, preferred, knobs) {
                self.state = State::Probing {
                    prev,
                    axis: i,
                    dir: preferred,
                    baseline_obj,
                };
                return Decision::Probe;
            }
            // Clamped in the preferred direction: flip and try once.
            self.dirs[i] = -preferred;
            if self.step(axis, -preferred, knobs) {
                self.state = State::Probing {
                    prev,
                    axis: i,
                    dir: -preferred,
                    baseline_obj,
                };
                return Decision::Probe;
            }
            *knobs = prev;
        }
        Decision::Hold
    }

    /// Feeds one observation window; may mutate `knobs` (one bounded move
    /// or one revert). The caller applies whatever changed.
    pub fn tick(&mut self, obs: Observation, knobs: &mut Knobs) -> Decision {
        if !self.initialized {
            self.bind_axes(knobs);
        }
        // An empty window judges nothing: keep any pending probe open.
        if obs.completed == 0 {
            return Decision::Hold;
        }
        if let State::Warmup(n) = self.state {
            if n > 0 {
                self.state = State::Warmup(n - 1);
                self.last_throughput = obs.throughput;
                return Decision::Hold;
            }
            self.state = State::Baseline;
        }
        // Offered load stepped: the pre-move objective is stale, so keep
        // the current knobs (the environment changed, not the move) and
        // start a fresh baseline. The very first window has no reference
        // point, so it only records one.
        if self.last_throughput > 0.0 {
            let shift = (obs.throughput - self.last_throughput).abs()
                / self.last_throughput.max(obs.throughput);
            if shift > self.opts.load_shift {
                self.last_throughput = obs.throughput;
                self.state = State::Baseline;
                self.futile_lap = 0;
                self.base_hist.clear();
                self.nap_mult = 1;
                return Decision::Reset;
            }
        }
        self.last_throughput = obs.throughput;
        match self.state {
            State::Warmup(_) => unreachable!("cleared above"),
            State::Settled(n) => {
                // This window is one of the n held ones; it ran under the
                // kept knobs, so it also feeds the baseline history.
                let obj = self.objective(&obs);
                self.push_baseline(obj);
                self.state = if n > 1 {
                    State::Settled(n - 1)
                } else {
                    State::Baseline
                };
                Decision::Hold
            }
            State::Baseline => self.open_probe(&obs, knobs),
            State::Probing {
                prev,
                axis,
                dir,
                baseline_obj,
            } => {
                let obj = self.objective(&obs);
                self.state = State::Baseline;
                if obj < baseline_obj * (1.0 - self.opts.hysteresis) {
                    // Momentum: re-probe the winning axis immediately. The
                    // kept knobs changed, so the old baseline history no
                    // longer describes them.
                    self.next_axis = axis;
                    self.futile_lap = 0;
                    self.base_hist.clear();
                    self.nap_mult = 1;
                    Decision::Accept
                } else if obj <= baseline_obj * (1.0 + 2.0 * self.opts.hysteresis)
                    && Self::lean(self.axes[axis]) == Some(dir)
                {
                    // The drift band is twice the accept band: a lean move
                    // is cost-free when the objective is truly flat, so a
                    // window reading a few percent high is more likely
                    // measurement noise than a real knee — and a genuine
                    // overshoot past the knee regresses far beyond this
                    // band and still rolls back on the next probe. A flat
                    // drift keeps the baseline history (the objective did
                    // not change by definition) and this window joins it.
                    self.next_axis = axis;
                    self.dirs[axis] = dir;
                    self.futile_lap = 0;
                    self.nap_mult = 1;
                    self.push_baseline(obj);
                    Decision::Drift
                } else {
                    *knobs = prev;
                    self.dirs[axis] = -self.dirs[axis];
                    self.futile_lap += 1;
                    if self.opts.settle_ticks > 0 && self.futile_lap >= 2 * self.axes.len() {
                        // Two consecutive laps where every axis reverted:
                        // stop taxing the workload with excursions for a
                        // while. One lap is not enough evidence — on a
                        // noisy host, axes that are still productive lose
                        // the occasional window to a latency burst, and a
                        // single such loss must not complete a "futile"
                        // lap whose other members are axes parked at their
                        // clamps. Each consecutive settle doubles the nap:
                        // a genuinely converged server earns an ever-lower
                        // probe duty cycle, while any kept move or load
                        // shift resets the backoff.
                        self.futile_lap = 0;
                        self.state = State::Settled(self.opts.settle_ticks * self.nap_mult);
                        self.nap_mult = (self.nap_mult * 2).min(NAP_MULT_MAX);
                    }
                    Decision::Rollback
                }
            }
        }
    }
}

/// Background controller attached to a [`LiveServer`].
///
/// Every interval it drains the server's latency window, runs the
/// [`HillClimber`], and pushes accepted knob changes through the runtime
/// setters. Dropping the tuner stops and joins the thread; the server
/// keeps whatever configuration the controller last settled on.
#[derive(Debug)]
pub struct Tuner {
    stop: Arc<AtomicBool>,
    decisions: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
    frozen: bool,
}

impl Tuner {
    /// Starts the controller thread against `live`.
    ///
    /// Multi-tenant guard: if the server runs more than one lane the
    /// tuner comes up **frozen** — no thread, no knob writes, and
    /// [`Tuner::decisions`] stays at zero. The global setters this
    /// controller drives (`set_max_batch`, `set_batch_linger`) fan out
    /// to every lane, so on a multi-tenant server each accepted probe
    /// would overwrite the scheduler's per-lane assembly state and the
    /// two control loops would oscillate (see [`TUNE_ENV`]).
    pub fn start(live: Arc<LiveServer>, opts: TuneOptions) -> Tuner {
        let stop = Arc::new(AtomicBool::new(false));
        let decisions = Arc::new(AtomicU64::new(0));
        if live.lane_count() > 1 {
            return Tuner {
                stop,
                decisions,
                handle: None,
                frozen: true,
            };
        }
        let (stop_t, decisions_t) = (stop.clone(), decisions.clone());
        let handle = thread::Builder::new()
            .name("vserve-tune".into())
            .spawn(move || controller_loop(&live, opts, &stop_t, &decisions_t))
            .expect("spawn tuner thread");
        Tuner {
            stop,
            decisions,
            handle: Some(handle),
            frozen: false,
        }
    }

    /// True when the multi-tenant guard suppressed the controller.
    pub fn is_frozen(&self) -> bool {
        self.frozen
    }

    /// Count of knob reconfigurations applied so far (probes, rollbacks
    /// — every actual change to the live server). Shared: clone it into
    /// a metrics exporter.
    pub fn decisions(&self) -> Arc<AtomicU64> {
        self.decisions.clone()
    }

    /// Stops and joins the controller thread. Idempotent; also runs on
    /// drop.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Tuner {
    fn drop(&mut self) {
        self.stop();
    }
}

fn controller_loop(live: &LiveServer, opts: TuneOptions, stop: &AtomicBool, decisions: &AtomicU64) {
    let mut climber = HillClimber::new(opts);
    let interval_s = opts.interval.as_secs_f64().max(1e-6);
    while !stop.load(Ordering::SeqCst) {
        // Sleep in short slices so drop never waits a full interval.
        let mut slept = Duration::ZERO;
        while slept < opts.interval && !stop.load(Ordering::SeqCst) {
            let nap = (opts.interval - slept).min(Duration::from_millis(10));
            thread::sleep(nap);
            slept += nap;
        }
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let window = live.take_latency_window();
        let snap = live.knobs();
        let obs = Observation {
            completed: window.count,
            mean_latency_s: window.mean,
            p50_s: window.p50,
            p99_s: window.p99,
            throughput: window.count as f64 / interval_s,
        };
        let mut knobs = Knobs {
            max_batch: snap.max_batch,
            linger_us: snap.linger.as_micros().min(u64::MAX as u128) as u64,
            preproc_workers: snap.preproc_workers,
            backend_threads: snap.backend_threads,
            cache_bytes: snap.preproc_cache_bytes,
        };
        let before = knobs;
        climber.tick(obs, &mut knobs);
        if knobs == before {
            continue;
        }
        if knobs.max_batch != before.max_batch {
            live.set_max_batch(knobs.max_batch);
        }
        if knobs.linger_us != before.linger_us {
            live.set_batch_linger(Duration::from_micros(knobs.linger_us));
        }
        if knobs.preproc_workers != before.preproc_workers {
            live.set_preproc_workers(knobs.preproc_workers);
        }
        if knobs.backend_threads != before.backend_threads {
            live.set_backend_threads(knobs.backend_threads);
        }
        if knobs.cache_bytes != before.cache_bytes {
            live.set_preproc_cache_bytes(knobs.cache_bytes);
        }
        decisions.fetch_add(1, Ordering::Relaxed);
    }
}

/// Runs `exp` open-loop with the hill-climber attached, mirroring what
/// [`Tuner`] does to a live server — the controller replay of the sim.
///
/// The sim exposes batching and the preproc pool but no compute backend
/// or cache, so those axes are disabled regardless of `opts`.
pub fn replay_experiment(exp: &Experiment, arrivals: Arrivals, opts: TuneOptions) -> ServerReport {
    let mut climber = HillClimber::new(TuneOptions {
        tune_cache: false,
        ..opts
    });
    exp.run_open_controlled(
        arrivals,
        opts.interval.as_secs_f64(),
        move |obs, sim_knobs| {
            let o = Observation {
                completed: obs.completed,
                mean_latency_s: obs.mean_latency_s,
                p50_s: obs.p50_s,
                p99_s: obs.p99_s,
                throughput: obs.throughput,
            };
            let mut knobs = Knobs {
                max_batch: sim_knobs.max_batch,
                linger_us: sim_knobs.linger_us,
                preproc_workers: sim_knobs.preproc_workers,
                backend_threads: 0,
                cache_bytes: 0,
            };
            climber.tick(o, &mut knobs);
            sim_knobs.max_batch = knobs.max_batch;
            sim_knobs.linger_us = knobs.linger_us;
            sim_knobs.preproc_workers = knobs.preproc_workers;
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(mean: f64, throughput: f64) -> Observation {
        Observation {
            completed: 500,
            mean_latency_s: mean,
            p50_s: mean,
            p99_s: 2.0 * mean,
            throughput,
        }
    }

    fn knobs() -> Knobs {
        Knobs {
            max_batch: 8,
            linger_us: 5_000,
            preproc_workers: 4,
            backend_threads: 4,
            cache_bytes: 64 << 20,
        }
    }

    fn eager() -> TuneOptions {
        TuneOptions {
            hysteresis: 0.0,
            warmup_ticks: 0,
            settle_ticks: 0,
            ..TuneOptions::default()
        }
    }

    #[test]
    fn converges_on_synthetic_objective() {
        // World: latency rises with linger and falls with batch size.
        // The climber must walk linger to its floor and batch to its cap.
        let mut opts = eager();
        opts.tune_threads = false;
        opts.tune_cache = false;
        let mut c = HillClimber::new(opts);
        let mut k = knobs();
        for _ in 0..200 {
            let mean = 1e-6 * k.linger_us as f64 + 1.0 / (4.0 + k.max_batch as f64);
            c.tick(obs(mean, 1000.0), &mut k);
        }
        assert!(k.linger_us <= 2 * LINGER_MIN_US, "linger {}", k.linger_us);
        assert!(k.max_batch >= 32, "max_batch {}", k.max_batch);
    }

    #[test]
    fn rollback_restores_knobs_when_every_move_regresses() {
        // World: the starting point is optimal; any move doubles latency.
        let start = knobs();
        let mut c = HillClimber::new(eager());
        let mut k = start;
        let mut rollbacks = 0;
        for _ in 0..60 {
            let mean = if k == start { 0.010 } else { 0.020 };
            match c.tick(obs(mean, 1000.0), &mut k) {
                Decision::Rollback => {
                    rollbacks += 1;
                    assert_eq!(k, start, "rollback must restore the pre-probe knobs");
                }
                Decision::Probe | Decision::Hold => {}
                d => panic!("unexpected decision {d:?}"),
            }
        }
        assert_eq!(k, start);
        assert!(rollbacks >= 20, "rollbacks {rollbacks}");
    }

    #[test]
    fn flat_objective_drifts_linger_and_batch_to_their_floors() {
        // World: the objective ignores the knobs entirely (e.g. linger
        // far above the arrival spacing — every value measures the same).
        // A pure accept/revert climber stalls on such a plateau; drift
        // must walk linger and the batch cap down to their floors, while
        // the no-lean axes (worker split, cache) stay where they started.
        let start = knobs();
        let mut c = HillClimber::new(eager());
        let mut k = start;
        let mut drifts = 0;
        for _ in 0..200 {
            if c.tick(obs(0.010, 1000.0), &mut k) == Decision::Drift {
                drifts += 1;
            }
        }
        assert!(drifts > 10, "drifts {drifts}");
        assert_eq!(k.linger_us, LINGER_MIN_US);
        assert_eq!(k.max_batch, MAX_BATCH_MIN);
        assert_eq!(k.preproc_workers, start.preproc_workers);
        assert_eq!(k.cache_bytes, start.cache_bytes);
    }

    #[test]
    fn step_limits_and_clamps_hold_under_runaway_acceptance() {
        // World: latency always improves, so every probe is accepted.
        // Knobs must still respect clamps and bounded per-tick steps.
        let mut c = HillClimber::new(eager());
        let mut k = knobs();
        let total = k.preproc_workers + k.backend_threads;
        let mut mean = 1.0;
        for _ in 0..300 {
            mean *= 0.9;
            let before = k;
            c.tick(obs(mean, 1000.0), &mut k);
            assert!((MAX_BATCH_MIN..=MAX_BATCH_MAX).contains(&k.max_batch));
            assert!((LINGER_MIN_US..=LINGER_MAX_US).contains(&k.linger_us));
            assert!(k.preproc_workers >= 1 && k.backend_threads >= 1);
            assert_eq!(
                k.preproc_workers + k.backend_threads,
                total,
                "split conserved"
            );
            assert!(k.cache_bytes <= (64 << 20) * 2);
            // One bounded move per tick.
            assert!(k.linger_us <= before.linger_us.saturating_mul(3) / 2 + 1);
            assert!(k.max_batch <= before.max_batch + before.max_batch / 4 + 1);
        }
    }

    #[test]
    fn settles_after_two_futile_probe_laps_and_rewakes_on_load_shift() {
        // World: the starting point is optimal. After two full laps of
        // reverted probes the climber must go quiet for settle_ticks
        // windows, and every consecutive settle must double the nap
        // (capped) — and a load shift must wake it immediately.
        let start = knobs();
        let mut opts = eager();
        opts.settle_ticks = 5;
        let mut c = HillClimber::new(opts);
        let mut k = start;
        let world = |k: &Knobs| if *k == start { 0.010 } else { 0.020 };
        let mut streak = 0;
        let mut naps = Vec::new();
        for _ in 0..200 {
            match c.tick(obs(world(&k), 1000.0), &mut k) {
                Decision::Hold => streak += 1,
                _ => {
                    if streak > 0 {
                        naps.push(streak);
                    }
                    streak = 0;
                }
            }
        }
        assert_eq!(&naps[..4], &[5, 10, 20, 40], "naps must back off: {naps:?}");
        // Run out any probe left open by the fixed-length loop, into the
        // next settle: every excursion must have been reverted.
        while c.tick(obs(world(&k), 1000.0), &mut k) != Decision::Hold {}
        assert_eq!(k, start);
        // Then shift the load: probing resumes at once.
        assert_eq!(c.tick(obs(world(&k), 2000.0), &mut k), Decision::Reset);
        assert_eq!(c.tick(obs(world(&k), 2000.0), &mut k), Decision::Probe);
    }

    #[test]
    fn load_shift_resets_probe_without_reverting() {
        let mut c = HillClimber::new(eager());
        let mut k = knobs();
        assert_eq!(c.tick(obs(0.010, 1000.0), &mut k), Decision::Probe);
        let probed = k;
        // Throughput steps 1000 → 2000: the probe baseline is stale.
        assert_eq!(c.tick(obs(0.012, 2000.0), &mut k), Decision::Reset);
        assert_eq!(k, probed, "reset keeps the knobs, only state is discarded");
        // Next tick opens a fresh probe against the new regime.
        assert_eq!(c.tick(obs(0.012, 2000.0), &mut k), Decision::Probe);
    }

    #[test]
    fn empty_windows_hold_probe_open() {
        let mut c = HillClimber::new(eager());
        let mut k = knobs();
        assert_eq!(c.tick(obs(0.010, 1000.0), &mut k), Decision::Probe);
        let probed = k;
        let idle = Observation {
            completed: 0,
            mean_latency_s: 0.0,
            p50_s: 0.0,
            p99_s: 0.0,
            throughput: 0.0,
        };
        assert_eq!(c.tick(idle, &mut k), Decision::Hold);
        assert_eq!(k, probed);
        // Traffic returns: the probe is finally judged.
        let d = c.tick(obs(0.005, 1000.0), &mut k);
        assert_eq!(d, Decision::Accept);
    }

    #[test]
    fn warmup_ticks_discard_initial_windows() {
        let mut opts = eager();
        opts.warmup_ticks = 3;
        let mut c = HillClimber::new(opts);
        let mut k = knobs();
        for _ in 0..3 {
            assert_eq!(c.tick(obs(0.010, 1000.0), &mut k), Decision::Hold);
        }
        assert_eq!(c.tick(obs(0.010, 1000.0), &mut k), Decision::Probe);
    }

    #[test]
    fn options_read_from_env() {
        // Serialized with other env tests via --test-threads=1.
        std::env::set_var(TUNE_INTERVAL_MS_ENV, "75");
        std::env::set_var(TUNE_P99_TARGET_MS_ENV, "40");
        std::env::set_var(TUNE_ENV, "on");
        let opts = TuneOptions::from_env();
        assert_eq!(opts.interval, Duration::from_millis(75));
        assert_eq!(opts.p99_target, Some(Duration::from_millis(40)));
        assert!(TuneOptions::enabled_from_env());
        std::env::set_var(TUNE_ENV, "0");
        assert!(!TuneOptions::enabled_from_env());
        std::env::remove_var(TUNE_ENV);
        assert!(!TuneOptions::enabled_from_env());
        std::env::remove_var(TUNE_INTERVAL_MS_ENV);
        std::env::remove_var(TUNE_P99_TARGET_MS_ENV);
        assert_eq!(TuneOptions::from_env(), TuneOptions::default());
    }

    #[test]
    fn p99_target_penalizes_tail() {
        let mut opts = TuneOptions::default();
        opts.p99_target = Some(Duration::from_millis(20));
        let c = HillClimber::new(opts);
        let calm = Observation {
            completed: 10,
            mean_latency_s: 0.010,
            p50_s: 0.010,
            p99_s: 0.015,
            throughput: 100.0,
        };
        let spiky = Observation {
            completed: 10,
            mean_latency_s: 0.010,
            p50_s: 0.010,
            p99_s: 0.030,
            throughput: 100.0,
        };
        assert!(c.objective(&spiky) > c.objective(&calm) + 0.05);
    }

    #[test]
    fn probes_are_judged_against_median_baseline_not_one_window() {
        let opts = TuneOptions {
            hysteresis: 0.05,
            warmup_ticks: 0,
            settle_ticks: 0,
            tune_batching: false,
            tune_cache: false,
            ..TuneOptions::default()
        };
        let mut c = HillClimber::new(opts);
        let mut k = knobs();
        // Baseline truth is 10 ms; the first probe direction regresses.
        assert_eq!(c.tick(obs(0.010, 1000.0), &mut k), Decision::Probe);
        assert_eq!(c.tick(obs(0.012, 1000.0), &mut k), Decision::Rollback);
        // A noisy-fast window (8 ms on the same 10 ms config) opens the
        // next probe, now in the flipped direction...
        assert_eq!(c.tick(obs(0.008, 1000.0), &mut k), Decision::Probe);
        assert_eq!(k.preproc_workers, 3);
        // ...which measures a genuine improvement over the true baseline
        // (9 ms < 10 ms − hysteresis). Judged against the single noisy
        // 8 ms window it would roll back; judged against the median of
        // the recent baseline windows it must stick.
        assert_eq!(c.tick(obs(0.009, 1000.0), &mut k), Decision::Accept);
        assert_eq!(k.preproc_workers, 3);
    }

    #[test]
    fn objective_uses_window_median_so_stall_bursts_do_not_skew_probes() {
        let c = HillClimber::new(TuneOptions::default());
        let calm = Observation {
            completed: 20,
            mean_latency_s: 0.0012,
            p50_s: 0.0012,
            p99_s: 0.002,
            throughput: 140.0,
        };
        // One 60 ms host stall in a 20-sample window quadruples the mean
        // but leaves the median at the typical request — the probe verdict
        // must not swing on it.
        let stalled = Observation {
            mean_latency_s: 0.0048,
            p99_s: 0.060,
            ..calm
        };
        assert_eq!(c.objective(&stalled), c.objective(&calm));
        // A deployment that cannot compute a median falls back to the mean.
        let no_p50 = Observation {
            p50_s: 0.0,
            ..stalled
        };
        assert!(c.objective(&no_p50) > c.objective(&calm));
    }
}

#[cfg(test)]
mod live_tests {
    use super::*;
    use vserve_device::ImageSpec;
    use vserve_dnn::{models, Model};
    use vserve_server::live::{LiveOptions, LiveServer, Request, Target};
    use vserve_workload::synthetic_jpeg;

    #[test]
    fn tuner_reconfigures_a_live_server_and_stops_cleanly() {
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let live = Arc::new(LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 2,
                inference_workers: 1,
                max_batch: 8,
                input_side: 32,
                backend_threads: 2,
                ..LiveOptions::default()
            },
        ));
        let opts = TuneOptions {
            interval: Duration::from_millis(15),
            hysteresis: 0.0,
            warmup_ticks: 0,
            ..TuneOptions::default()
        };
        let mut tuner = Tuner::start(live.clone(), opts);
        let decisions = tuner.decisions();
        // Keep traffic flowing while the controller probes.
        for wave in 0..6 {
            let rxs: Vec<_> = (0..8)
                .map(|i| live.submit(synthetic_jpeg(&ImageSpec::new(40, 40, 0), wave * 8 + i)))
                .collect();
            for rx in rxs {
                rx.recv().unwrap().unwrap();
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        assert!(
            decisions.load(Ordering::Relaxed) > 0,
            "controller made no decisions"
        );
        tuner.stop();
        let settled = live.knobs();
        assert!((1..=64).contains(&settled.max_batch));
        assert!(settled.preproc_workers >= 1 && settled.backend_threads >= 1);
        // The server still serves after the controller detaches.
        let r = live
            .infer(synthetic_jpeg(&ImageSpec::new(40, 40, 0), 99))
            .unwrap();
        assert_eq!(r.output.len(), 10);
    }

    /// Satellite guard: on a multi-tenant (two-lane) server the tuner
    /// freezes — zero decisions, zero knob writes — so the scheduler's
    /// per-lane assembly state never oscillates under the controller.
    #[test]
    fn tuner_freezes_on_multi_tenant_server_no_oscillation() {
        use vserve_server::TenantSpec;
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let live = Arc::new(LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 2,
                inference_workers: 1,
                max_batch: 4,
                input_side: 32,
                backend_threads: 1,
                tenants: vec![
                    TenantSpec::new("lc", "default").weight(4.0),
                    TenantSpec::new("be", "default"),
                ],
                ..LiveOptions::default()
            },
        ));
        assert_eq!(live.lane_count(), 2);
        let before = live.knobs();
        let opts = TuneOptions {
            interval: Duration::from_millis(5),
            hysteresis: 0.0,
            warmup_ticks: 0,
            settle_ticks: 0,
            ..TuneOptions::default()
        };
        let mut tuner = Tuner::start(live.clone(), opts);
        assert!(tuner.is_frozen(), "two lanes must freeze the controller");
        let decisions = tuner.decisions();
        // Drive both lanes through several would-be control intervals.
        for wave in 0..4 {
            let rxs: Vec<_> = (0..8)
                .map(|i| {
                    live.submit_request(Request {
                        target: Target::Lane((i % 2) as usize),
                        ..Request::new(synthetic_jpeg(
                            &ImageSpec::new(40, 40, 0),
                            500 + wave * 8 + i,
                        ))
                    })
                })
                .collect();
            for rx in rxs {
                rx.recv().unwrap().unwrap();
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            decisions.load(Ordering::Relaxed),
            0,
            "frozen tuner must never reconfigure"
        );
        let after = live.knobs();
        assert_eq!(after.max_batch, before.max_batch);
        assert_eq!(after.linger, before.linger);
        assert_eq!(after.preproc_workers, before.preproc_workers);
        assert_eq!(after.backend_threads, before.backend_threads);
        tuner.stop();
        // Single-lane control is unaffected by the guard.
        let model = Model::from_graph(models::micro_cnn(32, 10).unwrap(), 3);
        let solo = Arc::new(LiveServer::start(
            model,
            LiveOptions {
                preproc_workers: 1,
                inference_workers: 1,
                input_side: 32,
                backend_threads: 1,
                ..LiveOptions::default()
            },
        ));
        let t = Tuner::start(solo, TuneOptions::default());
        assert!(!t.is_frozen());
    }
}

#[cfg(test)]
mod replay_tests {
    use super::*;
    use vserve_device::{ImageSpec, NodeConfig};
    use vserve_server::{ModelProfile, ServerConfig};
    use vserve_workload::ImageMix;

    #[test]
    fn replay_recovers_starved_preproc_capacity() {
        // Same starved regime as the server crate's controller test, but
        // driven by the real HillClimber instead of a scripted hook.
        let mut config = ServerConfig::optimized_cpu_preproc();
        config.preproc_workers = 1;
        let exp = Experiment {
            node: NodeConfig::paper_testbed(),
            config,
            model: ModelProfile::vit_base(),
            mix: ImageMix::fixed(ImageSpec::medium()),
            concurrency: 1,
            warmup_s: 0.5,
            measure_s: 2.5,
            seed: 77,
        };
        let starved = exp.run_open(Arrivals::poisson(1200.0));
        let opts = TuneOptions {
            interval: Duration::from_millis(50),
            warmup_ticks: 1,
            ..TuneOptions::default()
        };
        let tuned = replay_experiment(&exp, Arrivals::poisson(1200.0), opts);
        assert!(
            tuned.throughput > starved.throughput * 1.2,
            "tuned {} vs starved {}",
            tuned.throughput,
            starved.throughput
        );
        assert!(
            tuned.latency.mean < starved.latency.mean * 0.6,
            "tuned {} vs starved {}",
            tuned.latency.mean,
            starved.latency.mean
        );
    }
}
