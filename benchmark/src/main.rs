//! `vbench`: the wire-path benchmark of vserve.
//!
//! Drives `NetClient` -> loopback TCP -> evented `NetServer` -> `LiveServer`
//! lanes -> preprocess -> batcher -> forward -> reply from one process, checks
//! every reply against a golden output, and prints every metric by name with
//! its unit. `benchmark/README.md` has the definitions; this file is the
//! command line.
//!
//! ```text
//! vbench --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! vbench [--seed N] [--seconds S] [--trace 1]            the whole suite
//! vbench --smoke | --bless | --aa N | --compare OLD NEW
//! ```

mod corpus;
mod epoch;
mod json;
mod layers;
mod report;
mod run;
mod spec;
mod stats;

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use epoch::{EpochPlan, Mode};
use run::{Ctx, RunOutput};
use spec::{Workload, EPOCHS, WORKLOADS};

/// Flags that take no value.
const SWITCHES: [&str; 4] = ["--epoch", "--forward-probe", "--smoke", "--bless"];
/// Measured seconds per run when `--seconds` is absent; `BENCHMARK.json`
/// passes the same number.
const DEFAULT_SECONDS: f64 = 24.0;

struct Args {
    flags: HashMap<String, String>,
    positional: Vec<String>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut flags = HashMap::new();
        let mut positional = Vec::new();
        let mut it = std::env::args().skip(1);
        while let Some(a) = it.next() {
            if SWITCHES.contains(&a.as_str()) {
                flags.insert(a, String::new());
            } else if a.starts_with("--") {
                let v = it.next().ok_or_else(|| format!("{a} needs a value"))?;
                flags.insert(a, v);
            } else {
                positional.push(a);
            }
        }
        Ok(Args { flags, positional })
    }

    fn has(&self, flag: &str) -> bool {
        self.flags.contains_key(flag)
    }

    fn get<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.flags.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
        }
    }

    fn workload(&self) -> Result<Option<&'static Workload>, String> {
        match self.flags.get("--workload") {
            None => Ok(None),
            Some(name) => Workload::by_name(name)
                .map(Some)
                .ok_or_else(|| format!("unknown workload {name:?}")),
        }
    }

    fn required_workload(&self) -> Result<&'static Workload, String> {
        self.workload()?
            .ok_or_else(|| "--workload is required here".to_owned())
    }
}

fn ms(args: &Args, flag: &str) -> Result<Duration, String> {
    Ok(Duration::from_millis(args.get(flag, 0u64)?))
}

fn ctx() -> Result<Ctx, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    Ok(Ctx {
        // Everything a run writes goes next to the binary, inside the checkout.
        out: exe.parent().map(PathBuf::from).unwrap_or_default(),
        golden: PathBuf::from("benchmark/golden"),
        exe,
    })
}

fn describe(w: &Workload) -> String {
    format!(
        "{} x {}x{} JPEG, {}, {}, window {}, open {} rps",
        w.distinct,
        (w.image)().width,
        (w.image)().height,
        if w.hot {
            "cache-hot"
        } else {
            "cycled past the cache"
        },
        w.model_name(),
        w.window,
        w.open_rate_rps
    )
}

fn one_run(
    ctx: &Ctx,
    w: &'static Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<RunOutput, String> {
    let r = if traced {
        run::traced(ctx, w, seed, seconds)?
    } else {
        run::untraced(ctx, w, seed, seconds, EPOCHS)?
    };
    report::print_run(&r, &describe(w));
    Ok(r)
}

fn write_result(ctx: &Ctx, name: &str, seed: u64, runs: &[RunOutput]) -> Result<(), String> {
    let path = ctx.out.join(name);
    std::fs::write(&path, report::result_file(&report::header(seed), runs))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("result file: {}", path.display());
    Ok(())
}

/// Checks that need no server: names, counts, and that `BENCHMARK.json` says
/// what `spec.rs` says.
fn static_checks() -> Result<(), String> {
    let name_ok = |n: &str| {
        !n.is_empty()
            && n.len() <= 64
            && n.starts_with(|c: char| c.is_ascii_alphanumeric())
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    };
    let all = spec::END_TO_END.iter().chain(&spec::PER_LAYER);
    for d in all.clone() {
        if !name_ok(d.name) {
            return Err(format!("metric name {:?} breaks the grammar", d.name));
        }
    }
    let mut names: Vec<&str> = all
        .map(|d| d.name)
        .chain(WORKLOADS.iter().map(|w| w.name))
        .collect();
    names.sort_unstable();
    if let Some(dup) = names.windows(2).find(|p| p[0] == p[1]) {
        return Err(format!("name {:?} is used twice", dup[0]));
    }
    if WORKLOADS.len() != 4 || spec::END_TO_END.len() != 6 || spec::PER_LAYER.len() > 128 {
        return Err("expected 4 workloads, 6 end-to-end and at most 128 per-layer metrics".into());
    }
    for w in &WORKLOADS {
        if !name_ok(w.name) || w.why.len() > 200 || w.why.contains('\n') {
            return Err(format!("workload {} breaks the contract's limits", w.name));
        }
    }
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        println!("static checks: BENCHMARK.json not in the working directory, skipped");
        return Ok(());
    };
    let doc = json::Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let names_of = |key: &str| -> Vec<String> {
        doc.get(key)
            .map(|a| a.as_arr())
            .unwrap_or_default()
            .iter()
            .filter_map(|m| {
                m.get("name")
                    .and_then(json::Json::as_str)
                    .map(str::to_owned)
            })
            .collect()
    };
    let same = |key: &str, ours: Vec<&str>| {
        if names_of(key) == ours {
            Ok(())
        } else {
            Err(format!("BENCHMARK.json {key} differs from spec.rs"))
        }
    };
    same("workloads", WORKLOADS.iter().map(|w| w.name).collect())?;
    same(
        "end_to_end",
        spec::END_TO_END.iter().map(|d| d.name).collect(),
    )?;
    same(
        "per_layer",
        spec::PER_LAYER.iter().map(|d| d.name).collect(),
    )?;
    for (d, m) in spec::END_TO_END.iter().zip(
        doc.get("end_to_end")
            .map(|a| a.as_arr())
            .unwrap_or_default(),
    ) {
        let better = if d.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        if m.get("unit").and_then(json::Json::as_str) != Some(d.unit)
            || m.get("better").and_then(json::Json::as_str) != Some(better)
            || m.get("bound").and_then(json::Json::as_f64) != Some(d.bound)
        {
            return Err(format!(
                "BENCHMARK.json disagrees with spec.rs on {}",
                d.name
            ));
        }
    }
    if doc.get("run_seconds").and_then(json::Json::as_f64) != Some(DEFAULT_SECONDS) {
        return Err(format!(
            "BENCHMARK.json run_seconds is not {DEFAULT_SECONDS}"
        ));
    }
    println!("static checks: names, counts and BENCHMARK.json agree with spec.rs");
    Ok(())
}

/// `--smoke`: correctness only. One short epoch per workload on seed 1, every
/// reply checked against the committed golden.
fn smoke(ctx: &Ctx) -> Result<(), String> {
    static_checks()?;
    for w in &WORKLOADS {
        let r = run::untraced(ctx, w, corpus::GOLDEN_SEED, 0.8, 1)?;
        println!(
            "smoke {:<20} attempted {:>6} failed {} correct {}",
            w.name, r.attempted, r.failed, r.correct
        );
        if !r.correct {
            return Err(format!("{}: {}", w.name, r.notes.join("; ")));
        }
    }
    println!("smoke: ok");
    Ok(())
}

fn real_main() -> Result<ExitCode, String> {
    let args = Args::parse()?;
    let seed: u64 = args.get("--seed", 1)?;

    if args.has("--epoch") {
        let plan = EpochPlan {
            mode: Mode::parse(&args.get("--mode", String::new())?).ok_or("bad --mode")?,
            index: args.get("--index", 0)?,
            seed,
            closed: ms(&args, "--closed-ms")?,
            second: ms(&args, "--second-ms")?,
            trace_out: args.get("--trace-out", PathBuf::new())?,
        };
        let dir: PathBuf = args.get("--corpus", PathBuf::new())?;
        epoch::run_child(args.required_workload()?, &dir, &plan)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--forward-probe") {
        let dir: PathBuf = args.get("--corpus", PathBuf::new())?;
        let first = std::fs::read(dir.join("0000.jpg")).map_err(|e| format!("read corpus: {e}"))?;
        layers::forward_probe(
            args.required_workload()?,
            &first,
            args.get("--at-batch", 8)?,
            ms(&args, "--budget-ms")?,
        );
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--compare") {
        let old = PathBuf::from(&args.flags["--compare"]);
        let new = args.positional.first().ok_or("--compare OLD NEW")?;
        let regressed = report::compare(&old, &PathBuf::from(new))?;
        return Ok(if regressed {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        });
    }

    let ctx = ctx()?;
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("create {}: {e}", ctx.out.display()))?;
    let seconds: f64 = args.get("--seconds", DEFAULT_SECONDS)?;
    if !(seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let traced = args.get("--trace", 0u8)? != 0;

    if args.has("--smoke") {
        smoke(&ctx)?;
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--bless") {
        for w in &WORKLOADS {
            corpus::prepare(&ctx.out, &ctx.golden, w, corpus::GOLDEN_SEED, true)?;
            println!("blessed {}/{}.txt", ctx.golden.display(), w.name);
        }
        return Ok(ExitCode::SUCCESS);
    }
    if args.has("--aa") {
        let n: u64 = args.get("--aa", 5)?;
        let mut suites = Vec::new();
        for s in 1..=n {
            let mut suite = Vec::new();
            for w in &WORKLOADS {
                eprintln!("a/a suite {s}/{n}: {}", w.name);
                suite.push(run::untraced(&ctx, w, s, seconds, EPOCHS)?);
            }
            suites.push(suite);
        }
        print!("{}", report::aa_table(&report::header(0), &suites));
        return Ok(ExitCode::SUCCESS);
    }

    report::print_header(&report::header(seed));
    match args.workload()? {
        // The driver's form: one workload, the result line last.
        Some(w) => {
            let r = one_run(&ctx, w, seed, seconds, traced)?;
            let name = format!("result_{}_s{seed}_t{}.json", w.name, u8::from(traced));
            write_result(&ctx, &name, seed, std::slice::from_ref(&r))?;
            println!("{}", report::result_line(&r));
        }
        // The suite: every workload untraced, then (with --trace 1) traced.
        None => {
            let mut runs = Vec::new();
            for w in &WORKLOADS {
                runs.push(one_run(&ctx, w, seed, seconds, false)?);
            }
            write_result(&ctx, &format!("result_suite_s{seed}.json"), seed, &runs)?;
            if traced {
                let mut layers = Vec::new();
                for w in &WORKLOADS {
                    layers.push(one_run(&ctx, w, seed, seconds, true)?);
                }
                write_result(&ctx, &format!("result_layers_s{seed}.json"), seed, &layers)?;
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(e) => {
            eprintln!("vbench: {e}");
            ExitCode::from(2)
        }
    }
}
