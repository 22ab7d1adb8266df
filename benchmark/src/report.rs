//! What `vbench` prints and writes: the host header, the per-run table, the
//! driver's result line, result files, and the comparison and A/A tables
//! built from them.

use std::fmt::Write as _;
use std::path::Path;

use crate::json::{escape, num, Json};
use crate::run::RunOutput;
use crate::spec::{self, MetricDef, WORKLOADS};
use crate::stats;

/// Host and configuration facts recorded with every result. `nproc` and
/// `simd` decide whether two results may be compared at all.
pub fn header(seed: u64) -> Vec<(&'static str, String)> {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".to_owned());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let load1 = std::fs::read_to_string("/proc/loadavg")
        .ok()
        .and_then(|s| s.split_whitespace().next().map(str::to_owned))
        .unwrap_or_else(|| "unknown".to_owned());
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    vec![
        ("git_rev", env("VBENCH_GIT_REV")),
        ("rustc", env("VBENCH_RUSTC")),
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("simd", vserve_simd::active_level().name().to_owned()),
        ("load1_before", load1),
        ("seed", seed.to_string()),
        ("deps", "offline stubs".to_owned()),
        ("options", spec::OPTIONS_LINE.to_owned()),
    ]
}

pub fn print_header(h: &[(&'static str, String)]) {
    for (k, v) in h {
        println!("# {k}: {v}");
    }
}

fn direction(d: &MetricDef) -> &'static str {
    if d.higher_is_better {
        "higher"
    } else {
        "lower"
    }
}

/// The human-readable table of one run: every metric by name with its unit.
pub fn print_run(r: &RunOutput, w_detail: &str) {
    println!("\n== {} - {}", r.workload, w_detail);
    println!(
        "{:<36} {:>16} {:<8} {:<7} {:>6} {:>14} {:>14} {:>6}",
        "metric", "value", "unit", "better", "n", "q1", "q3", "bound"
    );
    for m in &r.metrics {
        let bound = if m.def.bound > 0.0 {
            format!("{:.2}", m.def.bound)
        } else {
            "-".to_owned()
        };
        println!(
            "{:<36} {:>16.6} {:<8} {:<7} {:>6} {:>14.6} {:>14.6} {:>6}",
            m.def.name,
            m.value,
            m.def.unit,
            direction(&m.def),
            m.n,
            m.q1,
            m.q3,
            bound
        );
    }
    for m in r.metrics.iter().filter(|m| !m.per_epoch.is_empty()) {
        let list: Vec<String> = m.per_epoch.iter().map(|v| format!("{v:.4}")).collect();
        println!("epochs {:<16} {}", m.def.name, list.join(" "));
    }
    for (phase, attempted, ok, failed) in &r.phases {
        println!(
            "phase {phase:<9} attempted {attempted:>8}  succeeded {ok:>8}  failed {failed:>4}"
        );
    }
    for note in &r.notes {
        println!("note: {note}");
    }
    println!("correct: {}", r.correct);
}

fn metrics_json(r: &RunOutput, detail: bool) -> String {
    let items: Vec<String> = r
        .metrics
        .iter()
        .map(|m| {
            let mut s = format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                m.def.name,
                num(m.value),
                m.def.unit
            );
            if detail {
                let _ = write!(
                    s,
                    ", \"better\": \"{}\", \"n\": {}, \"q1\": {}, \"q3\": {}",
                    direction(&m.def),
                    m.n,
                    num(m.q1),
                    num(m.q3)
                );
            }
            s.push('}');
            s
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The driver's contract: one JSON object with exactly these four keys, as
/// the last line of standard output.
pub fn result_line(r: &RunOutput) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct,
        r.attempted,
        r.failed,
        metrics_json(r, false)
    )
}

/// A result file: header, every run, and the claim this benchmark makes,
/// which is none.
pub fn result_file(h: &[(&'static str, String)], runs: &[RunOutput]) -> String {
    let head: Vec<String> = h
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", escape(v)))
        .collect();
    let body: Vec<String> = runs
        .iter()
        .map(|r| {
            let notes: Vec<String> = r.notes.iter().map(|n| format!("\"{}\"", escape(n))).collect();
            format!(
                "    \"{}\": {{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"notes\": [{}],\n      \"metrics\": {}}}",
                r.workload,
                r.correct,
                r.attempted,
                r.failed,
                notes.join(", "),
                metrics_json(r, true)
            )
        })
        .collect();
    format!(
        "{{\n  \"header\": {{{}}},\n  \"workloads\": {{\n{}\n  }},\n  \"claim\": null\n}}\n",
        head.join(", "),
        body.join(",\n")
    )
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn header_field<'a>(doc: &'a Json, key: &str) -> &'a str {
    doc.get("header")
        .and_then(|h| h.get(key))
        .and_then(Json::as_str)
        .unwrap_or("missing")
}

/// Relative change of `new` against `old` in the direction that is worse.
fn worsening(d: &MetricDef, old: f64, new: f64) -> f64 {
    if old == 0.0 {
        return 0.0;
    }
    if d.higher_is_better {
        (old - new) / old
    } else {
        (new - old) / old
    }
}

/// Compares two result files metric by metric against the bounds. Results
/// from hosts with different core counts or SIMD levels are not comparable
/// and are refused. Returns whether any bound was exceeded.
pub fn compare(old: &Path, new: &Path) -> Result<bool, String> {
    let (a, b) = (load(old)?, load(new)?);
    for key in ["nproc", "simd"] {
        let (x, y) = (header_field(&a, key), header_field(&b, key));
        if x != y {
            return Err(format!(
                "refusing to compare: {key} differs ({x} vs {y}); numbers from different hosts say nothing about the code"
            ));
        }
    }
    let mut regressed = false;
    println!(
        "{:<20} {:<16} {:>14} {:>14} {:>9} {:>6}  verdict",
        "workload", "metric", "old", "new", "worse by", "bound"
    );
    for w in &WORKLOADS {
        for d in &spec::END_TO_END {
            let value = |doc: &Json| {
                doc.get("workloads")?
                    .get(w.name)?
                    .get("metrics")?
                    .get(d.name)?
                    .get("value")?
                    .as_f64()
            };
            let (Some(x), Some(y)) = (value(&a), value(&b)) else {
                continue;
            };
            let worse = worsening(d, x, y);
            let verdict = if worse > d.bound { "REGRESSION" } else { "ok" };
            regressed |= worse > d.bound;
            println!(
                "{:<20} {:<16} {:>14.6} {:>14.6} {:>+8.1}% {:>6.2}  {verdict}",
                w.name,
                d.name,
                x,
                y,
                worse * 100.0,
                d.bound
            );
        }
    }
    Ok(regressed)
}

/// The A/A table in markdown: per workload and end-to-end metric the values of
/// every run, their median, the largest relative deviation from it, the
/// driver's spread (quartile distance over median), and the bound. The rule:
/// a bound must be at least twice the largest deviation seen.
pub fn aa_table(h: &[(&'static str, String)], runs: &[Vec<RunOutput>]) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "# A/A record: {} untraced suites of the same code, seeds 1..={}\n",
        runs.len(),
        runs.len()
    );
    for (k, v) in h {
        if *k != "seed" {
            let _ = writeln!(s, "- {k}: {v}");
        }
    }
    let _ = writeln!(
        s,
        "\nRule: every bound is at least twice the largest deviation from the median (`max dev`); \
         `spread` is the driver's measure, (q3 - q1) / median with Python's `statistics.quantiles(n=4)`.\n"
    );
    let _ = writeln!(s, "| workload | metric | unit | median | max dev | spread | bound | bound >= 2 x max dev | runs |");
    let _ = writeln!(s, "|---|---|---|---:|---:|---:|---:|---|---|");
    let mut all_ok = true;
    for (wi, w) in WORKLOADS.iter().enumerate() {
        for d in &spec::END_TO_END {
            let values: Vec<f64> = runs.iter().map(|suite| suite[wi].value(d.name)).collect();
            let med = stats::median(&values);
            let dev = stats::max_rel_dev(&values);
            let q = stats::quartiles(&values);
            let spread = if med != 0.0 { (q[2] - q[0]) / med } else { 0.0 };
            let ok = d.bound >= 2.0 * dev;
            all_ok &= ok;
            let list: Vec<String> = values.iter().map(|v| format!("{v:.4}")).collect();
            let _ = writeln!(
                s,
                "| {} | {} | {} | {:.4} | {:.1}% | {:.1}% | {:.0}% | {} | {} |",
                w.name,
                d.name,
                d.unit,
                med,
                dev * 100.0,
                spread * 100.0,
                d.bound * 100.0,
                if ok { "yes" } else { "NO" },
                list.join(" ")
            );
        }
    }
    let failed: u64 = runs.iter().flatten().map(|r| r.failed).sum();
    let incorrect = runs.iter().flatten().filter(|r| !r.correct).count();
    let _ = writeln!(
        s,
        "\nFailed requests over all runs: {failed}; runs with `correct: false`: {incorrect}; every bound holds the rule: {}.",
        if all_ok { "yes" } else { "NO" }
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write(dir: &Path, name: &str, nproc: &str, tput: f64) -> std::path::PathBuf {
        let p = dir.join(name);
        let doc = format!(
            "{{\"header\": {{\"nproc\": \"{nproc}\", \"simd\": \"avx2\"}}, \"workloads\": {{\"wire_small_hot\": \
             {{\"metrics\": {{\"throughput_rps\": {{\"value\": {tput}, \"unit\": \"1/s\"}}}}}}}}, \"claim\": null}}"
        );
        std::fs::write(&p, doc).unwrap();
        p
    }

    #[test]
    fn compare_refuses_other_hosts_and_flags_regressions() {
        let dir = std::env::temp_dir().join(format!("vbench-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = write(&dir, "a.json", "2", 100.0);
        let same = write(&dir, "b.json", "2", 95.0);
        let slow = write(&dir, "c.json", "2", 70.0);
        let other_host = write(&dir, "d.json", "8", 100.0);
        assert_eq!(compare(&base, &same), Ok(false), "5% is inside the bound");
        assert_eq!(
            compare(&base, &slow),
            Ok(true),
            "30% lower throughput is a regression"
        );
        let err = compare(&base, &other_host).unwrap_err();
        assert!(err.contains("nproc differs"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let tput = spec::END_TO_END[0];
        let lat = spec::END_TO_END[1];
        assert!((worsening(&tput, 100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((worsening(&lat, 10.0, 11.0) - 0.10).abs() < 1e-12);
        assert!(worsening(&tput, 100.0, 110.0) < 0.0);
    }
}
