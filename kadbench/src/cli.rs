//! Command line: one run (the driver's form), `run` (all workloads, each in
//! a fresh child process) and `agree` (compare two result files).

use crate::agree;
use crate::harness::{Outcome, RunArgs};
use crate::json::{self, Json};
use crate::machine;
use crate::spec::{self, Workload};
use std::path::{Path, PathBuf};
use std::process::Command;

pub const USAGE: &str = "\
usage:
  kadbench --workload NAME --seed N --seconds S --trace 0|1 [--quick] [--out DIR]
      one run of one workload; the last stdout line is the JSON result
  kadbench run [--seed N] [--seconds S] [--quick] [--out DIR] [--workload NAME]...
      every workload, untraced then traced, each in a fresh process;
      writes DIR/result-seed<N>.json and one Chrome trace per workload
  kadbench agree A.json B.json
      compares two result files under BENCHMARK.json's bounds
workloads: steady-1k steady-10k churn-lossy-1k defend-grid kappa-min-1k kappa-paper-250
defaults: --seed 11, --seconds BENCHMARK.json's run_seconds, --out kadbench-out";

/// Default directory for result files and traces (listed in `.gitignore`).
const DEFAULT_OUT: &str = "kadbench-out";

#[derive(Debug, Default)]
struct Flags {
    workloads: Vec<Workload>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    out: Option<PathBuf>,
    positional: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                flags.workloads.push(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                let v = value("--seed")?;
                flags.seed = Some(v.parse().map_err(|_| format!("bad --seed {v:?}"))?);
            }
            "--seconds" => {
                let v = value("--seconds")?;
                let secs: f64 = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--seconds must be positive, got {v}"));
                }
                flags.seconds = Some(secs);
            }
            "--trace" => {
                flags.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                });
            }
            "--quick" => flags.quick = true,
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => flags.positional.push(other.to_string()),
        }
    }
    Ok(flags)
}

/// Entry point; returns the process exit code.
pub fn main(args: &[String]) -> i32 {
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_flags(&args[1..]).and_then(|f| run_all(&f)),
        Some("agree") => parse_flags(&args[1..]).and_then(|f| match f.positional.as_slice() {
            [a, b] => agree::compare_files(Path::new(a), Path::new(b)),
            _ => Err("agree takes exactly two result files".into()),
        }),
        Some("--help" | "-h" | "help") | None => {
            println!("{USAGE}");
            return 0;
        }
        Some(_) => parse_flags(args).and_then(|f| run_one(&f)),
    };
    match result {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(message) => {
            eprintln!("kadbench: {message}\n{USAGE}");
            2
        }
    }
}

fn trace_path(out: &Path, workload: Workload) -> PathBuf {
    out.join(format!("trace-{}.json", workload.name()))
}

/// The driver's form: one workload, one run, result JSON on the last line.
fn run_one(flags: &Flags) -> Result<bool, String> {
    let [workload] = flags.workloads.as_slice() else {
        return Err("exactly one --workload is required".into());
    };
    if !flags.positional.is_empty() {
        return Err(format!("unexpected argument {:?}", flags.positional[0]));
    }
    let out = flags.out.clone().unwrap_or_else(|| DEFAULT_OUT.into());
    let args = RunArgs {
        workload: *workload,
        seed: flags.seed.unwrap_or(spec::DEFAULT_SEED),
        seconds: flags.seconds.unwrap_or(spec::spec().run_seconds),
        trace: flags.trace.unwrap_or(false),
        quick: flags.quick,
        trace_out: Some(trace_path(&out, *workload)),
    };
    let outcome = crate::run_workload(&args);
    print_outcome(&outcome);
    println!("detail {}", outcome.detail_json().render());
    println!("{}", outcome.contract_json().render());
    // A printed result is a finished run; its verdict is the `correct` key.
    Ok(true)
}

/// Prints every metric as `workload metric value unit`, then the medians'
/// sample counts, the tail percentile, the span table, the exact counts
/// and the checks.
pub fn print_outcome(outcome: &Outcome) {
    let w = outcome.workload.name();
    for metric in &outcome.metrics {
        println!("{w} {} {} {}", metric.name, metric.value, metric.unit);
    }
    if !outcome.traced {
        println!("{w} work_unit {}", outcome.workload.work_unit());
        for (name, count) in &outcome.samples {
            println!("{w} samples.{name} {count} count");
        }
        if let Some((label, value)) = outcome.unit_ms_tail {
            println!("{w} unit_ms_{label} {value} ms");
        }
        println!(
            "{w} failed_share {} share ({} of {})",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
            outcome.failed,
            outcome.attempted
        );
    }
    for (name, stats) in &outcome.spans {
        println!(
            "{w} span.{name} {} calls, total {:.3} ms, self {:.3} ms",
            stats.calls,
            stats.total_ns as f64 / 1e6,
            stats.self_ns as f64 / 1e6
        );
    }
    println!("{w} digest {:016x}", outcome.digest);
    for (name, value) in outcome.lengths.iter().chain(&outcome.counts) {
        println!("{w} count.{name} {value} count");
    }
    for check in &outcome.checks {
        let verdict = if check.passed { "ok" } else { "FAILED" };
        println!("{w} check.{} {verdict} ({})", check.name, check.detail);
    }
}

/// `kadbench run`: each workload untraced, then traced, each in a fresh
/// child process of this binary so `peak_rss_mb` is per workload.
fn run_all(flags: &Flags) -> Result<bool, String> {
    let seed = flags.seed.unwrap_or(spec::DEFAULT_SEED);
    let seconds = flags.seconds.unwrap_or(spec::spec().run_seconds);
    let out = flags.out.clone().unwrap_or_else(|| DEFAULT_OUT.into());
    let workloads = if flags.workloads.is_empty() {
        Workload::ALL.to_vec()
    } else {
        flags.workloads.clone()
    };
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;

    let header = Json::obj([
        ("machine", machine::fingerprint()),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("quick", Json::Bool(flags.quick)),
    ]);
    println!("# kadbench {}", header.render());

    let mut all_ok = true;
    let mut results = Vec::new();
    for workload in workloads {
        let child = |traced: bool| -> Result<Json, String> {
            let mut cmd = Command::new(&exe);
            cmd.args(["--workload", workload.name()])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .arg("--out")
                .arg(&out);
            if flags.quick {
                cmd.arg("--quick");
            }
            let output = cmd
                .output()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            // Pass the child's report through; keep its detail line, drop
            // the result line (the last one), which the detail repeats.
            let mut lines: Vec<&str> = stdout.lines().collect();
            lines.pop();
            let mut detail = None;
            for line in lines {
                match line.strip_prefix("detail ") {
                    Some(text) => detail = Some(json::parse(text)?),
                    None => println!("{line}"),
                }
            }
            detail.ok_or_else(|| {
                format!(
                    "{} (trace {}) printed no result: {}",
                    workload.name(),
                    u8::from(traced),
                    String::from_utf8_lossy(&output.stderr).trim()
                )
            })
        };
        let untraced = child(false)?;
        let traced = child(true)?;
        let correct = |d: &Json| {
            d.get("result")
                .and_then(|r| r.get("correct"))
                .and_then(Json::as_bool)
                == Some(true)
        };
        let digests_equal = untraced.get("digest") == traced.get("digest")
            && untraced.get("counts") == traced.get("counts");
        let wall = |d: &Json| {
            d.get("timed_wall_s")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let delta_pct = (wall(&traced) / wall(&untraced) - 1.0) * 100.0;
        let w = workload.name();
        println!("{w} trace.wall_delta_pct {delta_pct} %");
        println!(
            "{w} check.traced_run_reproduces_untraced {}",
            if digests_equal { "ok" } else { "FAILED" }
        );
        all_ok &= digests_equal && correct(&untraced) && correct(&traced);
        results.push(Json::obj([
            ("name", Json::str(w)),
            ("digests_equal", Json::Bool(digests_equal)),
            ("trace_wall_delta_pct", Json::Num(delta_pct)),
            ("untraced", untraced),
            ("traced", traced),
        ]));
    }

    let path = out.join(format!("result-seed{seed}.json"));
    let document = Json::obj([("header", header), ("workloads", Json::Arr(results))]);
    std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, document.render() + "\n"))
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("# result file {}", path.display());
    println!(
        "# {}",
        if all_ok {
            "all checks passed"
        } else {
            "CHECKS FAILED"
        }
    );
    Ok(all_ok)
}
