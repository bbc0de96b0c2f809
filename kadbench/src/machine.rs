//! Machine fingerprint and process memory.

use crate::json::Json;
use std::process::Command;

/// Worker threads the κ sweeps may use: `min(nproc, 2)`. The reference
/// box has two cores and the sweeps are the only multi-threaded code, so
/// results from bigger machines stay comparable.
pub fn thread_cap() -> usize {
    nproc().min(2)
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Pins the rayon shim's worker count. Call first thing in `main`, before
/// any other thread exists.
pub fn pin_threads() {
    std::env::set_var("RAYON_NUM_THREADS", thread_cap().to_string());
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split(':').nth(1))
                .map(|model| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// The result header's machine section.
pub fn fingerprint() -> Json {
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        ("cpu_model", Json::str(cpu_model())),
        ("rustc", Json::str(env!("KADBENCH_RUSTC"))),
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "dev"
            } else {
                "release"
            }),
        ),
        ("thread_cap", Json::Num(thread_cap() as f64)),
        ("git_commit", Json::str(git_commit())),
    ])
}
