//! `kadbench agree A.json B.json`: do two result files of `kadbench run`
//! agree under the benchmark's own bounds?
//!
//! Host timings (the end-to-end metrics) must lie within the metric's
//! `bound` of each other, relative to their mean — `setup_s` within its
//! bound or 0.2 s, whichever is larger, since most set-ups take well under
//! a second; everything simulated —
//! digests, exact counts, `attempted`, `failed`, check verdicts — must be
//! identical. Per-layer metrics carry no bound and are listed for reading,
//! not judged.

use crate::json::{self, Json};
use crate::spec;
use std::path::Path;

/// Absolute tolerance on `setup_s`: sub-second set-ups differ by more than
/// any relative bound on a noisy host without meaning anything.
const SETUP_FLOOR_S: f64 = 0.2;

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(doc: &Json) -> Vec<(&str, &Json)> {
    doc.get("workloads")
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .filter_map(|w| Some((w.get("name")?.as_str()?, w)))
        .collect()
}

fn verdict<'a>(run: &'a Json, key: &str) -> Option<&'a Json> {
    run.get("result")?.get(key)
}

fn metric(run: &Json, name: &str) -> Option<f64> {
    run.get("result")?
        .get("metrics")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Compares two parsed result documents, printing one row per workload and
/// metric. Returns whether they agree.
pub fn compare(a: &Json, b: &Json) -> bool {
    let spec = spec::spec();
    let mut agree = true;
    let row = |workload: &str, what: &str, left: String, right: String, verdict: &str| {
        println!("{workload:<16} {what:<40} {left:>18} {right:>18}  {verdict}");
    };
    let (wa, wb) = (workloads(a), workloads(b));
    if wa.iter().map(|w| w.0).ne(wb.iter().map(|w| w.0)) {
        println!("workload lists differ");
        return false;
    }
    if a.get("header").and_then(|h| h.get("seed")) != b.get("header").and_then(|h| h.get("seed")) {
        println!("seeds differ: simulated counts cannot be compared");
        return false;
    }
    for ((name, left), (_, right)) in wa.into_iter().zip(wb) {
        for mode in ["untraced", "traced"] {
            let (Some(l), Some(r)) = (left.get(mode), right.get(mode)) else {
                row(name, mode, "-".into(), "-".into(), "MISSING");
                agree = false;
                continue;
            };
            // Simulated output: exact.
            let exact = [
                ("digest", l.get("digest"), r.get("digest")),
                ("counts", l.get("counts"), r.get("counts")),
                (
                    "attempted",
                    verdict(l, "attempted"),
                    verdict(r, "attempted"),
                ),
                ("failed", verdict(l, "failed"), verdict(r, "failed")),
                ("correct", verdict(l, "correct"), verdict(r, "correct")),
            ];
            for (what, lv, rv) in exact {
                let same = lv.is_some() && lv == rv;
                agree &= same;
                let show = |v: Option<&Json>| match v {
                    Some(Json::Obj(fields)) => format!("{} counts", fields.len()),
                    Some(v) => v.render(),
                    None => "-".into(),
                };
                row(
                    name,
                    &format!("{mode}.{what}"),
                    show(lv),
                    show(rv),
                    if same { "same" } else { "DIFFERS" },
                );
            }
            // Host timings: within the bound, or listed only.
            for declared in spec.metrics(mode == "traced") {
                let (Some(lv), Some(rv)) = (metric(l, &declared.name), metric(r, &declared.name))
                else {
                    row(name, &declared.name, "-".into(), "-".into(), "MISSING");
                    agree = false;
                    continue;
                };
                let mean = (lv + rv) / 2.0;
                let spread = if mean == 0.0 {
                    0.0
                } else {
                    (lv - rv).abs() / mean.abs()
                };
                let verdict = match declared.bound {
                    Some(bound) if spread <= bound => {
                        format!("within {:.0}% ({:.1}%)", bound * 100.0, spread * 100.0)
                    }
                    Some(_) if declared.name == "setup_s" && (lv - rv).abs() <= SETUP_FLOOR_S => {
                        format!("within {SETUP_FLOOR_S} s ({:.1}%)", spread * 100.0)
                    }
                    Some(bound) => {
                        agree = false;
                        format!("OUTSIDE {:.0}% ({:.1}%)", bound * 100.0, spread * 100.0)
                    }
                    None => format!("info ({:.1}%)", spread * 100.0),
                };
                row(
                    name,
                    &format!("{} [{}]", declared.name, declared.unit),
                    format!("{lv:.4}"),
                    format!("{rv:.4}"),
                    &verdict,
                );
            }
        }
    }
    println!("{}", if agree { "AGREE" } else { "DISAGREE" });
    agree
}

/// Loads and compares two result files.
pub fn compare_files(a: &Path, b: &Path) -> Result<bool, String> {
    Ok(compare(&load(a)?, &load(b)?))
}
