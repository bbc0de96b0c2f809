//! What every workload shares: run arguments, the raw measurement record,
//! and its assembly into the metrics `BENCHMARK.json` names.

use crate::json::Json;
use crate::spec::{self, Workload};
use crate::stats;
use crate::trace::{NameStats, Tracer};
use std::path::PathBuf;

/// One benchmark run: one workload, traced or not.
#[derive(Clone, Debug)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    /// Timed-phase budget the simulated-minute counts are sized from.
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Where a traced run writes its Chrome trace; `None` keeps the spans
    /// in memory only.
    pub trace_out: Option<PathBuf>,
}

impl RunArgs {
    /// Simulated minutes of the timed phase: the workload's nominal count
    /// scaled by `seconds / run_seconds` (quick mode keeps its fixed few).
    pub fn timed_minutes(&self) -> u64 {
        let nominal = spec::sizes(self.workload, self.quick).timed_minutes;
        if self.quick {
            return nominal;
        }
        let scaled = nominal as f64 * self.seconds / spec::spec().run_seconds;
        (scaled.round() as u64).max(2)
    }

    /// Whether the pinned seed-11 values apply to this run.
    pub fn pinned(&self) -> bool {
        !self.quick && self.seed == spec::DEFAULT_SEED && self.seconds == spec::spec().run_seconds
    }
}

/// One correctness check's verdict.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: &'static str,
    pub passed: bool,
    pub detail: String,
}

impl Check {
    pub fn new(name: &'static str, passed: bool, detail: impl Into<String>) -> Check {
        Check {
            name,
            passed,
            detail: detail.into(),
        }
    }
}

/// What a workload measured, before metric assembly.
#[derive(Debug, Default)]
pub struct Measured {
    /// Seconds per set-up repetition.
    pub setup_s: Vec<f64>,
    /// Wall-clock of the timed phase.
    pub wall_s: f64,
    /// Work units the timed phase completed (see [`Workload::work_unit`]).
    pub work_items: f64,
    /// Host milliseconds per work unit, one sample per timed unit.
    pub unit_ms: Vec<f64>,
    /// `VmHWM` right after the timed phase.
    pub peak_rss_mb: f64,
    pub attempted: u64,
    pub failed: u64,
    /// FNV-1a over the simulated output; host times never enter it.
    pub digest: u64,
    /// Simulated counts that must repeat exactly for a seed.
    pub counts: Vec<(&'static str, u64)>,
    pub checks: Vec<Check>,
    /// Per-layer metric values (traced runs).
    pub layer: Vec<(&'static str, f64)>,
    /// Run lengths for the result header (`timed_minutes=220`, …).
    pub lengths: Vec<(&'static str, u64)>,
}

impl Measured {
    pub fn layer(&mut self, name: &'static str, value: f64) {
        self.layer.push((name, value));
    }

    /// Compares digest and κ against the pinned seed-11 values.
    pub fn check_pins(&mut self, args: &RunArgs, kappa_min: Option<u64>) {
        if !args.pinned() {
            return;
        }
        let pin = spec::pin(args.workload);
        self.checks.push(Check::new(
            "pinned_digest",
            self.digest == pin.digest,
            format!("digest {:016x}, pinned {:016x}", self.digest, pin.digest),
        ));
        if let (Some(got), Some(want)) = (kappa_min, pin.kappa_min) {
            self.checks.push(Check::new(
                "pinned_kappa_min",
                got == want,
                format!("kappa_min {got}, pinned {want}"),
            ));
        }
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// A finished run: the contract's result line plus the detail `kadbench
/// run` and `kadbench agree` work from.
#[derive(Clone, Debug)]
pub struct Outcome {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub quick: bool,
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    pub digest: u64,
    pub counts: Vec<(&'static str, u64)>,
    pub checks: Vec<Check>,
    /// Sample count behind each median (`setup_s`, `unit_ms_p50`).
    pub samples: Vec<(&'static str, u64)>,
    /// Highest percentile of the per-unit time with at least ten samples
    /// beyond it, where the sample count allows.
    pub unit_ms_tail: Option<(&'static str, f64)>,
    pub lengths: Vec<(&'static str, u64)>,
    /// Wall-clock of the timed phase, kept for traced runs too: traced
    /// against untraced is the direct reading of the tracing overhead.
    pub timed_wall_s: f64,
    /// Calls, total and self time per span name (traced runs): where the
    /// run's wall-clock went, each nanosecond counted once.
    pub spans: Vec<(&'static str, NameStats)>,
}

/// Turns a workload's raw measurements into the metric list
/// `BENCHMARK.json` declares for this kind of run. Every declared metric is
/// emitted exactly once; a per-layer metric the workload bypasses reads 0.
///
/// # Panics
///
/// Panics if the workload reported a metric `BENCHMARK.json` does not
/// declare, reported one twice, or left an end-to-end metric out — each a
/// bug in the benchmark, not a property of the program under test.
pub fn assemble(args: &RunArgs, tracer: &Tracer, mut m: Measured) -> Outcome {
    let mut values: Vec<(&'static str, f64)> = if args.trace {
        if let Some(share) = tracer.unattributed_share() {
            m.checks.push(Check::new(
                "trace_conservation",
                share <= 0.02,
                format!("unattributed share {share:.4} (limit 0.02)"),
            ));
            m.layer("trace.unattributed_share", share);
        }
        if let Some(pct) = tracer.overhead_pct() {
            m.layer("trace.overhead_pct", pct);
        }
        m.layer("trace.spans", tracer.span_count() as f64);
        std::mem::take(&mut m.layer)
    } else {
        vec![
            ("setup_s", stats::median(&m.setup_s)),
            ("wall_s", m.wall_s),
            ("work_per_s", m.work_items / m.wall_s),
            ("unit_ms_p50", stats::median(&m.unit_ms)),
            ("peak_rss_mb", m.peak_rss_mb),
        ]
    };

    let declared = spec::spec().metrics(args.trace);
    let metrics: Vec<Metric> = declared
        .iter()
        .map(|d| {
            let mut hits = values.iter().filter(|(name, _)| *name == d.name);
            let value = match (hits.next(), hits.next()) {
                (Some(&(_, v)), None) => v,
                (None, _) if args.trace => 0.0,
                (None, _) => panic!("end-to-end metric {} not measured", d.name),
                (Some(_), Some(_)) => panic!("metric {} reported twice", d.name),
            };
            Metric {
                name: d.name.clone(),
                value,
                unit: d.unit.clone(),
            }
        })
        .collect();
    values.retain(|(name, _)| !declared.iter().any(|d| d.name == *name));
    assert!(
        values.is_empty(),
        "metrics not declared in BENCHMARK.json: {values:?}"
    );

    let failed_checks = m.checks.iter().filter(|c| !c.passed).count() as u64;
    Outcome {
        workload: args.workload,
        seed: args.seed,
        seconds: args.seconds,
        traced: args.trace,
        quick: args.quick,
        correct: failed_checks == 0,
        attempted: m.attempted + m.checks.len() as u64,
        failed: m.failed + failed_checks,
        metrics,
        digest: m.digest,
        counts: m.counts,
        samples: vec![
            ("setup_s", m.setup_s.len() as u64),
            ("unit_ms_p50", m.unit_ms.len() as u64),
        ],
        unit_ms_tail: stats::highest_supported_percentile(&m.unit_ms),
        checks: m.checks,
        lengths: m.lengths,
        timed_wall_s: m.wall_s,
        spans: tracer.by_name().into_iter().collect(),
    }
}

impl Outcome {
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The result line the contract asks for: exactly `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn contract_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::obj([
                                    ("value", Json::Num(m.value)),
                                    ("unit", Json::str(m.unit.clone())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Everything else a result file keeps: digest, exact counts, checks,
    /// sample counts and run lengths.
    pub fn detail_json(&self) -> Json {
        let pairs = |items: &[(&'static str, u64)]| {
            Json::Obj(
                items
                    .iter()
                    .map(|&(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect(),
            )
        };
        let mut fields = vec![
            ("workload", Json::str(self.workload.name())),
            ("seed", Json::Num(self.seed as f64)),
            ("seconds", Json::Num(self.seconds)),
            ("traced", Json::Bool(self.traced)),
            ("quick", Json::Bool(self.quick)),
            ("digest", Json::str(format!("{:016x}", self.digest))),
            ("timed_wall_s", Json::Num(self.timed_wall_s)),
            ("counts", pairs(&self.counts)),
            ("lengths", pairs(&self.lengths)),
            ("samples", pairs(&self.samples)),
            (
                "checks",
                Json::Arr(
                    self.checks
                        .iter()
                        .map(|c| {
                            Json::obj([
                                ("name", Json::str(c.name)),
                                ("passed", Json::Bool(c.passed)),
                                ("detail", Json::str(c.detail.clone())),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "spans",
                Json::Obj(
                    self.spans
                        .iter()
                        .map(|(name, s)| {
                            (
                                name.to_string(),
                                Json::obj([
                                    ("calls", Json::Num(s.calls as f64)),
                                    ("total_ms", Json::Num(s.total_ns as f64 / 1e6)),
                                    ("self_ms", Json::Num(s.self_ns as f64 / 1e6)),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            ("result", self.contract_json()),
        ];
        if let Some((label, value)) = self.unit_ms_tail {
            fields.push((
                "unit_ms_tail",
                Json::obj([
                    ("percentile", Json::str(label)),
                    ("value", Json::Num(value)),
                ]),
            ));
        }
        Json::obj(fields)
    }
}
