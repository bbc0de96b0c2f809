//! The benchmark's contract, read from the root `BENCHMARK.json`.
//!
//! `BENCHMARK.json` is compiled in, so the file the driver reads is the one
//! source of metric names, units and bounds:
//! what `kadbench` emits and what `kadbench agree` tolerates cannot drift
//! from it. What the file's fixed key set cannot hold — sizes, pinned
//! digests — lives here.

use crate::json::{self, Json};
use std::sync::OnceLock;

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Default workload seed; pinned digests and κ values apply to it only.
pub const DEFAULT_SEED: u64 = 11;

/// One metric as `BENCHMARK.json` declares it.
#[derive(Clone, Debug)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// Share of the parent's median the metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Clone, Debug)]
pub struct Spec {
    pub run_seconds: f64,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// The metric list a run with the given `--trace` setting emits.
    pub fn metrics(&self, traced: bool) -> &[MetricSpec] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

fn metric_list(doc: &Json, key: &str) -> Vec<MetricSpec> {
    doc.get(key)
        .map(Json::as_array)
        .unwrap_or_default()
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_else(|| panic!("BENCHMARK.json: metric without `{k}`"))
                    .to_string()
            };
            MetricSpec {
                name: text("name"),
                unit: text("unit"),
                bound: m.get("bound").and_then(Json::as_f64),
            }
        })
        .collect()
}

/// The contract compiled into this binary.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        let doc = json::parse(BENCHMARK_JSON).expect("BENCHMARK.json parses");
        Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .expect("BENCHMARK.json: run_seconds"),
            end_to_end: metric_list(&doc, "end_to_end"),
            per_layer: metric_list(&doc, "per_layer"),
        }
    })
}

/// The six workloads. Names are final; later issues cite them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Steady1k,
    Steady10k,
    ChurnLossy1k,
    DefendGrid,
    KappaMin1k,
    KappaPaper250,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::Steady1k,
        Workload::Steady10k,
        Workload::ChurnLossy1k,
        Workload::DefendGrid,
        Workload::KappaMin1k,
        Workload::KappaPaper250,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Steady1k => "steady-1k",
            Workload::Steady10k => "steady-10k",
            Workload::ChurnLossy1k => "churn-lossy-1k",
            Workload::DefendGrid => "defend-grid",
            Workload::KappaMin1k => "kappa-min-1k",
            Workload::KappaPaper250 => "kappa-paper-250",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one unit of `work_per_s` / `unit_ms_p50` is on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::Steady1k | Workload::Steady10k | Workload::ChurnLossy1k => "simulated minute",
            Workload::DefendGrid => "grid cell",
            Workload::KappaMin1k | Workload::KappaPaper250 => "pair flow",
        }
    }
}

/// Input sizes of one workload. Overlay sizes never change with
/// `--seconds`; only the simulated minutes of the timed phase do.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Overlay size (0 for `defend-grid`, whose cells `defense_grid` sizes).
    pub nodes: usize,
    /// Simulated minutes of the timed phase at the nominal `run_seconds`
    /// (simulator workloads; 0 elsewhere).
    pub timed_minutes: u64,
    /// Set-ups per run; `setup_s` is their median. One where a single
    /// set-up already takes several seconds.
    pub setup_reps: usize,
    /// Grid cells (`defend-grid` only).
    pub cells: usize,
}

/// Sizes for the full benchmark, measured on the 2-core reference
/// container: 68 ms, 1.55 s and 149 ms per simulated minute put the three
/// simulator workloads at ~15 s; the grid (14 s), the exact minimum at
/// n=1000 (21 s) and the paper-size analysis (10 s) are indivisible.
pub fn sizes(workload: Workload, quick: bool) -> Sizes {
    let (nodes, timed_minutes, setup_reps, cells) = match (workload, quick) {
        (Workload::Steady1k, false) => (1000, 220, 3, 0),
        (Workload::Steady10k, false) => (10_000, 9, 1, 0),
        (Workload::ChurnLossy1k, false) => (1000, 100, 1, 0),
        (Workload::DefendGrid, false) => (0, 0, 5, 32),
        (Workload::KappaMin1k, false) => (1000, 0, 3, 0),
        (Workload::KappaPaper250, false) => (250, 0, 5, 0),
        (Workload::Steady1k, true) => (200, 6, 2, 0),
        (Workload::Steady10k, true) => (600, 3, 1, 0),
        (Workload::ChurnLossy1k, true) => (200, 6, 1, 0),
        (Workload::DefendGrid, true) => (0, 0, 1, 8),
        (Workload::KappaMin1k, true) => (200, 0, 1, 0),
        (Workload::KappaPaper250, true) => (60, 0, 2, 0),
    };
    Sizes {
        nodes,
        timed_minutes,
        setup_reps,
        cells,
    }
}

/// Values a speed-only change must reproduce exactly at
/// [`DEFAULT_SEED`], full sizes and the nominal `run_seconds`.
#[derive(Clone, Copy, Debug)]
pub struct Pin {
    /// FNV-1a digest of the workload's simulated output (see
    /// [`crate::stats::Fnv`] and each workload's `digest`).
    pub digest: u64,
    /// Exact `κ_min` (κ workloads).
    pub kappa_min: Option<u64>,
}

pub fn pin(workload: Workload) -> Pin {
    let (digest, kappa_min) = match workload {
        Workload::Steady1k => (0x7f41_4572_9a42_fa04, None),
        Workload::Steady10k => (0x1973_e743_0318_c73a, None),
        Workload::ChurnLossy1k => (0x171d_8ed9_bf8b_9b2d, None),
        Workload::DefendGrid => (0xfaf7_4baa_aa19_3336, None),
        Workload::KappaMin1k => (0x0e26_038d_557f_5b4c, Some(54)),
        Workload::KappaPaper250 => (0xbb48_6faa_5b00_7ae7, Some(43)),
    };
    Pin { digest, kappa_min }
}
