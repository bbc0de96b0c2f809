//! The experiment harness: scenario matrix, simulation runner and the
//! figure/table regeneration pipeline for every result in the paper.
//!
//! The paper's evaluation (Section 5) spans eight dimensions — network
//! size, churn, traffic, message loss, `k`, `α`, `b`, `s` — organized into
//! Simulations A–L plus two tables. This crate encodes:
//!
//! * [`scale`] — three effort presets: `Bench` (seconds per experiment,
//!   used by the tests and CI), `Laptop` (minutes, the default for the
//!   `repro` CLI) and `Paper` (the original sizes: 250/2500 nodes and
//!   full durations — hours to days of compute, as in the paper).
//! * [`scenario`] — the [`scenario::Scenario`] type and constructors for
//!   each of the paper's simulations.
//! * [`runner`] — the one live-cell runner: a [`runner::LiveCell`]
//!   describes everything that may act on an overlay while it runs (the
//!   paper's setup / stabilization / churn phases and traffic of
//!   Section 5.3, plus an optional attacker, hardening policy,
//!   durability probe, per-minute κ feed and load workload), and
//!   [`runner::run_cell`] wires the canonical actor order once and
//!   snapshots connectivity on a fixed grid. Every grid below is a list
//!   of cells and a CSV column list.
//! * [`session`] — the minute-loop session engine `run_cell` composes
//!   over: a [`session::SessionDriver`] owning the network and the minute
//!   clock, running an ordered set of [`session::MinuteActor`]s (joins,
//!   churn, traffic, attacker, durability probe, measurement sampler).
//! * [`matrix`] — the grid executor [`matrix::MatrixRunner`] (cell-level
//!   workers above the pair-level rayon parallelism, outcomes streamed as
//!   they finish) and the paper's A–H k-sweep grid behind `repro matrix`.
//! * [`attack_plan`] — the shared adversary vocabulary: victim-selection
//!   plans, the eclipse anchor, the attack spec a cell embeds, and the
//!   uniform grid-cell scenario construction.
//! * [`campaign`] — live attack campaigns: an adversary compromising nodes
//!   *during* churn and traffic via scheduled
//!   [`kademlia::network::SimNetwork::schedule_compromise`] events, with
//!   the `κ(t)` / `r(t)` series per strategy; the `repro campaign` grid.
//! * [`service`] — service-level telemetry: cells with a dissemination-
//!   durability probe, correlating `κ(t)` with lookup success rates,
//!   hop-count distributions and retrievability; the `repro service`
//!   grid.
//! * [`traffic`] — production-traffic generators: arrival processes
//!   (Poisson, bursty on/off, diurnal) and the Zipf hot-key sampler,
//!   hand-rolled on the labelled RNG streams and pinned by a statistical
//!   test suite (`tests/traffic_stats.rs`).
//! * [`load`] — the production-load engine: a [`load::LoadActor`] driving
//!   sustained request volumes with admission-window backpressure, per-
//!   minute latency percentiles from [`kad_telemetry`] histograms,
//!   and the (offered rate × attack plan) grid behind `repro load`.
//! * [`defense`] — the defense side of the ledger: cells with a
//!   [`kad_defense`] routing-table hardening policy installed and single-
//!   vs disjoint-path retrieval probes, crossing every policy with every
//!   attack strategy and churn; the `repro defend` grid.
//! * [`sweep`] — the phased attacker (it *switches strategy mid-run*, on
//!   a clock or on the observed κ trough) and its grid crossed with
//!   defense policies; the `repro sweep` grid.
//! * [`series`] / [`table`] / [`ascii_chart`] — figure and table data
//!   structures with CSV and terminal renderings.
//! * [`observe`] — the flight recorder behind `--observe DIR`: every
//!   cell runs through [`observe::run_observed`], which captures the span
//!   profile, the session journal's determinism hash chain, and the
//!   protocol counters, and the collector writes `run-manifest.json`,
//!   `profile.csv`, `audit-chain.csv` and `metrics.prom`; `repro audit`
//!   diffs two runs' chains via [`observe::compare_audit_chains`].
//! * [`figures`] — the experiment registry: one entry per paper
//!   figure/table, executable via `repro <experiment>` (`repro all` runs
//!   every entry). The harness's own cost is timed by the `kadbench`
//!   `defend-grid` workload and its `kad_experiments.*` metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ascii_chart;
pub mod attack_plan;
pub mod campaign;
pub mod defense;
pub mod figures;
pub mod load;
pub mod matrix;
pub mod observe;
pub mod runner;
pub mod scale;
pub mod scenario;
pub mod series;
pub mod service;
pub mod session;
pub mod sweep;
pub mod table;
pub mod traffic;

pub use attack_plan::{AttackPlan, AttackSpec};
pub use campaign::{run_campaign, CampaignOutcome, CampaignScenario};
pub use defense::{run_defense, DefenseOutcome, DefenseScenario};
pub use figures::{run_experiment, ExperimentId, ExperimentResult};
pub use load::{run_load, LoadOutcome, LoadPoint, LoadScenario, LoadSpec};
pub use matrix::MatrixRunner;
pub use observe::{run_observed, CellObservation, CellReport, TraceExemplar};
pub use runner::{run_cell, run_scenario, CellOutcome, CellPoint, LiveCell, ProbeSpec};
pub use scale::Scale;
pub use scenario::{Scenario, ScenarioBuilder};
pub use service::{run_service, ServiceOutcome, ServiceScenario};
pub use session::{MinuteActor, SessionDriver};
pub use sweep::{run_sweep, SweepOutcome, SweepScenario};
pub use traffic::{ArrivalProcess, ZipfSampler};
