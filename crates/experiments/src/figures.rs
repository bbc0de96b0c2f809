//! The experiment registry: every figure and table of the paper, runnable.
//!
//! Each [`ExperimentId`] corresponds to one table or figure of the paper's
//! evaluation (Section 5). [`run_experiment`] executes the underlying
//! scenario set at a chosen [`Scale`] and returns renderable
//! figures/tables; the `repro` binary and the bench harness are thin
//! wrappers around it. EXPERIMENTS.md records paper-vs-measured for each
//! entry.

use crate::matrix::MatrixRunner;
use crate::runner::{run_scenario, CellOutcome};
use crate::scale::Scale;
use crate::scenario::{paper, ChurnRate, Scenario};
use crate::series::{churn_phase_min_summary, FigureData};
use crate::table::TableData;
use dessim::loss::LossScenario;
use dessim::rng::RngFactory;
use rand::Rng;
use std::fmt;
use std::str::FromStr;

/// The bucket sizes the paper sweeps in Simulations A–H.
pub const K_SWEEP: [usize; 4] = [5, 10, 20, 30];

/// Identifier of one reproducible experiment.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ExperimentId {
    /// Table 1: message-loss scenarios (nominal vs empirical).
    Tab1,
    /// Figure 2 — Simulation A: size small, churn 0/1, no traffic.
    Fig2,
    /// Figure 3 — Simulation B: size large, churn 0/1, no traffic.
    Fig3,
    /// Figure 4 — Simulation C: size small, churn 0/1, traffic.
    Fig4,
    /// Figure 5 — Simulation D: size large, churn 0/1, traffic.
    Fig5,
    /// Figure 6 — Simulation E: size small, churn 1/1, traffic.
    Fig6,
    /// Figure 7 — Simulation F: size large, churn 1/1, traffic.
    Fig7,
    /// Figure 8 — Simulation G: size small, churn 10/10, traffic.
    Fig8,
    /// Figure 9 — Simulation H: size large, churn 10/10, traffic.
    Fig9,
    /// Table 2: churn-phase mean and relative variance (Sims E–H).
    Tab2,
    /// Figure 10: mean min-connectivity vs k for α ∈ {3, 5}.
    Fig10,
    /// §5.7: bit-length b = 80 vs b = 160.
    BitLength,
    /// Figure 11 — Simulation I: staleness s ∈ {1,5}, no loss.
    Fig11,
    /// Figure 12 — Simulation J: loss sweep, no churn.
    Fig12,
    /// Figure 13 — Simulation K: loss sweep, churn 1/1.
    Fig13,
    /// Figure 14 — Simulation L: loss sweep, churn 10/10.
    Fig14,
    /// §5.2: validation of the c-sampling strategy.
    Sampling,
}

impl ExperimentId {
    /// All experiments in paper order.
    pub const ALL: [ExperimentId; 17] = [
        ExperimentId::Tab1,
        ExperimentId::Fig2,
        ExperimentId::Fig3,
        ExperimentId::Fig4,
        ExperimentId::Fig5,
        ExperimentId::Fig6,
        ExperimentId::Fig7,
        ExperimentId::Fig8,
        ExperimentId::Fig9,
        ExperimentId::Tab2,
        ExperimentId::Fig10,
        ExperimentId::BitLength,
        ExperimentId::Fig11,
        ExperimentId::Fig12,
        ExperimentId::Fig13,
        ExperimentId::Fig14,
        ExperimentId::Sampling,
    ];
}

impl fmt::Display for ExperimentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ExperimentId::Tab1 => "tab1",
            ExperimentId::Fig2 => "fig2",
            ExperimentId::Fig3 => "fig3",
            ExperimentId::Fig4 => "fig4",
            ExperimentId::Fig5 => "fig5",
            ExperimentId::Fig6 => "fig6",
            ExperimentId::Fig7 => "fig7",
            ExperimentId::Fig8 => "fig8",
            ExperimentId::Fig9 => "fig9",
            ExperimentId::Tab2 => "tab2",
            ExperimentId::Fig10 => "fig10",
            ExperimentId::BitLength => "bitlen",
            ExperimentId::Fig11 => "fig11",
            ExperimentId::Fig12 => "fig12",
            ExperimentId::Fig13 => "fig13",
            ExperimentId::Fig14 => "fig14",
            ExperimentId::Sampling => "sampling",
        };
        f.write_str(name)
    }
}

impl FromStr for ExperimentId {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        ExperimentId::ALL
            .iter()
            .find(|id| id.to_string() == s.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| format!("unknown experiment {s:?}"))
    }
}

/// The output of one experiment run: figures, tables, free-form notes.
#[derive(Clone, Debug, Default)]
pub struct ExperimentResult {
    /// Experiment name (its id).
    pub name: String,
    /// Figure data sets (possibly several panels).
    pub figures: Vec<FigureData>,
    /// Table data sets.
    pub tables: Vec<TableData>,
    /// Observations worth reporting next to the raw data.
    pub notes: Vec<String>,
}

impl ExperimentResult {
    /// Renders everything as terminal text (charts + tables + notes).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for figure in &self.figures {
            out.push_str(&crate::ascii_chart::render_min_connectivity(figure));
            out.push('\n');
            out.push_str(&crate::ascii_chart::render_avg_connectivity(figure));
            out.push('\n');
        }
        for table in &self.tables {
            out.push_str(&table.render());
            out.push('\n');
        }
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        out
    }
}

pub(crate) fn seed_for(base_seed: u64, name: &str) -> u64 {
    RngFactory::new(base_seed).stream(name).random()
}

/// Stamps the scenario's seed from its name (so every cell of the grid has
/// independent, reproducible randomness).
fn seeded(mut scenario: Scenario, base_seed: u64) -> Scenario {
    scenario.seed = seed_for(base_seed, &scenario.name);
    scenario
}

/// Runs a set of scenarios through the parallel [`MatrixRunner`] and
/// returns outcomes in input order.
fn run_scenarios(scenarios: Vec<Scenario>) -> Vec<CellOutcome> {
    MatrixRunner::new().run_tasks(&scenarios, run_scenario, |_, _| {})
}

/// Runs one experiment at the given scale. `base_seed` parameterizes all
/// randomness, so identical invocations reproduce identical outputs.
pub fn run_experiment(id: ExperimentId, scale: Scale, base_seed: u64) -> ExperimentResult {
    match id {
        ExperimentId::Tab1 => table1(base_seed),
        ExperimentId::Fig2 => k_sweep_figure(id, scale, base_seed, false, SimKind::Ab),
        ExperimentId::Fig3 => k_sweep_figure(id, scale, base_seed, true, SimKind::Ab),
        ExperimentId::Fig4 => k_sweep_figure(id, scale, base_seed, false, SimKind::Cd),
        ExperimentId::Fig5 => k_sweep_figure(id, scale, base_seed, true, SimKind::Cd),
        ExperimentId::Fig6 => k_sweep_figure(id, scale, base_seed, false, SimKind::Ef),
        ExperimentId::Fig7 => k_sweep_figure(id, scale, base_seed, true, SimKind::Ef),
        ExperimentId::Fig8 => k_sweep_figure(id, scale, base_seed, false, SimKind::Gh),
        ExperimentId::Fig9 => k_sweep_figure(id, scale, base_seed, true, SimKind::Gh),
        ExperimentId::Tab2 => table2(scale, base_seed),
        ExperimentId::Fig10 => figure10(scale, base_seed),
        ExperimentId::BitLength => bitlength(scale, base_seed),
        ExperimentId::Fig11 => figure11(scale, base_seed),
        ExperimentId::Fig12 => loss_figure(id, scale, base_seed, ChurnRate::NONE),
        ExperimentId::Fig13 => loss_figure(id, scale, base_seed, ChurnRate::ONE_ONE),
        ExperimentId::Fig14 => loss_figure(id, scale, base_seed, ChurnRate::TEN_TEN),
        ExperimentId::Sampling => sampling_validation(scale, base_seed),
    }
}

#[derive(Clone, Copy)]
enum SimKind {
    Ab,
    Cd,
    Ef,
    Gh,
}

/// Figures 2–9: one figure per (simulation, size), series over the k sweep.
fn k_sweep_figure(
    id: ExperimentId,
    scale: Scale,
    base_seed: u64,
    large: bool,
    kind: SimKind,
) -> ExperimentResult {
    let (sim_name, churn, traffic) = match kind {
        SimKind::Ab => ("A/B", "0/1", false),
        SimKind::Cd => ("C/D", "0/1", true),
        SimKind::Ef => ("E/F", "1/1", true),
        SimKind::Gh => ("G/H", "10/10", true),
    };
    let size = if large {
        scale.config().large_size
    } else {
        scale.config().small_size
    };
    let mut figure = FigureData::new(format!(
        "{id}: Simulation {sim_name} — size {size}, churn {churn}, {}",
        if traffic {
            "with data traffic"
        } else {
            "without data traffic"
        }
    ));
    let mut notes = Vec::new();
    let scenarios: Vec<Scenario> = K_SWEEP
        .into_iter()
        .map(|k| {
            let scenario = match kind {
                SimKind::Ab => paper::sim_ab(scale, large, k),
                SimKind::Cd => paper::sim_cd(scale, large, k),
                SimKind::Ef => paper::sim_ef(scale, large, k),
                SimKind::Gh => paper::sim_gh(scale, large, k, 3),
            };
            seeded(scenario, base_seed)
        })
        .collect();
    for (k, outcome) in K_SWEEP.into_iter().zip(run_scenarios(scenarios)) {
        if let Some(last) = outcome.points.last() {
            let avg = last
                .report
                .avg_connectivity
                .map_or("n/a".to_string(), |v| format!("{v:.1}"));
            notes.push(format!(
                "k={k}: final size {}, κ_min {}, κ_avg {avg}",
                last.honest_size, last.report.min_connectivity
            ));
        }
        figure.add_outcome(format!("k={k}"), &outcome);
    }
    ExperimentResult {
        name: id.to_string(),
        figures: vec![figure],
        tables: Vec::new(),
        notes,
    }
}

/// Table 1: loss scenarios — nominal probabilities plus empirical rates
/// measured on the transport's Bernoulli draws.
fn table1(base_seed: u64) -> ExperimentResult {
    let mut table = TableData::new(
        "Table 1: message loss scenarios",
        &[
            "loss",
            "P(1-way) nominal",
            "P(2-way) nominal",
            "P(2-way) derived",
            "P(1-way) empirical",
            "P(2-way) empirical",
        ],
    );
    let mut rng = RngFactory::new(base_seed).stream("tab1");
    let trials = 200_000u32;
    for scenario in LossScenario::ALL {
        let model = scenario.to_model();
        let mut one_way_losses = 0u32;
        let mut two_way_failures = 0u32;
        for _ in 0..trials {
            let request_lost = model.is_lost(&mut rng);
            let response_lost = model.is_lost(&mut rng);
            if request_lost {
                one_way_losses += 1;
            }
            if response_lost {
                one_way_losses += 1;
            }
            if request_lost || response_lost {
                two_way_failures += 1;
            }
        }
        table.push_row(vec![
            scenario.to_string(),
            format!("{:.1}%", scenario.one_way_probability() * 100.0),
            format!("{:.0}%", scenario.nominal_two_way_probability() * 100.0),
            format!("{:.2}%", model.two_way_probability() * 100.0),
            format!(
                "{:.2}%",
                one_way_losses as f64 / (2.0 * trials as f64) * 100.0
            ),
            format!("{:.2}%", two_way_failures as f64 / trials as f64 * 100.0),
        ]);
    }
    ExperimentResult {
        name: "tab1".into(),
        figures: Vec::new(),
        tables: vec![table],
        notes: vec!["paper: one-way 0/2.5/13.4/29.3% must induce two-way 0/5/25/50%".into()],
    }
}

/// Table 2: mean and relative variance of the minimum connectivity during
/// the churn phase, Simulations E–H.
fn table2(scale: Scale, base_seed: u64) -> ExperimentResult {
    let mut table = TableData::new(
        "Table 2: churn-phase minimum connectivity — mean and relative variance",
        &["size", "k", "churn", "mean", "RV"],
    );
    let mut rows: Vec<(usize, usize, ChurnRate)> = Vec::new();
    let mut scenarios: Vec<Scenario> = Vec::new();
    for large in [false, true] {
        let size = if large {
            scale.config().large_size
        } else {
            scale.config().small_size
        };
        for k in K_SWEEP {
            for churn in [ChurnRate::ONE_ONE, ChurnRate::TEN_TEN] {
                let scenario = if churn == ChurnRate::ONE_ONE {
                    paper::sim_ef(scale, large, k)
                } else {
                    paper::sim_gh(scale, large, k, 3)
                };
                rows.push((size, k, churn));
                scenarios.push(seeded(scenario, base_seed));
            }
        }
    }
    for ((size, k, churn), outcome) in rows.into_iter().zip(run_scenarios(scenarios)) {
        let summary = churn_phase_min_summary(&outcome);
        table.push_row(vec![
            size.to_string(),
            k.to_string(),
            churn.label(),
            format!("{:.2}", summary.mean()),
            format!("{:.2}", summary.relative_variance()),
        ]);
    }
    ExperimentResult {
        name: "tab2".into(),
        figures: Vec::new(),
        tables: vec![table],
        notes: vec![
            "paper: RV increases from churn 1/1 to 10/10 in every row except size-large k=5 (constantly zero)".into(),
        ],
    }
}

/// Figure 10: churn-phase mean of the minimum connectivity vs k, for churn
/// 1/1 (α=3), 10/10 (α=3) and 10/10 (α=5), both network sizes.
fn figure10(scale: Scale, base_seed: u64) -> ExperimentResult {
    let mut tables = Vec::new();
    let mut notes = Vec::new();
    for large in [false, true] {
        let size = if large {
            scale.config().large_size
        } else {
            scale.config().small_size
        };
        let mut table = TableData::new(
            format!(
                "Figure 10{}: mean min connectivity during churn — size {size}",
                if large { "b" } else { "a" }
            ),
            &[
                "k",
                "churn 1/1 (α=3)",
                "churn 10/10 (α=3)",
                "churn 10/10 (α=5)",
            ],
        );
        let scenarios: Vec<Scenario> = K_SWEEP
            .into_iter()
            .flat_map(|k| {
                [
                    paper::sim_ef(scale, large, k),
                    paper::sim_gh(scale, large, k, 3),
                    paper::sim_gh(scale, large, k, 5),
                ]
            })
            .map(|scenario| seeded(scenario, base_seed))
            .collect();
        let outcomes = run_scenarios(scenarios);
        for (row, k) in K_SWEEP.into_iter().enumerate() {
            let mut cells = vec![k.to_string()];
            for outcome in &outcomes[3 * row..3 * row + 3] {
                cells.push(format!("{:.2}", churn_phase_min_summary(outcome).mean()));
            }
            table.push_row(cells);
        }
        tables.push(table);
    }
    notes.push("paper: 1/1 above 10/10; α=5 with churn 10/10 hurts small k (κ≈0 at k=5)".into());
    ExperimentResult {
        name: "fig10".into(),
        figures: Vec::new(),
        tables,
        notes,
    }
}

/// §5.7: the bit-length comparison (b = 160 vs b = 80 on Simulation C/D).
fn bitlength(scale: Scale, base_seed: u64) -> ExperimentResult {
    let mut table = TableData::new(
        "Bit-length b=160 vs b=80 (Simulation C/D, k=20)",
        &[
            "size",
            "b",
            "final κ_min",
            "final κ_avg",
            "churn-phase mean κ_min",
        ],
    );
    let mut figures = Vec::new();
    for large in [false, true] {
        let size = if large {
            scale.config().large_size
        } else {
            scale.config().small_size
        };
        let mut figure = FigureData::new(format!("§5.7: b sweep — size {size}"));
        let bit_variants = [160u16, 80];
        let scenarios: Vec<Scenario> = bit_variants
            .into_iter()
            .map(|bits| seeded(paper::sim_bitlength(scale, large, 20, bits), base_seed))
            .collect();
        for (bits, outcome) in bit_variants.into_iter().zip(run_scenarios(scenarios)) {
            let summary = churn_phase_min_summary(&outcome);
            if let Some(last) = outcome.points.last() {
                table.push_row(vec![
                    size.to_string(),
                    bits.to_string(),
                    last.report.min_connectivity.to_string(),
                    last.report
                        .avg_connectivity
                        .map_or("n/a".to_string(), |v| format!("{v:.1}")),
                    format!("{:.2}", summary.mean()),
                ]);
            }
            figure.add_outcome(format!("b={bits}"), &outcome);
        }
        figures.push(figure);
    }
    ExperimentResult {
        name: "bitlen".into(),
        figures,
        tables: vec![table],
        notes: vec!["paper: no significant difference between b=160 and b=80".into()],
    }
}

/// Figure 11 — Simulation I: staleness limits without loss, churn 1/1 and
/// 10/10 panels.
fn figure11(scale: Scale, base_seed: u64) -> ExperimentResult {
    let mut figures = Vec::new();
    for churn in [ChurnRate::ONE_ONE, ChurnRate::TEN_TEN] {
        let mut figure = FigureData::new(format!(
            "fig11: Simulation I — churn {}, loss none, k=20",
            churn.label()
        ));
        let staleness = [1u32, 5];
        let scenarios: Vec<Scenario> = staleness
            .into_iter()
            .map(|s| seeded(paper::sim_i(scale, churn, s), base_seed))
            .collect();
        for (s, outcome) in staleness.into_iter().zip(run_scenarios(scenarios)) {
            figure.add_outcome(format!("s={s}"), &outcome);
        }
        figures.push(figure);
    }
    ExperimentResult {
        name: "fig11".into(),
        figures,
        tables: Vec::new(),
        notes: vec![
            "paper: with churn 10/10 the average connectivity for s=5 drops below s=1; minimum unaffected".into(),
        ],
    }
}

/// Figures 12–14 — Simulations J/K/L: loss sweep × staleness, one panel
/// per staleness limit.
fn loss_figure(
    id: ExperimentId,
    scale: Scale,
    base_seed: u64,
    churn: ChurnRate,
) -> ExperimentResult {
    let sim = if !churn.is_active() {
        "J (no churn)".to_string()
    } else {
        format!(
            "{} (churn {})",
            if churn == ChurnRate::ONE_ONE {
                "K"
            } else {
                "L"
            },
            churn.label()
        )
    };
    let mut figures = Vec::new();
    for s in [1u32, 5] {
        let mut figure = FigureData::new(format!("{id}: Simulation {sim}, s={s}, k=20"));
        let losses = [LossScenario::Low, LossScenario::Medium, LossScenario::High];
        let scenarios: Vec<Scenario> = losses
            .into_iter()
            .map(|loss| seeded(paper::sim_jkl(scale, churn, loss, s), base_seed))
            .collect();
        for (loss, outcome) in losses.into_iter().zip(run_scenarios(scenarios)) {
            figure.add_outcome(format!("l={loss}"), &outcome);
        }
        figures.push(figure);
    }
    ExperimentResult {
        name: id.to_string(),
        figures,
        tables: Vec::new(),
        notes: vec![
            "paper: more loss ⇒ higher connectivity (s=1); s=5 damps the effect; churn counters it"
                .into(),
        ],
    }
}

/// §5.2: sampling validation — sampled minimum vs exact minimum over
/// Kademlia-like graphs for several sampling fractions.
fn sampling_validation(_scale: Scale, base_seed: u64) -> ExperimentResult {
    use kad_resilience::kappa::{analyze_graph, exact_min};
    use kad_resilience::AnalysisConfig;

    let mut table = TableData::new(
        "Sampling validation: smallest-out-degree c-sampling vs full analysis",
        &[
            "graph", "n", "exact κ", "c=0.01", "c=0.02", "c=0.05", "c=0.10",
        ],
    );
    let mut agree = 0usize;
    let mut total = 0usize;
    let mut graphs: Vec<(String, flowgraph::DiGraph)> = Vec::new();

    // Graphs from a real simulated overlay at several instants — the
    // direct analogue of the paper's "20 randomly selected connectivity
    // graphs" drawn from its simulation runs.
    {
        use dessim::time::SimTime;
        use kademlia::network::SimNetwork;
        // Fixed at 80 nodes regardless of scale: the sampling heuristic is
        // only claimed (and validated by the paper) for graphs where c·n
        // yields a handful of sources; a 32-node bench graph would test a
        // regime the paper never ran.
        let n = 80;
        let scenario = {
            let mut b = crate::scenario::ScenarioBuilder::quick(n, 8);
            b.name("sampling-net")
                .seed(seed_for(base_seed, "sampling-net"));
            b.build()
        };
        let transport = dessim::transport::Transport::default().with_loss(scenario.loss.to_model());
        let mut net = SimNetwork::new(scenario.protocol, transport, scenario.seed);
        let mut rng = RngFactory::new(scenario.seed).stream("sampling-joins");
        let mut prev = None;
        for i in 0..n {
            let addr = net.spawn_node();
            net.join(addr, prev);
            prev = Some(addr);
            let jitter: u64 = rng.random_range(5..20);
            net.run_until(net.now() + dessim::time::SimDuration::from_secs(jitter));
            let _ = i;
        }
        for (idx, minutes) in [30u64, 80, 130].iter().enumerate() {
            net.run_until(SimTime::from_minutes(*minutes));
            let g = kad_resilience::snapshot_to_digraph(&net.snapshot());
            graphs.push((format!("overlay-t{idx}"), g));
        }
    }

    // …and synthetic Kademlia-like graphs (symmetric k-out), the same
    // family the unit tests validate against.
    let mut rng = RngFactory::new(base_seed).stream("sampling-synthetic");
    for trial in 0..6 {
        let n = 60 + 10 * trial;
        let g = flowgraph::generators::random_k_out_symmetric(n, 5, &mut rng);
        graphs.push((format!("k-out-{trial}"), g));
    }

    for (name, g) in &graphs {
        let exact = exact_min(g);
        let mut cells = vec![name.clone(), g.node_count().to_string(), exact.to_string()];
        for c in [0.01, 0.02, 0.05, 0.10] {
            let config = AnalysisConfig {
                sample_fraction: c,
                min_sources: 1,
                ..AnalysisConfig::default()
            };
            let sampled = analyze_graph(g, &config).min_connectivity;
            total += 1;
            if sampled == exact {
                agree += 1;
            }
            cells.push(sampled.to_string());
        }
        table.push_row(cells);
    }
    ExperimentResult {
        name: "sampling".into(),
        figures: Vec::new(),
        tables: vec![table],
        notes: vec![
            format!("agreement with exact minimum: {agree}/{total} sampled sweeps"),
            "paper: c=0.02 sufficed on all 20 validation graphs".into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_roundtrip() {
        for id in ExperimentId::ALL {
            assert_eq!(
                id.to_string().parse::<ExperimentId>().expect("roundtrip"),
                id
            );
        }
        assert!("fig99".parse::<ExperimentId>().is_err());
    }

    #[test]
    fn table1_runs_quickly_and_matches_nominal() {
        let result = run_experiment(ExperimentId::Tab1, Scale::Bench, 7);
        let table = &result.tables[0];
        assert_eq!(table.rows.len(), 4);
        // The empirical two-way rate for `high` should be close to 50%.
        let high_row = &table.rows[3];
        let empirical: f64 = high_row[5].trim_end_matches('%').parse().expect("number");
        assert!((empirical - 50.0).abs() < 1.0, "empirical {empirical}%");
    }

    #[test]
    fn sampling_validation_agrees() {
        let result = run_experiment(ExperimentId::Sampling, Scale::Bench, 3);
        let note = &result.notes[0];
        assert!(note.contains("agreement"), "{note}");
        let table = &result.tables[0];
        for row in &table.rows {
            let exact: u64 = row[2].parse().expect("exact κ");
            // Sampling can only over-estimate the minimum…
            for cell in &row[3..] {
                let sampled: u64 = cell.parse().expect("sampled κ");
                assert!(sampled >= exact, "row {row:?}");
            }
            // …and with the most generous fraction (c = 0.10) it must find
            // the exact minimum. (The paper's smallest effective sample was
            // 5 sources at c = 0.02 on 250 nodes; a single source on a
            // miniature graph may legitimately miss by a little, which the
            // table makes visible.)
            assert_eq!(
                row.last()
                    .expect("c=0.10 column")
                    .parse::<u64>()
                    .expect("κ"),
                exact,
                "row {row:?}"
            );
        }
    }

    #[test]
    fn render_produces_text() {
        let result = run_experiment(ExperimentId::Tab1, Scale::Bench, 7);
        let text = result.render();
        assert!(text.contains("Table 1"));
        assert!(text.contains("note:"));
    }
}
