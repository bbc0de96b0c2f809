//! Mixed-phase attack sweeps: the attacker switches strategy mid-campaign.
//!
//! A [`PhasedAttackerActor`] drives the shared [`AttackerActor`] through an
//! ordered list of [`AttackPhase`]s, switching victim-selection plans on a
//! clock or on the measured κ ([`minute_kappa`]) — e.g. eclipse a replica
//! neighborhood until `κ_min` troughs, then finish the overlay off with
//! min-cut-guided compromises.
//! It is the one attacker every live cell wires
//! ([`crate::runner::run_cell`]): a fixed-plan attack is a one-phase
//! script.
//!
//! The sweep grid crosses two phase scripts with every [`kad_defense`]
//! policy, so "does a defense that survives a *fixed* strategy also
//! survive an adaptive one" is answerable from one CSV — the
//! environment-crossing methodology of the companion CPS study scaled to
//! adversaries instead of deployment parameters. `repro sweep` runs it
//! and writes `sweep-timeseries.csv` (the κ/service series with the
//! active phase label per row).

use crate::attack_plan::{grid_base_scenario, AttackPlan, AttackSpec};
use crate::runner::{CellOutcome, LiveCell, ProbeSpec};
use crate::scale::Scale;
use crate::scenario::{ChurnRate, TrafficModel};
use crate::session::{minute_kappa, AttackerActor, MinuteActor, MinuteCtx};
use kad_defense::PolicyKind;
use kad_telemetry::{Cell, Recorder};
use kademlia::network::SimNetwork;

/// When a phase hands over to the next one.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwitchRule {
    /// After this many minutes in the phase (attack minutes, counted from
    /// phase entry).
    AfterMinutes(u64),
    /// When `κ_min` first drops below the threshold — the "switch at the
    /// κ trough" trigger. From the second minute of a phase on, the
    /// attacker reads [`minute_kappa`] on the minute-boundary snapshot,
    /// so the switch lands on the very next attack minute after
    /// connectivity actually drops. The reading is the paper's c = 0.02
    /// heuristic, an upper bound on κ(D).
    KappaBelow(u64),
    /// Never: the terminal phase.
    Never,
}

/// One phase of the attacker's script: a plan and the rule that ends it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AttackPhase {
    /// Victim-selection plan active during the phase.
    pub plan: AttackPlan,
    /// When to hand over to the next phase (ignored on the last one).
    pub switch: SwitchRule,
}

/// Drives the shared [`AttackerActor`] through an [`AttackPhase`] script.
/// The targeted set, the min-cut queue and the eclipse anchor persist
/// across switches — the adversary keeps its knowledge, only its policy
/// changes. Publishes the active plan label and every transition into
/// the session's shared state.
pub struct PhasedAttackerActor {
    inner: AttackerActor,
    phases: Vec<AttackPhase>,
    phase_index: usize,
    /// Minute the current phase was entered (None until the attack
    /// starts).
    entered_minute: Option<u64>,
}

impl PhasedAttackerActor {
    /// Drives `inner` through `script`; its first phase's plan overrides
    /// the plan `inner` was wired with. An empty script keeps that plan
    /// for the whole run.
    pub fn new(mut inner: AttackerActor, script: &[AttackPhase]) -> Self {
        let phases = if script.is_empty() {
            vec![AttackPhase {
                plan: inner.plan(),
                switch: SwitchRule::Never,
            }]
        } else {
            script.to_vec()
        };
        inner.set_plan(phases[0].plan);
        PhasedAttackerActor {
            inner,
            phases,
            phase_index: 0,
            entered_minute: None,
        }
    }

    fn should_switch(&self, minute: u64, net: &SimNetwork) -> bool {
        let Some(entered) = self.entered_minute else {
            return false;
        };
        match self.phases[self.phase_index].switch {
            SwitchRule::Never => false,
            SwitchRule::AfterMinutes(m) => minute - entered >= m,
            // Only κ measured *after* the phase was entered counts: the
            // boundary snapshot of the entry minute is the pre-attack (or
            // pre-phase) overlay and must never trigger the trough switch.
            SwitchRule::KappaBelow(threshold) => {
                minute > entered && minute_kappa(&net.snapshot()).0 < threshold
            }
        }
    }
}

impl MinuteActor for PhasedAttackerActor {
    fn label(&self) -> &'static str {
        "attacker"
    }

    fn on_minute(&mut self, net: &mut SimNetwork, ctx: &mut MinuteCtx<'_>) {
        let attacking = ctx.minute >= self.inner.spec().start_minute;
        if attacking {
            if self.entered_minute.is_none() {
                self.entered_minute = Some(ctx.minute);
            }
            while self.phase_index + 1 < self.phases.len() && self.should_switch(ctx.minute, net) {
                self.phase_index += 1;
                let plan = self.phases[self.phase_index].plan;
                self.inner.set_plan(plan);
                self.entered_minute = Some(ctx.minute);
                ctx.shared.phase_switches.push((ctx.minute, plan.label()));
            }
        }
        ctx.shared.attack_label = self.inner.plan().label();
        self.inner.on_minute(net, ctx);
    }
}

// ----------------------------------------------------------------------
// Grid + rendering
// ----------------------------------------------------------------------

/// Short label of a phase script — the plans in order, then each switch
/// rule (`eclipse>min-cut@trough`, `random>highest-degree@4m`): the
/// CSV's `script` column and part of the cell name.
pub fn script_label(phases: &[AttackPhase]) -> String {
    let plans: Vec<&str> = phases.iter().map(|p| p.plan.label()).collect();
    let mut label = plans.join(">");
    for phase in phases {
        match phase.switch {
            SwitchRule::AfterMinutes(minutes) => label.push_str(&format!("@{minutes}m")),
            SwitchRule::KappaBelow(_) => label.push_str("@trough"),
            SwitchRule::Never => {}
        }
    }
    label
}

/// The two phase scripts the sweep grid crosses with every policy.
fn phase_scripts() -> [Vec<AttackPhase>; 2] {
    [
        // Eclipse a replica neighborhood until κ_min troughs below 5,
        // then finish with guided min-cut compromises.
        vec![
            AttackPhase {
                plan: AttackPlan::Eclipse,
                switch: SwitchRule::KappaBelow(5),
            },
            AttackPhase {
                plan: AttackPlan::MinCut,
                switch: SwitchRule::Never,
            },
        ],
        // Blend in as random failures for 4 attack minutes, then go
        // after the best-connected nodes.
        vec![
            AttackPhase {
                plan: AttackPlan::Random,
                switch: SwitchRule::AfterMinutes(4),
            },
            AttackPhase {
                plan: AttackPlan::HighestDegree,
                switch: SwitchRule::Never,
            },
        ],
    ]
}

/// The grid `repro sweep` runs: both phase scripts × every [`PolicyKind`]
/// (churn off — the adaptive attacker is the variable under test), sized
/// like the defense grid so all 8 cells finish in seconds at bench scale.
pub fn sweep_grid(scale: Scale, base_seed: u64) -> Vec<LiveCell> {
    let cfg = scale.config();
    let size = (cfg.small_size * 3 / 4).max(12);
    let budget = (size / 2).max(3);
    let attack_minutes = budget as u64 / 2;
    let recovery_minutes = 14;
    let mut grid = Vec::new();
    for phases in phase_scripts() {
        for policy in PolicyKind::ALL {
            let name = format!("sweep-{}-{}", script_label(&phases), policy.label());
            let base = grid_base_scenario(
                &name,
                size,
                ChurnRate::NONE,
                Some(40),
                attack_minutes + recovery_minutes,
                cfg.snapshot_minutes,
                TrafficModel {
                    lookups_per_min: (cfg.lookups_per_min / 2).max(1),
                    stores_per_min: cfg.stores_per_min,
                },
                base_seed,
            );
            let start_minute = base.stabilization_minutes;
            grid.push(LiveCell {
                policy,
                attack: Some(AttackSpec {
                    plan: phases[0].plan,
                    budget,
                    compromises_per_min: 2,
                    start_minute,
                }),
                phases: phases.clone(),
                probe: Some(ProbeSpec {
                    store_every_min: 8,
                    ..ProbeSpec::SERVICE
                }),
                ..LiveCell::unattacked(base)
            });
        }
    }
    grid
}

/// The mixed-phase time-series CSV: one row per (cell, snapshot), with
/// the active attack phase as a column.
pub fn sweep_timeseries_csv(outcomes: &[CellOutcome]) -> String {
    let mut rec = Recorder::new(&[
        "script",
        "policy",
        "churn",
        "time_min",
        "phase",
        "budget_spent",
        "honest_size",
        "kappa_min",
        "kappa_avg",
        "resilience",
        "lookups",
        "lookup_success_rate",
        "retrieves",
        "retrievability",
    ]);
    for outcome in outcomes {
        let policy = outcome.scenario.policy.label();
        let churn = outcome.scenario.base.churn.label();
        for p in &outcome.points {
            rec.row(&[
                script_label(&outcome.scenario.phases).into(),
                policy.into(),
                churn.clone().into(),
                Cell::f64(p.time_min, 1),
                p.phase.into(),
                p.budget_spent.into(),
                p.honest_size.into(),
                p.report.min_connectivity.into(),
                Cell::opt_f64(p.report.avg_connectivity, 3),
                p.report.resilience().into(),
                p.lookups.into(),
                Cell::f64(p.lookup_success_rate, 4),
                p.retrieves.into(),
                Cell::f64(p.retrievability, 4),
            ]);
        }
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matrix::MatrixRunner;
    use crate::runner::run_cell;
    use crate::scenario::ScenarioBuilder;

    fn quick_sweep(phases: Vec<AttackPhase>, seed: u64) -> LiveCell {
        let mut b = ScenarioBuilder::quick(18, 4);
        b.name("test-sweep")
            .seed(seed)
            .stabilization_minutes(40)
            .churn_minutes(14)
            .snapshot_minutes(20);
        LiveCell {
            attack: Some(AttackSpec {
                plan: phases[0].plan,
                budget: 8,
                compromises_per_min: 2,
                start_minute: 40,
            }),
            phases,
            probe: Some(ProbeSpec {
                store_every_min: 5,
                ..ProbeSpec::SERVICE
            }),
            ..LiveCell::unattacked(b.build())
        }
    }

    #[test]
    fn clock_switch_fires_and_is_recorded() {
        let outcome = run_cell(&quick_sweep(
            vec![
                AttackPhase {
                    plan: AttackPlan::Random,
                    switch: SwitchRule::AfterMinutes(2),
                },
                AttackPhase {
                    plan: AttackPlan::HighestDegree,
                    switch: SwitchRule::Never,
                },
            ],
            7,
        ));
        assert_eq!(
            outcome.phase_switches.len(),
            1,
            "{:?}",
            outcome.phase_switches
        );
        let (minute, label) = outcome.phase_switches[0];
        assert_eq!(label, "highest-degree");
        assert_eq!(minute, 42, "2 attack minutes after start 40");
        // Both phase labels appear in the series.
        let phases: std::collections::HashSet<&str> =
            outcome.points.iter().map(|p| p.phase).collect();
        assert!(phases.contains("random"), "{phases:?}");
        assert!(phases.contains("highest-degree"), "{phases:?}");
        assert_eq!(outcome.budget_spent, 8);
    }

    #[test]
    fn kappa_trough_switch_reacts_to_the_measured_series() {
        // A threshold above any possible κ switches on the very first
        // post-attack-start sample.
        let outcome = run_cell(&quick_sweep(
            vec![
                AttackPhase {
                    plan: AttackPlan::Random,
                    switch: SwitchRule::KappaBelow(u64::MAX),
                },
                AttackPhase {
                    plan: AttackPlan::MinCut,
                    switch: SwitchRule::Never,
                },
            ],
            9,
        ));
        assert_eq!(outcome.phase_switches.len(), 1);
        assert_eq!(outcome.phase_switches[0].1, "min-cut");
        // ...but only κ measured after phase entry counts: the attack
        // starts (and the phase is entered) at minute 40, whose boundary
        // snapshot predates it, so the switch lands at minute 41.
        assert_eq!(outcome.phase_switches[0].0, 41, "attack start 40 + 1");
        // An unreachable threshold never switches.
        let stay = run_cell(&quick_sweep(
            vec![
                AttackPhase {
                    plan: AttackPlan::Random,
                    switch: SwitchRule::KappaBelow(0),
                },
                AttackPhase {
                    plan: AttackPlan::MinCut,
                    switch: SwitchRule::Never,
                },
            ],
            9,
        ));
        assert!(stay.phase_switches.is_empty(), "{:?}", stay.phase_switches);
        assert!(stay.points.iter().all(|p| p.phase != "min-cut"));
    }

    #[test]
    fn replay_is_deterministic() {
        let phases = vec![
            AttackPhase {
                plan: AttackPlan::Eclipse,
                switch: SwitchRule::KappaBelow(3),
            },
            AttackPhase {
                plan: AttackPlan::MinCut,
                switch: SwitchRule::Never,
            },
        ];
        let a = run_cell(&quick_sweep(phases.clone(), 11));
        let b = run_cell(&quick_sweep(phases, 11));
        assert_eq!(a, b);
    }

    #[test]
    fn grid_covers_scripts_and_policies_and_csv_renders() {
        let grid = sweep_grid(Scale::Bench, 5);
        assert_eq!(grid.len(), 8, "2 scripts × 4 policies");
        let mut seeds: Vec<u64> = grid.iter().map(|c| c.base.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 8, "unique seed per cell");
        // Smoke-run the two none-policy cells and render.
        let sample: Vec<LiveCell> = grid
            .into_iter()
            .filter(|c| c.policy == PolicyKind::None)
            .collect();
        assert_eq!(sample.len(), 2);
        let mut done = 0usize;
        let outcomes =
            MatrixRunner::new()
                .scenario_threads(2)
                .run_tasks(&sample, run_cell, |_, _| done += 1);
        assert_eq!(done, 2);
        let csv = sweep_timeseries_csv(&outcomes);
        assert!(csv.starts_with("script,policy,churn,time_min,phase"));
        assert!(
            csv.contains("eclipse>min-cut@trough,none"),
            "{}",
            &csv[..300.min(csv.len())]
        );
    }
}
