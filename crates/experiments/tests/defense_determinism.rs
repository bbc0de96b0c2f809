//! Replay determinism of the defense experiments: any (policy ×
//! strategy) cell re-run with the same seed must reproduce its
//! `defense-timeseries.csv` rows byte-identically — the contract that
//! makes every CSV in the docs regenerable with `--seed`.

use kad_defense::PolicyKind;
use kad_experiments::defense::{defense_timeseries_csv, run_defense, DefenseScenario};
use kad_experiments::scenario::ScenarioBuilder;
use kad_experiments::{AttackPlan, AttackSpec, ProbeSpec};
use proptest::prelude::*;

fn cell(policy: PolicyKind, plan: AttackPlan, seed: u64) -> DefenseScenario {
    let mut b = ScenarioBuilder::quick(16, 4);
    b.name(format!("prop-defense-{}-{}", policy.label(), plan.label()))
        .seed(seed)
        .stabilization_minutes(40)
        .churn(kad_experiments::scenario::ChurnRate::ONE_ONE)
        .churn_minutes(8)
        .snapshot_minutes(20);
    let base = b.build();
    DefenseScenario {
        policy,
        attack: Some(AttackSpec {
            plan,
            budget: 4,
            compromises_per_min: 1,
            start_minute: 40,
        }),
        probe: Some(ProbeSpec {
            store_every_min: 6,
            ..ProbeSpec::DEFENSE
        }),
        ..DefenseScenario::undefended(base)
    }
}

proptest! {
    // Each case runs two full (small) simulations; keep the count low.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any (policy × strategy × seed) cell replays byte-identically.
    #[test]
    fn any_policy_strategy_cell_replays_identically(
        policy_idx in 0usize..PolicyKind::ALL.len(),
        plan_idx in 0usize..AttackPlan::ALL.len(),
        seed in 1u64..1_000,
    ) {
        let policy = PolicyKind::ALL[policy_idx];
        let plan = AttackPlan::ALL[plan_idx];
        let scenario = cell(policy, plan, seed);
        let first = run_defense(&scenario);
        let second = run_defense(&scenario);
        prop_assert_eq!(&first, &second, "outcome replay diverged");
        let csv_a = defense_timeseries_csv(std::slice::from_ref(&first));
        let csv_b = defense_timeseries_csv(std::slice::from_ref(&second));
        prop_assert_eq!(csv_a, csv_b, "CSV rows diverged");
    }
}
