//! Message-loss models, including the paper's Table 1 scenarios.
//!
//! The paper tailors loss probabilities to Kademlia's dominant two-way
//! (request/response) exchanges: a one-way loss probability `p` is chosen
//! so that the probability of a round trip failing, `1 − (1 − p)²`, hits a
//! target. Table 1:
//!
//! | scenario | P(loss, 1-way) | P(loss, 2-way) |
//! |----------|----------------|----------------|
//! | none     | 0.0 %          | 0 %            |
//! | low      | 2.5 %          | 5 %            |
//! | medium   | 13.4 %         | 25 %           |
//! | high     | 29.3 %         | 50 %           |

use rand::Rng;
use std::fmt;

/// Per-message (one-way) loss model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum LossModel {
    /// Every message arrives.
    #[default]
    None,
    /// Each message is dropped independently with this probability.
    Bernoulli(f64),
}

impl LossModel {
    /// Whether a particular message is lost.
    ///
    /// # Panics
    ///
    /// Panics if a `Bernoulli` probability is outside `[0, 1]`.
    pub fn is_lost<R: Rng + ?Sized>(&self, rng: &mut R) -> bool {
        match *self {
            LossModel::None => false,
            LossModel::Bernoulli(p) => {
                assert!((0.0..=1.0).contains(&p), "loss probability out of range");
                rng.random_bool(p)
            }
        }
    }

    /// One-way loss probability.
    pub fn one_way_probability(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli(p) => p,
        }
    }

    /// Probability that a request/response round trip fails:
    /// `1 − (1 − p)²`.
    pub fn two_way_probability(&self) -> f64 {
        let p = self.one_way_probability();
        1.0 - (1.0 - p) * (1.0 - p)
    }
}

/// The paper's four loss scenarios (Table 1).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum LossScenario {
    /// No loss at all — the paper's default unless stated otherwise.
    #[default]
    None,
    /// 2.5 % one-way ⇒ 5 % two-way.
    Low,
    /// 13.4 % one-way ⇒ 25 % two-way.
    Medium,
    /// 29.3 % one-way ⇒ 50 % two-way.
    High,
}

impl LossScenario {
    /// All four scenarios in Table 1 order.
    pub const ALL: [LossScenario; 4] = [
        LossScenario::None,
        LossScenario::Low,
        LossScenario::Medium,
        LossScenario::High,
    ];

    /// The one-way loss probability of the scenario.
    pub fn one_way_probability(self) -> f64 {
        match self {
            LossScenario::None => 0.0,
            LossScenario::Low => 0.025,
            LossScenario::Medium => 0.134,
            LossScenario::High => 0.293,
        }
    }

    /// The nominal two-way failure probability reported in Table 1.
    pub fn nominal_two_way_probability(self) -> f64 {
        match self {
            LossScenario::None => 0.0,
            LossScenario::Low => 0.05,
            LossScenario::Medium => 0.25,
            LossScenario::High => 0.50,
        }
    }

    /// Converts the scenario to a per-message [`LossModel`].
    pub fn to_model(self) -> LossModel {
        match self {
            LossScenario::None => LossModel::None,
            other => LossModel::Bernoulli(other.one_way_probability()),
        }
    }
}

impl fmt::Display for LossScenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            LossScenario::None => "none",
            LossScenario::Low => "low",
            LossScenario::Medium => "medium",
            LossScenario::High => "high",
        };
        f.write_str(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn none_never_loses() {
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..100 {
            assert!(!LossModel::None.is_lost(&mut rng));
        }
    }

    #[test]
    fn bernoulli_one_always_loses() {
        let mut rng = SmallRng::seed_from_u64(0);
        assert!(LossModel::Bernoulli(1.0).is_lost(&mut rng));
    }

    #[test]
    fn table1_two_way_probabilities_match_paper() {
        // 1 − (1 − p)² must land within rounding distance of the paper's
        // two-way targets: 5 %, 25 %, 50 %.
        for (scenario, target) in [
            (LossScenario::None, 0.0),
            (LossScenario::Low, 0.05),
            (LossScenario::Medium, 0.25),
            (LossScenario::High, 0.50),
        ] {
            let actual = scenario.to_model().two_way_probability();
            assert!(
                (actual - target).abs() < 0.001,
                "{scenario}: derived {actual}, Table 1 says {target}"
            );
            assert_eq!(scenario.nominal_two_way_probability(), target);
        }
    }

    #[test]
    fn empirical_rate_matches_probability() {
        let model = LossScenario::Medium.to_model();
        let mut rng = SmallRng::seed_from_u64(99);
        let trials = 200_000;
        let losses = (0..trials).filter(|_| model.is_lost(&mut rng)).count();
        let rate = losses as f64 / trials as f64;
        assert!(
            (rate - 0.134).abs() < 0.005,
            "empirical {rate} vs nominal 0.134"
        );
    }

    #[test]
    fn display_names() {
        assert_eq!(LossScenario::Medium.to_string(), "medium");
        assert_eq!(LossScenario::None.to_string(), "none");
    }

    #[test]
    fn all_lists_in_table_order() {
        assert_eq!(LossScenario::ALL.len(), 4);
        assert_eq!(LossScenario::ALL[0], LossScenario::None);
        assert_eq!(LossScenario::ALL[3], LossScenario::High);
    }
}
