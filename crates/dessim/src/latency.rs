//! Message latency models.

use crate::time::SimDuration;
use rand::Rng;

/// How long a message spends in flight.
///
/// The paper does not publish its PeerSim latency configuration; PeerSim's
/// stock event-driven Kademlia module draws uniformly from a fixed window,
/// so [`LatencyModel::Uniform`] with a 10–100 ms window is the default used
/// by the experiment harness (documented in DESIGN.md). Latency only shifts
/// *when* routing-table updates happen; connectivity results are driven by
/// loss, churn and the protocol parameters.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LatencyModel {
    /// Every message takes exactly this long.
    Constant(SimDuration),
    /// Uniformly distributed in `[min, max]` (inclusive).
    Uniform {
        /// Minimum delay.
        min: SimDuration,
        /// Maximum delay.
        max: SimDuration,
    },
}

impl LatencyModel {
    /// The default window used by the experiment harness.
    pub fn default_uniform() -> Self {
        LatencyModel::Uniform {
            min: SimDuration::from_millis(10),
            max: SimDuration::from_millis(100),
        }
    }

    /// Samples a delay.
    ///
    /// # Panics
    ///
    /// Panics if a `Uniform` model has `min > max`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { min, max } => {
                assert!(min <= max, "uniform latency window inverted");
                SimDuration::from_millis(rng.random_range(min.as_millis()..=max.as_millis()))
            }
        }
    }

    /// An upper bound on the sampled delay, used to size RPC timeouts.
    pub fn upper_bound(&self) -> SimDuration {
        match *self {
            LatencyModel::Constant(d) => d,
            LatencyModel::Uniform { max, .. } => max,
        }
    }
}

impl Default for LatencyModel {
    fn default() -> Self {
        Self::default_uniform()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn constant_is_constant() {
        let m = LatencyModel::Constant(SimDuration::from_millis(42));
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..10 {
            assert_eq!(m.sample(&mut rng), SimDuration::from_millis(42));
        }
    }

    #[test]
    fn uniform_stays_in_window() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_millis(5),
            max: SimDuration::from_millis(9),
        };
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..1000 {
            let d = m.sample(&mut rng);
            assert!(d >= SimDuration::from_millis(5) && d <= SimDuration::from_millis(9));
        }
    }

    #[test]
    fn uniform_covers_window() {
        let m = LatencyModel::Uniform {
            min: SimDuration::from_millis(0),
            max: SimDuration::from_millis(1),
        };
        let mut rng = SmallRng::seed_from_u64(2);
        let mut seen = [false; 2];
        for _ in 0..100 {
            seen[m.sample(&mut rng).as_millis() as usize] = true;
        }
        assert!(seen[0] && seen[1]);
    }

    #[test]
    fn upper_bound_dominates_samples() {
        let m = LatencyModel::default_uniform();
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..100 {
            assert!(m.sample(&mut rng) <= m.upper_bound());
        }
    }
}
