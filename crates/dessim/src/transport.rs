//! Message transport: latency plus loss.
//!
//! The transport is a pure *policy* object: given the current time and an
//! RNG it answers "when does this message arrive, if at all?". The protocol
//! layer owns the actual event scheduling, keeping the kernel generic.

use crate::latency::LatencyModel;
use crate::loss::LossModel;
use crate::time::SimTime;
use rand::Rng;

/// Delivery policy for simulated messages.
///
/// # Example
///
/// ```
/// use dessim::transport::Transport;
/// use dessim::latency::LatencyModel;
/// use dessim::loss::LossModel;
/// use dessim::time::{SimDuration, SimTime};
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
///
/// let t = Transport::new(
///     LatencyModel::Constant(SimDuration::from_millis(20)),
///     LossModel::None,
/// );
/// let mut rng = SmallRng::seed_from_u64(0);
/// let arrival = t.delivery_time(&mut rng, SimTime::from_millis(100));
/// assert_eq!(arrival, Some(SimTime::from_millis(120)));
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Transport {
    latency: LatencyModel,
    loss: LossModel,
}

impl Transport {
    /// Creates a transport from a latency and a loss model.
    pub fn new(latency: LatencyModel, loss: LossModel) -> Self {
        Transport { latency, loss }
    }

    /// A lossless transport with the given latency model.
    pub fn lossless(latency: LatencyModel) -> Self {
        Transport {
            latency,
            loss: LossModel::None,
        }
    }

    /// The latency model.
    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    /// The loss model.
    pub fn loss(&self) -> LossModel {
        self.loss
    }

    /// Replaces the loss model, keeping latency (builder-style).
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Decides the fate of one message sent at `now`: `Some(arrival)` or
    /// `None` if the message is lost.
    ///
    /// The loss draw happens *before* the latency draw and both always
    /// consume randomness in the same order, so traces with different loss
    /// models remain comparable.
    pub fn delivery_time<R: Rng + ?Sized>(&self, rng: &mut R, now: SimTime) -> Option<SimTime> {
        let lost = self.loss.is_lost(rng);
        let delay = self.latency.sample(rng);
        if lost {
            None
        } else {
            Some(now + delay)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn lossless_always_delivers() {
        let t = Transport::lossless(LatencyModel::default_uniform());
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(t.delivery_time(&mut rng, SimTime::ZERO).is_some());
        }
    }

    #[test]
    fn total_loss_never_delivers() {
        let t = Transport::new(
            LatencyModel::Constant(SimDuration::from_millis(1)),
            LossModel::Bernoulli(1.0),
        );
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..100 {
            assert!(t.delivery_time(&mut rng, SimTime::ZERO).is_none());
        }
    }

    #[test]
    fn arrival_is_after_send() {
        let t = Transport::lossless(LatencyModel::default_uniform());
        let mut rng = SmallRng::seed_from_u64(5);
        let now = SimTime::from_secs(100);
        for _ in 0..100 {
            let at = t.delivery_time(&mut rng, now).expect("lossless");
            assert!(at > now);
        }
    }

    #[test]
    fn partial_loss_rate_is_plausible() {
        let t = Transport::new(
            LatencyModel::Constant(SimDuration::from_millis(1)),
            LossModel::Bernoulli(0.25),
        );
        let mut rng = SmallRng::seed_from_u64(11);
        let trials = 100_000;
        let delivered = (0..trials)
            .filter(|_| t.delivery_time(&mut rng, SimTime::ZERO).is_some())
            .count();
        let rate = delivered as f64 / trials as f64;
        assert!((rate - 0.75).abs() < 0.01, "delivery rate {rate}");
    }

    #[test]
    fn with_loss_keeps_latency() {
        let t = Transport::lossless(LatencyModel::Constant(SimDuration::from_millis(9)))
            .with_loss(LossModel::Bernoulli(0.5));
        assert_eq!(
            t.latency(),
            LatencyModel::Constant(SimDuration::from_millis(9))
        );
        assert_eq!(t.loss(), LossModel::Bernoulli(0.5));
    }
}
