//! Simulated-time types.
//!
//! All simulation schedules in the paper are expressed in minutes of
//! simulated time (setup ends at minute 30, stabilization at minute 120,
//! bucket refresh every 60 minutes, …) while protocol internals (RPC
//! timeouts, network latencies) live at millisecond granularity. A
//! millisecond tick as `u64` covers both comfortably: ~584 million years of
//! simulated time before overflow.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// An instant of simulated time, measured in milliseconds since the start
/// of the simulation.
///
/// # Example
///
/// ```
/// use dessim::time::{SimDuration, SimTime};
///
/// let t = SimTime::from_minutes(2) + SimDuration::from_secs(30);
/// assert_eq!(t.as_millis(), 150_000);
/// assert_eq!(t.as_minutes_f64(), 2.5);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; useful as an "infinitely late"
    /// sentinel for run-until bounds.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates an instant from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms)
    }

    /// Creates an instant from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000)
    }

    /// Creates an instant from whole simulated minutes (the paper's natural
    /// unit).
    pub const fn from_minutes(m: u64) -> Self {
        SimTime(m * 60_000)
    }

    /// Raw milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole minutes since the epoch, truncating.
    pub const fn as_minutes(self) -> u64 {
        self.0 / 60_000
    }

    /// Minutes since the epoch as a float — the x-axis of every figure in
    /// the paper.
    pub fn as_minutes_f64(self) -> f64 {
        self.0 as f64 / 60_000.0
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration from raw milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms)
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000)
    }

    /// Creates a duration from whole minutes.
    pub const fn from_minutes(m: u64) -> Self {
        SimDuration(m * 60_000)
    }

    /// Raw milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Whole seconds, truncating.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Whole minutes, truncating.
    pub const fn as_minutes(self) -> u64 {
        self.0 / 60_000
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}ms", self.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ms", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert_eq!(SimTime::from_minutes(3).as_millis(), 180_000);
        assert_eq!(SimTime::from_secs(90).as_minutes(), 1);
        assert_eq!(SimDuration::from_minutes(2).as_secs(), 120);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_secs(5);
        assert_eq!(t, SimTime::from_secs(15));
        assert_eq!(t - SimDuration::from_secs(20), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs(4) * 3, SimDuration::from_secs(12));
        assert_eq!(SimDuration::from_secs(9) / 3, SimDuration::from_secs(3));
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(8);
        assert_eq!(b.since(a), SimDuration::from_secs(3));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn minutes_f64_matches_axis_units() {
        let t = SimTime::from_secs(90);
        assert!((t.as_minutes_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::ZERO < SimTime::from_millis(1));
        assert!(SimTime::MAX > SimTime::from_minutes(1_000_000));
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX
            .checked_add(SimDuration::from_millis(1))
            .is_none());
        assert_eq!(
            SimTime::ZERO.checked_add(SimDuration::from_millis(7)),
            Some(SimTime::from_millis(7))
        );
    }
}
