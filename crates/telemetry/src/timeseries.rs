//! Windowed time-series aggregation keyed by simulated minute.
//!
//! The experiment harness snapshots connectivity on a minute grid; the
//! service metrics (lookup successes, retrieval probes) arrive as events at
//! arbitrary simulated instants. [`MinuteSeries`] buckets those events into
//! per-minute windows so the harness can align both series on the same
//! x-axis.
//!
//! # Example
//!
//! ```
//! use kad_telemetry::MinuteSeries;
//!
//! let mut s = MinuteSeries::new();
//! s.record(3, 1.0);
//! s.record(3, 0.0);
//! s.record(7, 1.0);
//! let w3 = s.window(3).expect("minute 3 recorded");
//! assert_eq!(w3.count, 2);
//! assert_eq!(w3.mean(), 0.5);
//! assert_eq!(s.range_stats(0, 5).count, 2); // [0, 5) excludes minute 7
//! ```

use std::collections::BTreeMap;

/// Aggregate statistics of one window (or a union of windows).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct WindowStats {
    /// Number of samples.
    pub count: u64,
    /// Sum of the samples.
    pub sum: f64,
    /// Smallest sample (`+inf` when empty).
    pub min: f64,
    /// Largest sample (`-inf` when empty).
    pub max: f64,
}

impl Default for WindowStats {
    fn default() -> Self {
        WindowStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl WindowStats {
    /// Adds one sample.
    pub fn record(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Absorbs another window.
    pub fn absorb(&mut self, other: &WindowStats) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// A time series of [`WindowStats`] keyed by simulated minute.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MinuteSeries {
    windows: BTreeMap<u64, WindowStats>,
}

impl MinuteSeries {
    /// Creates an empty series.
    pub fn new() -> Self {
        MinuteSeries::default()
    }

    /// Records a sample in the window of `minute`.
    pub fn record(&mut self, minute: u64, value: f64) {
        self.windows.entry(minute).or_default().record(value);
    }

    /// The window of `minute`, if any sample fell into it.
    pub fn window(&self, minute: u64) -> Option<&WindowStats> {
        self.windows.get(&minute)
    }

    /// Aggregate over the half-open minute range `[from, to)`.
    pub fn range_stats(&self, from: u64, to: u64) -> WindowStats {
        let mut total = WindowStats::default();
        for (_, w) in self.windows.range(from..to) {
            total.absorb(w);
        }
        total
    }

    /// Total samples across all windows.
    pub fn total_count(&self) -> u64 {
        self.windows.values().map(|w| w.count).sum()
    }

    /// Iterates the populated windows in ascending minute order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &WindowStats)> {
        self.windows.iter().map(|(&m, w)| (m, w))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_key_by_minute() {
        let mut s = MinuteSeries::new();
        s.record(1, 2.0);
        s.record(1, 4.0);
        s.record(9, 1.0);
        assert_eq!(s.window(1).unwrap().count, 2);
        assert_eq!(s.window(1).unwrap().mean(), 3.0);
        assert!(s.window(2).is_none());
        assert_eq!(s.total_count(), 3);
        let minutes: Vec<u64> = s.iter().map(|(m, _)| m).collect();
        assert_eq!(minutes, vec![1, 9]);
    }

    #[test]
    fn range_is_half_open() {
        let mut s = MinuteSeries::new();
        for m in 0..10 {
            s.record(m, m as f64);
        }
        let r = s.range_stats(2, 5);
        assert_eq!(r.count, 3);
        assert_eq!(r.sum, 2.0 + 3.0 + 4.0);
        assert_eq!(r.min, 2.0);
        assert_eq!(r.max, 4.0);
        assert_eq!(s.range_stats(5, 5).count, 0);
        assert_eq!(s.range_stats(5, 5).mean(), 0.0);
    }
}
