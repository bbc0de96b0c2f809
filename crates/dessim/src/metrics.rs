//! Counters and summary statistics.
//!
//! [`Summary`] implements exactly the aggregation the paper's Table 2
//! reports: the mean and the *relative variance* (variance divided by mean)
//! of the minimum connectivity during the churn phase. [`Counters`] is the
//! simulator's event tally: one fixed slot per [`Counter`].

use std::fmt;

/// Streaming summary statistics over `f64` samples (Welford's algorithm,
/// numerically stable).
///
/// # Example
///
/// ```
/// use dessim::metrics::Summary;
///
/// let mut s = Summary::new();
/// for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.record(x);
/// }
/// assert_eq!(s.mean(), 5.0);
/// assert_eq!(s.variance(), 4.0); // population variance
/// assert_eq!(s.relative_variance(), 0.8);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one sample.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The paper's Table 2 statistic: `Variance / Mean`.
    ///
    /// Zero when the mean is zero (matching the paper's convention for the
    /// size-2500, k=5 rows where the minimum connectivity is constantly 0).
    pub fn relative_variance(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / m
        }
    }

    /// Smallest sample (`+inf` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "n={} mean={:.3} var={:.3} min={:.3} max={:.3}",
            self.count,
            self.mean(),
            self.variance(),
            self.min,
            self.max
        )
    }
}

/// Declares [`Counter`] and its name table from one list: the variant at
/// position `i` has discriminant `i` and the name `NAMES[i]`.
macro_rules! counter_table {
    ($($variant:ident => $name:literal,)*) => {
        /// Every event the simulator counts. The discriminant indexes
        /// [`Counters`]' array, so an increment is a single add.
        ///
        /// Variants are listed in ascending byte order of their names
        /// (checked by a test): [`Counters::iter`] walks the array in index
        /// order and so yields names in ascending order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq)]
        pub enum Counter {
            $(
                #[doc = concat!("`", $name, "`")]
                $variant,
            )*
        }

        /// Counter names; index `i` names the [`Counter`] with
        /// discriminant `i`.
        const NAMES: &[&str] = &[$($name),*];
    };
}

counter_table! {
    BootstrapReseed => "bootstrap_reseed",
    CompromiseScheduled => "compromise_scheduled",
    ContactEvicted => "contact_evicted",
    DefenseDiversityReject => "defense_diversity_reject",
    DefenseDiversityReplace => "defense_diversity_replace",
    DefenseProbe => "defense_probe",
    DefenseRepair => "defense_repair",
    DefenseTick => "defense_tick",
    DisjointValueHit => "disjoint_value_hit",
    LateResponse => "late_response",
    LookupFinished => "lookup_finished",
    LookupStarted => "lookup_started",
    MsgLost => "msg_lost",
    MsgSent => "msg_sent",
    MsgToDead => "msg_to_dead",
    NodeCompromised => "node_compromised",
    NodeJoined => "node_joined",
    NodeRemoved => "node_removed",
    NodeSpawned => "node_spawned",
    RefreshLookup => "refresh_lookup",
    RefreshTick => "refresh_tick",
    RequestHandled => "request_handled",
    ResponseReceived => "response_received",
    RetrieveDisjointStarted => "retrieve_disjoint_started",
    RetrieveStarted => "retrieve_started",
    RpcSent => "rpc_sent",
    RpcTimeout => "rpc_timeout",
    StoreRpcSent => "store_rpc_sent",
    StoreStarted => "store_started",
    ValueHit => "value_hit",
}

const COUNTER_COUNT: usize = NAMES.len();

/// Named event counters (messages sent, lookups started, …): one `u64`
/// per [`Counter`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    counts: [u64; COUNTER_COUNT],
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Increments counter `c` by one.
    #[inline]
    pub fn incr(&mut self, c: Counter) {
        self.counts[c as usize] += 1;
    }

    /// Current value of the counter called `name` (0 if never incremented
    /// or if no counter has that name).
    pub fn get(&self, name: &str) -> u64 {
        NAMES.binary_search(&name).map_or(0, |i| self.counts[i])
    }

    /// Iterates `(name, count)` pairs in ascending name order, skipping
    /// counters that were never incremented.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        NAMES
            .iter()
            .zip(&self.counts)
            .filter(|&(_, &count)| count > 0)
            .map(|(&name, &count)| (name, count))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_summary_is_sane() {
        let s = Summary::new();
        assert_eq!(s.count(), 0);
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.relative_variance(), 0.0);
    }

    #[test]
    fn single_sample() {
        let mut s = Summary::new();
        s.record(3.5);
        assert_eq!(s.mean(), 3.5);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), 3.5);
        assert_eq!(s.max(), 3.5);
    }

    #[test]
    fn relative_variance_zero_mean() {
        let mut s = Summary::new();
        s.record(0.0);
        s.record(0.0);
        assert_eq!(s.relative_variance(), 0.0);
    }

    #[test]
    fn matches_naive_computation() {
        let data = [1.0, 2.0, 2.5, 7.25, -3.0, 0.5];
        let mut s = Summary::new();
        for &x in &data {
            s.record(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / data.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert!((s.variance() - var).abs() < 1e-12);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        assert_eq!(c.iter().count(), 0, "a fresh table yields nothing");
        for _ in 0..5 {
            c.incr(Counter::MsgSent);
        }
        c.incr(Counter::LookupStarted);
        c.incr(Counter::BootstrapReseed);
        c.incr(Counter::ValueHit);
        assert_eq!(c.get("msg_sent"), 5);
        assert_eq!(c.get("lookup_started"), 1);
        assert_eq!(c.get("msg_lost"), 0, "never incremented");
        assert_eq!(c.get("absent"), 0, "no such counter");
        // Ascending name order; untouched counters stay invisible.
        let pairs: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(
            pairs,
            vec![
                ("bootstrap_reseed", 1),
                ("lookup_started", 1),
                ("msg_sent", 5),
                ("value_hit", 1),
            ]
        );
        let copy = c.clone();
        assert_eq!(copy, c);
        c.incr(Counter::MsgLost);
        assert_ne!(copy, c);
    }

    #[test]
    fn counter_names_are_sorted_and_match_discriminants() {
        assert_eq!(COUNTER_COUNT, 30);
        assert!(NAMES.windows(2).all(|w| w[0] < w[1]), "{NAMES:?}");
        assert_eq!(NAMES[Counter::BootstrapReseed as usize], "bootstrap_reseed");
        assert_eq!(NAMES[Counter::MsgSent as usize], "msg_sent");
        assert_eq!(Counter::ValueHit as usize, COUNTER_COUNT - 1);
        assert_eq!(NAMES[Counter::ValueHit as usize], "value_hit");
        for (i, &name) in NAMES.iter().enumerate() {
            let mut c = Counters::new();
            c.counts[i] = 1;
            assert_eq!(c.get(name), 1, "{name} resolves to slot {i}");
        }
    }
}
