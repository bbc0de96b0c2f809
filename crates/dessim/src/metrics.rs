//! Counters and summary statistics.
//!
//! [`Summary`] implements exactly the aggregation the paper's Table 2
//! reports: the mean and the *relative variance* (variance divided by mean)
//! of the minimum connectivity during the churn phase.

use std::collections::BTreeMap;
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

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
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

    /// Merges another summary into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &Summary) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * (self.count as f64 * other.count as f64) / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
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

/// Number of [`HotCounter`] variants.
pub const HOT_COUNTER_COUNT: usize = 10;

/// Counters incremented several times per simulated message — the ones
/// whose BTreeMap probes would otherwise dominate the event loop. Each
/// variant indexes a fixed slot in [`Counters::incr_hot`]'s array, so a
/// hot increment is a single add with no string hashing or tree walk.
///
/// Variant order **must** match the ascending byte order of the names in
/// `HOT_NAMES`: the discriminant is the array index, and `Counters::iter`
/// merge-sorts the hot slots against the BTreeMap stream by that order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotCounter {
    /// `late_response`
    LateResponse = 0,
    /// `lookup_finished`
    LookupFinished,
    /// `msg_lost`
    MsgLost,
    /// `msg_sent`
    MsgSent,
    /// `msg_to_dead`
    MsgToDead,
    /// `request_handled`
    RequestHandled,
    /// `response_received`
    ResponseReceived,
    /// `rpc_sent`
    RpcSent,
    /// `rpc_timeout`
    RpcTimeout,
    /// `value_hit`
    ValueHit,
}

/// Hot-counter names in ascending byte order (checked by a test); index
/// `i` is the name of the `HotCounter` with discriminant `i`.
const HOT_NAMES: [&str; HOT_COUNTER_COUNT] = [
    "late_response",
    "lookup_finished",
    "msg_lost",
    "msg_sent",
    "msg_to_dead",
    "request_handled",
    "response_received",
    "rpc_sent",
    "rpc_timeout",
    "value_hit",
];

impl HotCounter {
    /// The counter name this variant stands for.
    pub fn name(self) -> &'static str {
        HOT_NAMES[self as usize]
    }
}

/// Named event counters (messages sent, lookups started, …).
///
/// Two storage tiers share one namespace: arbitrary names live in a
/// `BTreeMap`, and the fixed [`HotCounter`] set lives in a plain array
/// updated by [`Counters::incr_hot`]. Reads ([`Counters::get`],
/// [`Counters::iter`]) always present the *sum* of both tiers per name, in
/// name order — callers cannot tell which path an increment took.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    counts: BTreeMap<String, u64>,
    hot: [u64; HOT_COUNTER_COUNT],
}

impl Counters {
    /// Creates an empty counter set.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to counter `name`, creating it at zero if absent.
    ///
    /// Hot path for the simulator (several increments per event), so the
    /// existing-key case must not allocate: the `String` key is built only
    /// on the first touch of a name, never on subsequent increments.
    pub fn add(&mut self, name: &str, n: u64) {
        if let Some(count) = self.counts.get_mut(name) {
            *count += n;
        } else {
            self.counts.insert(name.to_owned(), n);
        }
    }

    /// Increments counter `name` by one.
    pub fn incr(&mut self, name: &str) {
        self.add(name, 1);
    }

    /// Increments a hot counter by one: a single array add, the per-message
    /// fast path. Equivalent to `incr(c.name())` as far as any reader can
    /// observe.
    #[inline]
    pub fn incr_hot(&mut self, c: HotCounter) {
        self.hot[c as usize] += 1;
    }

    /// Adds `n` to a hot counter. See [`Counters::incr_hot`].
    #[inline]
    pub fn add_hot(&mut self, c: HotCounter, n: u64) {
        self.hot[c as usize] += n;
    }

    /// Current value of `name` (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        let base = self.counts.get(name).copied().unwrap_or(0);
        match HOT_NAMES.binary_search(&name) {
            Ok(i) => base + self.hot[i],
            Err(_) => base,
        }
    }

    /// Iterates `(name, count)` pairs in name order. Hot counters that were
    /// never incremented stay invisible, exactly like untouched map names.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        MergedCounters {
            map: self.counts.iter().peekable(),
            hot: &self.hot,
            hot_idx: 0,
        }
    }
}

/// Merge-sorted view over the two counter tiers: the BTreeMap stream and
/// the statically name-sorted hot array. Names present in both tiers are
/// emitted once with the summed value.
struct MergedCounters<'a> {
    map: std::iter::Peekable<std::collections::btree_map::Iter<'a, String, u64>>,
    hot: &'a [u64; HOT_COUNTER_COUNT],
    hot_idx: usize,
}

impl<'a> Iterator for MergedCounters<'a> {
    type Item = (&'a str, u64);

    fn next(&mut self) -> Option<Self::Item> {
        while self.hot_idx < HOT_COUNTER_COUNT && self.hot[self.hot_idx] == 0 {
            self.hot_idx += 1;
        }
        let hot_name = (self.hot_idx < HOT_COUNTER_COUNT).then(|| HOT_NAMES[self.hot_idx]);
        match (self.map.peek(), hot_name) {
            (Some(&(k, _)), Some(h)) if k.as_str() < h => {
                let (k, &v) = self.map.next().expect("peeked");
                Some((k.as_str(), v))
            }
            (Some(&(k, _)), Some(h)) if k.as_str() == h => {
                let (k, &v) = self.map.next().expect("peeked");
                let hv = self.hot[self.hot_idx];
                self.hot_idx += 1;
                Some((k.as_str(), v + hv))
            }
            (_, Some(h)) => {
                let v = self.hot[self.hot_idx];
                self.hot_idx += 1;
                Some((h, v))
            }
            (Some(_), None) => {
                let (k, &v) = self.map.next().expect("peeked");
                Some((k.as_str(), v))
            }
            (None, None) => None,
        }
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
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let mut all = Summary::new();
        for &x in &data {
            all.record(x);
        }
        let mut left = Summary::new();
        let mut right = Summary::new();
        for &x in &data[..37] {
            left.record(x);
        }
        for &x in &data[37..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), all.count());
        assert!((left.mean() - all.mean()).abs() < 1e-9);
        assert!((left.variance() - all.variance()).abs() < 1e-9);
        assert_eq!(left.min(), all.min());
        assert_eq!(left.max(), all.max());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Summary::new();
        a.record(1.0);
        a.record(2.0);
        let before = a;
        a.merge(&Summary::new());
        assert_eq!(a, before);
        let mut empty = Summary::new();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.incr("msg");
        c.add("msg", 4);
        c.incr("lookup");
        assert_eq!(c.get("msg"), 5);
        assert_eq!(c.get("lookup"), 1);
        assert_eq!(c.get("absent"), 0);
        let names: Vec<&str> = c.iter().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["lookup", "msg"]);
    }

    #[test]
    fn hot_names_are_sorted_and_match_discriminants() {
        assert!(HOT_NAMES.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(HotCounter::LateResponse.name(), "late_response");
        assert_eq!(HotCounter::ValueHit.name(), "value_hit");
        assert_eq!(HotCounter::ValueHit as usize, HOT_COUNTER_COUNT - 1);
    }

    #[test]
    fn hot_counters_are_indistinguishable_from_named() {
        let mut c = Counters::new();
        c.incr_hot(HotCounter::MsgSent);
        c.add_hot(HotCounter::MsgSent, 4);
        c.incr_hot(HotCounter::RpcTimeout);
        assert_eq!(c.get("msg_sent"), 5);
        assert_eq!(c.get("rpc_timeout"), 1);
        assert_eq!(c.get("msg_lost"), 0);
        // Untouched hot slots stay invisible to iteration.
        let pairs: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(pairs, vec![("msg_sent", 5), ("rpc_timeout", 1)]);
    }

    #[test]
    fn iter_merges_hot_and_map_tiers_in_name_order() {
        let mut c = Counters::new();
        c.incr("aardvark"); // before every hot name
        c.incr("node_spawned"); // between msg_to_dead and request_handled
        c.incr("zzz"); // after every hot name
        c.add("msg_sent", 2); // same name via both tiers: values sum
        c.add_hot(HotCounter::MsgSent, 3);
        c.incr_hot(HotCounter::LateResponse);
        c.incr_hot(HotCounter::ValueHit);
        let pairs: Vec<(&str, u64)> = c.iter().collect();
        assert_eq!(
            pairs,
            vec![
                ("aardvark", 1),
                ("late_response", 1),
                ("msg_sent", 5),
                ("node_spawned", 1),
                ("value_hit", 1),
                ("zzz", 1),
            ]
        );
        assert_eq!(c.get("msg_sent"), 5);
    }
}
