//! Protocol configuration: the four parameters the paper studies plus
//! simulation timing knobs.

use crate::id::MAX_BITS;
use dessim::latency::LatencyModel;
use dessim::time::SimDuration;
use std::fmt;

/// Which buckets a node refreshes at each refresh tick.
///
/// The paper refreshes *every* bucket: "a node randomly generates an id
/// from the id range of each k-bucket and performs lookup procedures for
/// these ids". With `b = 160` that is 160 lookups per node per hour, most
/// of which target distance ranges that provably contain no nodes (bucket
/// `i` holds `n·2^i/2^b` nodes in expectation). The laptop-scale harness
/// therefore offers [`RefreshPolicy::OccupiedWithMargin`], which refreshes
/// every bucket from slightly below the lowest occupied index upwards —
/// identical discovery dynamics on every range where nodes can exist, at a
/// fraction of the cost. The substitution is documented in DESIGN.md.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefreshPolicy {
    /// Refresh all `b` buckets (paper-faithful).
    #[default]
    AllBuckets,
    /// Refresh buckets from `lowest_occupied_index - margin` upwards.
    OccupiedWithMargin(usize),
}

/// Kademlia protocol parameters.
///
/// Defaults follow the original Kademlia paper, which the resilience paper
/// quotes: `b = 160`, `k = 20`, `α = 3`, `s = 5`. (The resilience paper's
/// churn scenarios with `loss = none` override `s` to 1; that is a scenario
/// decision, not a protocol default.)
///
/// # Example
///
/// ```
/// use kademlia::config::KademliaConfig;
///
/// let config = KademliaConfig::builder()
///     .k(10)
///     .alpha(5)
///     .staleness_limit(1)
///     .build()?;
/// assert_eq!(config.k, 10);
/// assert_eq!(config.bits, 160);
/// # Ok::<(), kademlia::config::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KademliaConfig {
    /// Identifier bit-length `b` (paper: 160 and 80).
    pub bits: u16,
    /// Bucket size `k` — the maximum contacts per k-bucket (paper: 5, 10,
    /// 20, 30).
    pub k: usize,
    /// Request parallelism `α` — concurrent queries per lookup (paper: 3
    /// and 5).
    pub alpha: usize,
    /// Staleness limit `s` — consecutive failed communications before a
    /// contact is evicted (paper: 1 and 5).
    pub staleness_limit: u32,
    /// Interval between bucket refreshes (paper: 60 minutes).
    pub refresh_interval: SimDuration,
    /// How long a node waits for an RPC response before declaring failure.
    pub rpc_timeout: SimDuration,
    /// Upper bound on tracked lookup candidates, as a multiple of `k`.
    /// Bounds memory per lookup; 3 is generous (a lookup terminates once
    /// the `k` best candidates are exhausted).
    pub shortlist_factor: usize,
    /// Bucket-refresh coverage policy.
    pub refresh_policy: RefreshPolicy,
    /// Per-message simulated latency model the harness builds transports
    /// from (default: the documented 10–100 ms uniform window). Living on
    /// the config makes per-lookup latency a sweepable knob next to `α`
    /// and the RPC timeout — the load grid crosses them.
    pub latency: LatencyModel,
}

impl KademliaConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> KademliaConfigBuilder {
        KademliaConfigBuilder::new()
    }

    /// Maximum number of shortlist entries per lookup.
    pub fn shortlist_capacity(&self) -> usize {
        self.shortlist_factor.max(1) * self.k
    }
}

impl Default for KademliaConfig {
    fn default() -> Self {
        KademliaConfig {
            bits: 160,
            k: 20,
            alpha: 3,
            staleness_limit: 5,
            refresh_interval: SimDuration::from_minutes(60),
            rpc_timeout: SimDuration::from_secs(1),
            shortlist_factor: 3,
            refresh_policy: RefreshPolicy::AllBuckets,
            latency: LatencyModel::default_uniform(),
        }
    }
}

/// Error returned when a configuration is inconsistent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError(String);

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid kademlia config: {}", self.0)
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`KademliaConfig`] (non-consuming, per C-BUILDER).
#[derive(Clone, Debug, Default)]
pub struct KademliaConfigBuilder {
    config: Option<KademliaConfig>,
}

impl KademliaConfigBuilder {
    /// Creates a builder seeded with the defaults.
    pub fn new() -> Self {
        KademliaConfigBuilder {
            config: Some(KademliaConfig::default()),
        }
    }

    fn config_mut(&mut self) -> &mut KademliaConfig {
        self.config.get_or_insert_with(KademliaConfig::default)
    }

    /// Sets the identifier bit-length `b`.
    pub fn bits(&mut self, bits: u16) -> &mut Self {
        self.config_mut().bits = bits;
        self
    }

    /// Sets the bucket size `k`.
    pub fn k(&mut self, k: usize) -> &mut Self {
        self.config_mut().k = k;
        self
    }

    /// Sets the request parallelism `α`.
    pub fn alpha(&mut self, alpha: usize) -> &mut Self {
        self.config_mut().alpha = alpha;
        self
    }

    /// Sets the staleness limit `s`.
    pub fn staleness_limit(&mut self, s: u32) -> &mut Self {
        self.config_mut().staleness_limit = s;
        self
    }

    /// Sets the bucket-refresh interval.
    pub fn refresh_interval(&mut self, interval: SimDuration) -> &mut Self {
        self.config_mut().refresh_interval = interval;
        self
    }

    /// Sets the RPC timeout.
    pub fn rpc_timeout(&mut self, timeout: SimDuration) -> &mut Self {
        self.config_mut().rpc_timeout = timeout;
        self
    }

    /// Sets the shortlist capacity factor.
    pub fn shortlist_factor(&mut self, factor: usize) -> &mut Self {
        self.config_mut().shortlist_factor = factor;
        self
    }

    /// Sets the bucket-refresh coverage policy.
    pub fn refresh_policy(&mut self, policy: RefreshPolicy) -> &mut Self {
        self.config_mut().refresh_policy = policy;
        self
    }

    /// Sets the per-message simulated latency model.
    pub fn latency(&mut self, latency: LatencyModel) -> &mut Self {
        self.config_mut().latency = latency;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is out of range: `bits`
    /// outside `1..=160`, `k = 0`, `bits · k` beyond the routing table's
    /// 16-bit offsets, `α = 0`, `s = 0`, or a zero RPC timeout.
    pub fn build(&self) -> Result<KademliaConfig, ConfigError> {
        let config = self.config.unwrap_or_default();
        if config.bits == 0 || config.bits > MAX_BITS {
            return Err(ConfigError(format!(
                "bits must be in 1..={MAX_BITS}, got {}",
                config.bits
            )));
        }
        if config.k == 0 {
            return Err(ConfigError("k must be at least 1".into()));
        }
        if config.bits as usize * config.k > u16::MAX as usize {
            return Err(ConfigError(format!(
                "bits * k must fit the routing table's 16-bit offsets, got {} * {}",
                config.bits, config.k
            )));
        }
        if config.alpha == 0 {
            return Err(ConfigError("alpha must be at least 1".into()));
        }
        if config.staleness_limit == 0 {
            return Err(ConfigError("staleness limit must be at least 1".into()));
        }
        if config.rpc_timeout == SimDuration::ZERO {
            return Err(ConfigError("rpc timeout must be positive".into()));
        }
        if config.shortlist_factor == 0 {
            return Err(ConfigError("shortlist factor must be at least 1".into()));
        }
        if let LatencyModel::Uniform { min, max } = config.latency {
            if min > max {
                return Err(ConfigError(format!(
                    "latency window inverted: min {} ms > max {} ms",
                    min.as_millis(),
                    max.as_millis()
                )));
            }
        }
        Ok(config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_kademlia_paper() {
        let c = KademliaConfig::default();
        assert_eq!(c.bits, 160);
        assert_eq!(c.k, 20);
        assert_eq!(c.alpha, 3);
        assert_eq!(c.staleness_limit, 5);
        assert_eq!(c.refresh_interval, SimDuration::from_minutes(60));
    }

    #[test]
    fn builder_overrides() {
        let c = KademliaConfig::builder()
            .bits(80)
            .k(30)
            .alpha(5)
            .staleness_limit(1)
            .build()
            .expect("valid");
        assert_eq!((c.bits, c.k, c.alpha, c.staleness_limit), (80, 30, 5, 1));
    }

    #[test]
    fn builder_rejects_invalid() {
        assert!(KademliaConfig::builder().bits(0).build().is_err());
        assert!(KademliaConfig::builder().bits(161).build().is_err());
        assert!(KademliaConfig::builder().k(0).build().is_err());
        assert!(KademliaConfig::builder().bits(160).k(410).build().is_err());
        assert!(KademliaConfig::builder().bits(160).k(409).build().is_ok());
        assert!(KademliaConfig::builder().alpha(0).build().is_err());
        assert!(KademliaConfig::builder()
            .staleness_limit(0)
            .build()
            .is_err());
        assert!(KademliaConfig::builder()
            .rpc_timeout(SimDuration::ZERO)
            .build()
            .is_err());
        assert!(KademliaConfig::builder()
            .shortlist_factor(0)
            .build()
            .is_err());
        assert!(KademliaConfig::builder()
            .latency(LatencyModel::Uniform {
                min: SimDuration::from_millis(50),
                max: SimDuration::from_millis(10),
            })
            .build()
            .is_err());
    }

    #[test]
    fn shortlist_capacity_scales_with_k() {
        let c = KademliaConfig::builder()
            .k(10)
            .shortlist_factor(3)
            .build()
            .unwrap();
        assert_eq!(c.shortlist_capacity(), 30);
    }

    #[test]
    fn error_display_is_informative() {
        let err = KademliaConfig::builder().k(0).build().unwrap_err();
        assert!(err.to_string().contains("k must be"));
    }
}
