//! Protocol configuration: the four parameters the paper studies plus
//! the refresh coverage policy. Timing is fixed: [`REFRESH_INTERVAL`],
//! [`RPC_TIMEOUT`] and the transport's 10–100 ms uniform latency window.

use crate::id::MAX_BITS;
use dessim::time::SimDuration;
use std::fmt;

/// Interval between bucket refreshes (paper: 60 minutes).
pub const REFRESH_INTERVAL: SimDuration = SimDuration::from_minutes(60);

/// How long a node waits for an RPC response before declaring failure.
pub const RPC_TIMEOUT: SimDuration = SimDuration::from_secs(1);

/// Upper bound on tracked lookup candidates, as a multiple of `k`. Bounds
/// memory per lookup; 3 is generous (a lookup terminates once the `k`
/// best candidates are exhausted).
pub const SHORTLIST_FACTOR: usize = 3;

/// The largest staleness limit `s`: the routing table keeps each
/// contact's consecutive-failure count in one byte, and the count never
/// exceeds the limit (the contact is evicted when it reaches it).
pub const MAX_STALENESS_LIMIT: u32 = u8::MAX as u32;

/// The RPC timeout as a config field: zero-sized, so it can only ever be
/// [`RPC_TIMEOUT`]. It exists so `config.rpc_timeout.as_millis()` keeps
/// reading the timeout in the benchmark package, which builds against
/// this crate but changes only in its own commits.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RpcTimeout;

impl RpcTimeout {
    /// [`RPC_TIMEOUT`] in milliseconds.
    pub const fn as_millis(self) -> u64 {
        RPC_TIMEOUT.as_millis()
    }
}

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
    /// Bucket-refresh coverage policy.
    pub refresh_policy: RefreshPolicy,
    /// Always [`RPC_TIMEOUT`] (see [`RpcTimeout`]).
    pub rpc_timeout: RpcTimeout,
}

impl KademliaConfig {
    /// Starts building a configuration from the defaults.
    pub fn builder() -> KademliaConfigBuilder {
        KademliaConfigBuilder::new()
    }

    /// Maximum number of shortlist entries per lookup.
    pub fn shortlist_capacity(&self) -> usize {
        SHORTLIST_FACTOR * self.k
    }
}

impl Default for KademliaConfig {
    fn default() -> Self {
        KademliaConfig {
            bits: 160,
            k: 20,
            alpha: 3,
            staleness_limit: 5,
            refresh_policy: RefreshPolicy::AllBuckets,
            rpc_timeout: RpcTimeout,
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

    /// Sets the bucket-refresh coverage policy.
    pub fn refresh_policy(&mut self, policy: RefreshPolicy) -> &mut Self {
        self.config_mut().refresh_policy = policy;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if any parameter is out of range: `bits`
    /// outside `1..=160`, `k = 0`, `bits · k` beyond the routing table's
    /// 16-bit offsets, `α = 0`, `s = 0`, or `s` above
    /// [`MAX_STALENESS_LIMIT`].
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
        if config.staleness_limit > MAX_STALENESS_LIMIT {
            return Err(ConfigError(format!(
                "staleness limit must be at most {MAX_STALENESS_LIMIT} to fit the \
                 routing table's one-byte failure count, got {}",
                config.staleness_limit
            )));
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
        assert_eq!(REFRESH_INTERVAL, SimDuration::from_minutes(60));
        assert_eq!(c.rpc_timeout.as_millis(), 1_000);
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
    }

    #[test]
    fn staleness_limit_beyond_the_failure_byte_is_a_typed_error() {
        let ok = KademliaConfig::builder()
            .staleness_limit(MAX_STALENESS_LIMIT)
            .build()
            .expect("the largest limit a byte holds");
        assert_eq!(ok.staleness_limit, 255);
        let err: ConfigError = KademliaConfig::builder()
            .staleness_limit(MAX_STALENESS_LIMIT + 1)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("at most 255"), "{err}");
        assert!(err.to_string().ends_with("got 256"), "{err}");
        assert!(KademliaConfig::builder()
            .staleness_limit(u32::MAX)
            .build()
            .is_err());
    }

    #[test]
    fn shortlist_capacity_scales_with_k() {
        let c = KademliaConfig::builder().k(10).build().unwrap();
        assert_eq!(c.shortlist_capacity(), 30);
    }

    #[test]
    fn error_display_is_informative() {
        let err = KademliaConfig::builder().k(0).build().unwrap_err();
        assert!(err.to_string().contains("k must be"));
    }
}
