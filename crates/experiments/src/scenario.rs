//! Scenario definitions: one value captures every knob of a simulation.

use crate::scale::{Scale, ScaleConfig};
use dessim::loss::LossScenario;
use kademlia::config::{KademliaConfig, RefreshPolicy};

/// Nodes removed/added per simulated minute during the churn phase.
///
/// The paper's three scenarios: `0/1` (pure departure), `1/1` and `10/10`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct ChurnRate {
    /// Nodes removed per minute.
    pub remove_per_min: u32,
    /// Nodes added per minute.
    pub add_per_min: u32,
}

impl ChurnRate {
    /// No churn at all.
    pub const NONE: ChurnRate = ChurnRate {
        remove_per_min: 0,
        add_per_min: 0,
    };
    /// The paper's `0/1` scenario: one departure per minute, no joins.
    pub const ZERO_ONE: ChurnRate = ChurnRate {
        remove_per_min: 1,
        add_per_min: 0,
    };
    /// The paper's `1/1` scenario.
    pub const ONE_ONE: ChurnRate = ChurnRate {
        remove_per_min: 1,
        add_per_min: 1,
    };
    /// The paper's `10/10` scenario.
    pub const TEN_TEN: ChurnRate = ChurnRate {
        remove_per_min: 10,
        add_per_min: 10,
    };

    /// Whether any churn happens.
    pub fn is_active(&self) -> bool {
        self.remove_per_min > 0 || self.add_per_min > 0
    }

    /// Short label as used in the paper ("1/1", "10/10").
    pub fn label(&self) -> String {
        format!("{}/{}", self.remove_per_min, self.add_per_min)
    }
}

/// Per-node data traffic (paper: 10 lookups and 1 dissemination per node
/// per minute); `None` on the scenario means maintenance traffic only.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TrafficModel {
    /// Lookup procedures per node per minute.
    pub lookups_per_min: u32,
    /// Dissemination procedures per node per minute.
    pub stores_per_min: u32,
}

/// A fully specified simulation scenario.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// Human-readable name (appears in reports and CSV files).
    pub name: String,
    /// Target network size built during the setup phase.
    pub size: usize,
    /// Churn applied from the end of stabilization onward.
    pub churn: ChurnRate,
    /// Data traffic, if any.
    pub traffic: Option<TrafficModel>,
    /// Message-loss scenario (Table 1).
    pub loss: LossScenario,
    /// Kademlia parameters (`b`, `k`, `α`, `s`, refresh policy, …).
    pub protocol: KademliaConfig,
    /// End of the setup phase in minutes (paper: 30).
    pub setup_minutes: u64,
    /// End of the stabilization phase in minutes (paper: 120).
    pub stabilization_minutes: u64,
    /// Length of the churn phase in minutes (simulation end =
    /// stabilization + churn length, even when churn is inactive).
    pub churn_minutes: u64,
    /// Snapshot grid spacing in minutes.
    pub snapshot_minutes: u64,
    /// Master seed for all randomness in this run.
    pub seed: u64,
    /// Record observability artifacts for this run: the session driver
    /// keeps a [`kad_telemetry::Journal`] (determinism hash chain, event
    /// counts) and the runners install a span profile per cell. Off by
    /// default; turning it on must never change simulation outcomes —
    /// the golden-equivalence suite pins that contract.
    pub observe: bool,
}

impl Scenario {
    /// Starts a builder with the paper's defaults at laptop scale.
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder::default()
    }

    /// Simulation end time in minutes.
    pub fn end_minutes(&self) -> u64 {
        self.stabilization_minutes + self.churn_minutes
    }
}

/// Non-consuming builder for [`Scenario`].
#[derive(Clone, Debug)]
pub struct ScenarioBuilder {
    scenario: Scenario,
}

impl Default for ScenarioBuilder {
    fn default() -> Self {
        let scale = Scale::Laptop.config();
        ScenarioBuilder {
            scenario: Scenario {
                name: "custom".into(),
                size: scale.small_size,
                churn: ChurnRate::NONE,
                traffic: None,
                loss: LossScenario::None,
                protocol: KademliaConfig {
                    refresh_policy: scale.refresh_policy,
                    ..KademliaConfig::default()
                },
                setup_minutes: 30,
                stabilization_minutes: 120,
                churn_minutes: scale.churn_minutes,
                snapshot_minutes: scale.snapshot_minutes,
                seed: 1,
                observe: false,
            },
        }
    }
}

impl ScenarioBuilder {
    /// A minimal fast scenario for examples and doctests: `n` nodes,
    /// bucket size `k`, shortened stabilization, no churn, light traffic.
    ///
    /// The 30-minute setup phase is kept at the paper's length on purpose:
    /// compressing it makes join bursts so dense that, at miniature scale
    /// with `s = 1` and loss, the overlay can bipartition into two overlays
    /// that never rediscover each other (an absorbing state — documented in
    /// EXPERIMENTS.md).
    pub fn quick(n: usize, k: usize) -> ScenarioBuilder {
        let mut b = ScenarioBuilder::default();
        b.scenario.name = format!("quick-n{n}-k{k}");
        b.scenario.size = n;
        b.scenario.protocol.k = k;
        b.scenario.protocol.staleness_limit = 1;
        b.scenario.protocol.refresh_policy = RefreshPolicy::OccupiedWithMargin(2);
        b.scenario.setup_minutes = 30;
        b.scenario.stabilization_minutes = 90;
        b.scenario.churn_minutes = 0;
        b.scenario.snapshot_minutes = 20;
        b.scenario.traffic = Some(TrafficModel {
            lookups_per_min: 2,
            stores_per_min: 1,
        });
        b
    }

    /// Sets the scenario name.
    pub fn name(&mut self, name: impl Into<String>) -> &mut Self {
        self.scenario.name = name.into();
        self
    }

    /// Sets the network size.
    pub fn size(&mut self, size: usize) -> &mut Self {
        self.scenario.size = size;
        self
    }

    /// Sets the churn rate.
    pub fn churn(&mut self, churn: ChurnRate) -> &mut Self {
        self.scenario.churn = churn;
        self
    }

    /// Enables data traffic.
    pub fn traffic(&mut self, traffic: TrafficModel) -> &mut Self {
        self.scenario.traffic = Some(traffic);
        self
    }

    /// Disables data traffic (maintenance refreshes still run).
    pub fn no_traffic(&mut self) -> &mut Self {
        self.scenario.traffic = None;
        self
    }

    /// Sets the message-loss scenario.
    pub fn loss(&mut self, loss: LossScenario) -> &mut Self {
        self.scenario.loss = loss;
        self
    }

    /// Sets the bucket size `k`.
    pub fn k(&mut self, k: usize) -> &mut Self {
        self.scenario.protocol.k = k;
        self
    }

    /// Sets the request parallelism `α`.
    pub fn alpha(&mut self, alpha: usize) -> &mut Self {
        self.scenario.protocol.alpha = alpha;
        self
    }

    /// Sets the id bit-length `b`.
    pub fn bits(&mut self, bits: u16) -> &mut Self {
        self.scenario.protocol.bits = bits;
        self
    }

    /// Sets the staleness limit `s`.
    pub fn staleness_limit(&mut self, s: u32) -> &mut Self {
        self.scenario.protocol.staleness_limit = s;
        self
    }

    /// Sets the refresh policy.
    pub fn refresh_policy(&mut self, policy: RefreshPolicy) -> &mut Self {
        self.scenario.protocol.refresh_policy = policy;
        self
    }

    /// Sets the end of the setup phase in minutes.
    pub fn setup_minutes(&mut self, minutes: u64) -> &mut Self {
        self.scenario.setup_minutes = minutes;
        self
    }

    /// Sets the end of the stabilization phase in minutes.
    pub fn stabilization_minutes(&mut self, minutes: u64) -> &mut Self {
        self.scenario.stabilization_minutes = minutes;
        self
    }

    /// Sets the churn-phase length in minutes.
    pub fn churn_minutes(&mut self, minutes: u64) -> &mut Self {
        self.scenario.churn_minutes = minutes;
        self
    }

    /// Sets the snapshot spacing in minutes.
    pub fn snapshot_minutes(&mut self, minutes: u64) -> &mut Self {
        self.scenario.snapshot_minutes = minutes;
        self
    }

    /// Sets the master seed.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.scenario.seed = seed;
        self
    }

    /// Enables (or disables) observability recording for the run.
    pub fn observe(&mut self, observe: bool) -> &mut Self {
        self.scenario.observe = observe;
        self
    }

    /// Produces the scenario.
    ///
    /// # Panics
    ///
    /// Panics if the protocol configuration is invalid (zero `k`, …) — the
    /// fields mirror [`KademliaConfig`] whose builder validates the same
    /// constraints.
    pub fn build(&self) -> Scenario {
        let mut protocol_builder = KademliaConfig::builder();
        let p = &self.scenario.protocol;
        protocol_builder
            .bits(p.bits)
            .k(p.k)
            .alpha(p.alpha)
            .staleness_limit(p.staleness_limit)
            .refresh_policy(p.refresh_policy);
        let validated = protocol_builder.build().expect("invalid protocol config");
        let mut scenario = self.scenario.clone();
        scenario.protocol = validated;
        scenario
    }
}

/// Constructors for the paper's Simulations A–L.
pub mod paper {
    use super::*;

    fn base(scale: Scale, large: bool, name: &str) -> ScenarioBuilder {
        let cfg: ScaleConfig = scale.config();
        let mut b = ScenarioBuilder::default();
        b.name(name)
            .size(if large {
                cfg.large_size
            } else {
                cfg.small_size
            })
            .churn_minutes(cfg.churn_minutes)
            .snapshot_minutes(cfg.snapshot_minutes)
            .refresh_policy(cfg.refresh_policy);
        b
    }

    fn with_traffic(b: &mut ScenarioBuilder, scale: Scale) -> &mut ScenarioBuilder {
        let cfg = scale.config();
        b.traffic(TrafficModel {
            lookups_per_min: cfg.lookups_per_min,
            stores_per_min: cfg.stores_per_min,
        })
    }

    /// Churn-phase length for the `0/1` drain scenarios: the paper lets
    /// the network shrink until ~10 nodes remain.
    fn drain_minutes(size: usize) -> u64 {
        (size.saturating_sub(10)) as u64
    }

    /// Simulation A/B (Figures 2–3): churn `0/1`, no data traffic,
    /// `s = 1`. `k` is swept by the caller.
    pub fn sim_ab(scale: Scale, large: bool, k: usize) -> Scenario {
        let name = format!("sim-{}-k{k}", if large { "B" } else { "A" });
        let mut b = base(scale, large, &name);
        let size = b.scenario.size;
        b.k(k)
            .churn(ChurnRate::ZERO_ONE)
            .staleness_limit(1)
            .no_traffic()
            .churn_minutes(drain_minutes(size));
        b.build()
    }

    /// Simulation C/D (Figures 4–5): churn `0/1`, with data traffic.
    pub fn sim_cd(scale: Scale, large: bool, k: usize) -> Scenario {
        let name = format!("sim-{}-k{k}", if large { "D" } else { "C" });
        let mut b = base(scale, large, &name);
        let size = b.scenario.size;
        b.k(k)
            .churn(ChurnRate::ZERO_ONE)
            .staleness_limit(1)
            .churn_minutes(drain_minutes(size));
        with_traffic(&mut b, scale);
        b.build()
    }

    /// Simulation E/F (Figures 6–7): churn `1/1`, with data traffic.
    pub fn sim_ef(scale: Scale, large: bool, k: usize) -> Scenario {
        let name = format!("sim-{}-k{k}", if large { "F" } else { "E" });
        let mut b = base(scale, large, &name);
        b.k(k).churn(ChurnRate::ONE_ONE).staleness_limit(1);
        with_traffic(&mut b, scale);
        b.build()
    }

    /// Simulation G/H (Figures 8–9): churn `10/10`, with data traffic.
    /// `alpha` defaults to 3; Figure 10 adds `alpha = 5` variants.
    pub fn sim_gh(scale: Scale, large: bool, k: usize, alpha: usize) -> Scenario {
        let name = format!("sim-{}-k{k}-a{alpha}", if large { "H" } else { "G" });
        let mut b = base(scale, large, &name);
        b.k(k)
            .alpha(alpha)
            .churn(ChurnRate::TEN_TEN)
            .staleness_limit(1);
        with_traffic(&mut b, scale);
        b.build()
    }

    /// Simulation I (Figure 11): large network, `k = 20`, traffic, no
    /// loss, staleness `s ∈ {1, 5}`, churn `1/1` or `10/10`.
    pub fn sim_i(scale: Scale, churn: ChurnRate, s: u32) -> Scenario {
        let mut b = base(scale, true, &format!("sim-I-{}-s{s}", churn.label()));
        b.k(20).churn(churn).staleness_limit(s);
        with_traffic(&mut b, scale);
        b.build()
    }

    /// Simulations J/K/L (Figures 12–14): large network, `k = 20`,
    /// traffic, message loss `l`, staleness `s`, churn none/`1/1`/`10/10`.
    pub fn sim_jkl(scale: Scale, churn: ChurnRate, loss: LossScenario, s: u32) -> Scenario {
        let tag = if !churn.is_active() {
            "J".to_string()
        } else if churn == ChurnRate::ONE_ONE {
            "K".to_string()
        } else {
            "L".to_string()
        };
        let mut b = base(scale, true, &format!("sim-{tag}-{loss}-s{s}"));
        b.k(20).churn(churn).staleness_limit(s).loss(loss);
        with_traffic(&mut b, scale);
        b.build()
    }

    /// The §5.7 bit-length variant: Simulation C/D with `b = 80`.
    pub fn sim_bitlength(scale: Scale, large: bool, k: usize, bits: u16) -> Scenario {
        let mut scenario = sim_cd(scale, large, k);
        scenario.name = format!("{}-b{bits}", scenario.name);
        let mut b = ScenarioBuilder { scenario };
        b.bits(bits);
        b.build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_validated_protocol() {
        let s = Scenario::builder().k(10).alpha(5).bits(80).build();
        assert_eq!(s.protocol.k, 10);
        assert_eq!(s.protocol.alpha, 5);
        assert_eq!(s.protocol.bits, 80);
    }

    #[test]
    #[should_panic(expected = "invalid protocol config")]
    fn builder_panics_on_invalid_protocol() {
        Scenario::builder().k(0).build();
    }

    #[test]
    fn churn_labels() {
        assert_eq!(ChurnRate::ONE_ONE.label(), "1/1");
        assert_eq!(ChurnRate::TEN_TEN.label(), "10/10");
        assert!(!ChurnRate::NONE.is_active());
        assert!(ChurnRate::ZERO_ONE.is_active());
    }

    #[test]
    fn sim_a_matches_paper_shape() {
        let s = paper::sim_ab(Scale::Paper, false, 20);
        assert_eq!(s.size, 250);
        assert_eq!(s.churn, ChurnRate::ZERO_ONE);
        assert!(s.traffic.is_none());
        assert_eq!(s.protocol.staleness_limit, 1);
        // Drain scenario: churn runs until ~10 nodes remain.
        assert_eq!(s.churn_minutes, 240);
        assert_eq!(s.end_minutes(), 360);
    }

    #[test]
    fn sim_h_is_large_with_heavy_churn() {
        let s = paper::sim_gh(Scale::Paper, true, 5, 3);
        assert_eq!(s.size, 2500);
        assert_eq!(s.churn, ChurnRate::TEN_TEN);
        assert!(s.traffic.is_some());
        assert_eq!(s.end_minutes(), 120 + 1280);
    }

    #[test]
    fn sim_jkl_tags() {
        let j = paper::sim_jkl(
            Scale::Bench,
            ChurnRate::NONE,
            dessim::loss::LossScenario::Low,
            1,
        );
        assert!(j.name.contains("sim-J"));
        let k = paper::sim_jkl(
            Scale::Bench,
            ChurnRate::ONE_ONE,
            dessim::loss::LossScenario::Medium,
            5,
        );
        assert!(k.name.contains("sim-K"));
        let l = paper::sim_jkl(
            Scale::Bench,
            ChurnRate::TEN_TEN,
            dessim::loss::LossScenario::High,
            5,
        );
        assert!(l.name.contains("sim-L"));
        assert_eq!(l.protocol.staleness_limit, 5);
    }

    #[test]
    fn bitlength_variant_overrides_bits() {
        let s = paper::sim_bitlength(Scale::Bench, false, 20, 80);
        assert_eq!(s.protocol.bits, 80);
        assert!(s.name.ends_with("-b80"));
    }

    #[test]
    fn quick_builder_is_small_and_fast() {
        let s = ScenarioBuilder::quick(32, 8).build();
        assert_eq!(s.size, 32);
        assert_eq!(s.protocol.k, 8);
        assert!(s.end_minutes() <= 150);
    }
}
