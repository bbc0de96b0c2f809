//! Effort presets: how big and how long the simulations run.
//!
//! The paper simulated 250- and 2500-node networks for up to 2500 simulated
//! minutes and burned ~250 CPU-hours per full connectivity analysis on a
//! cluster. Reproducing the *shape* of every result does not need that
//! budget, so the harness ships four presets. The substitutions are
//! documented in DESIGN.md; `--scale paper` restores the original numbers
//! and `--scale large` jumps to n=1000 overlays on the sampled-κ path.
//!
//! # Example
//!
//! ```
//! use kad_experiments::scale::Scale;
//!
//! let bench = Scale::Bench.config();
//! let paper = Scale::Paper.config();
//! assert!(bench.small_size < paper.small_size);
//! assert_eq!(paper.small_size, 250); // the paper's "small network"
//! assert_eq!("laptop".parse::<Scale>(), Ok(Scale::Laptop));
//! ```

use kademlia::config::RefreshPolicy;
use std::fmt;
use std::str::FromStr;

/// Simulation effort preset.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum Scale {
    /// Tiny networks, short phases: seconds per experiment. Used by the
    /// tests and CI so the full harness stays runnable there.
    Bench,
    /// Mid-size networks (default): minutes per experiment on a laptop,
    /// large enough to show every qualitative effect the paper reports.
    #[default]
    Laptop,
    /// The scale leap: n=1000 overlays, the size where the per-minute κ
    /// reading ([`crate::session::minute_kappa`]) switches to the sampled
    /// estimator ([`crate::session::SAMPLED_KAPPA_MIN_NODES`]) and the
    /// allocation-free hot paths earn their keep. Phases are kept at
    /// laptop-ish lengths so a full grid stays tractable on one machine;
    /// the point of this preset is node count, not duration.
    Large,
    /// The paper's original parameters (250/2500 nodes, full durations).
    Paper,
}

/// Concrete knobs derived from a [`Scale`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ScaleConfig {
    /// The "small network" size (paper: 250).
    pub small_size: usize,
    /// The "large network" size (paper: 2500).
    pub large_size: usize,
    /// Length of the churn phase in simulated minutes for simulations that
    /// keep the network size constant (paper: 1280, i.e. until minute
    /// 1400).
    pub churn_minutes: u64,
    /// Snapshot grid spacing in simulated minutes.
    pub snapshot_minutes: u64,
    /// Bucket-refresh coverage (paper: all buckets).
    pub refresh_policy: RefreshPolicy,
    /// Data-traffic lookups per node per minute (paper: 10).
    pub lookups_per_min: u32,
    /// Data-traffic disseminations per node per minute (paper: 1).
    pub stores_per_min: u32,
}

impl Scale {
    /// Resolves the preset into concrete knobs.
    pub fn config(self) -> ScaleConfig {
        match self {
            Scale::Bench => ScaleConfig {
                small_size: 32,
                large_size: 72,
                churn_minutes: 40,
                snapshot_minutes: 20,
                refresh_policy: RefreshPolicy::OccupiedWithMargin(3),
                lookups_per_min: 4,
                stores_per_min: 1,
            },
            Scale::Laptop => ScaleConfig {
                small_size: 100,
                large_size: 300,
                churn_minutes: 240,
                snapshot_minutes: 10,
                refresh_policy: RefreshPolicy::OccupiedWithMargin(3),
                lookups_per_min: 10,
                stores_per_min: 1,
            },
            Scale::Large => ScaleConfig {
                small_size: 1000,
                large_size: 2500,
                churn_minutes: 120,
                snapshot_minutes: 10,
                refresh_policy: RefreshPolicy::OccupiedWithMargin(3),
                lookups_per_min: 10,
                stores_per_min: 1,
            },
            Scale::Paper => ScaleConfig {
                small_size: 250,
                large_size: 2500,
                churn_minutes: 1280,
                snapshot_minutes: 10,
                refresh_policy: RefreshPolicy::AllBuckets,
                lookups_per_min: 10,
                stores_per_min: 1,
            },
        }
    }
}

impl fmt::Display for Scale {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Scale::Bench => "bench",
            Scale::Laptop => "laptop",
            Scale::Large => "large",
            Scale::Paper => "paper",
        };
        f.write_str(name)
    }
}

impl FromStr for Scale {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "bench" => Ok(Scale::Bench),
            "laptop" => Ok(Scale::Laptop),
            "large" => Ok(Scale::Large),
            "paper" => Ok(Scale::Paper),
            other => Err(format!(
                "unknown scale {other:?} (bench|laptop|large|paper)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_paper_numbers() {
        let c = Scale::Paper.config();
        assert_eq!(c.small_size, 250);
        assert_eq!(c.large_size, 2500);
        assert_eq!(c.lookups_per_min, 10);
        assert_eq!(c.stores_per_min, 1);
        assert_eq!(c.refresh_policy, RefreshPolicy::AllBuckets);
    }

    #[test]
    fn scales_are_ordered_by_effort() {
        let bench = Scale::Bench.config();
        let laptop = Scale::Laptop.config();
        let paper = Scale::Paper.config();
        assert!(bench.small_size < laptop.small_size);
        assert!(laptop.small_size < paper.small_size);
        assert!(bench.churn_minutes <= laptop.churn_minutes);
        assert!(laptop.churn_minutes <= paper.churn_minutes);
    }

    #[test]
    fn parse_roundtrip() {
        for s in [Scale::Bench, Scale::Laptop, Scale::Large, Scale::Paper] {
            assert_eq!(s.to_string().parse::<Scale>().expect("roundtrip"), s);
        }
        assert!("galaxy".parse::<Scale>().is_err());
    }

    #[test]
    fn large_scale_crosses_the_sampled_kappa_threshold() {
        let c = Scale::Large.config();
        assert_eq!(c.small_size, crate::session::SAMPLED_KAPPA_MIN_NODES);
        assert!(c.small_size > Scale::Paper.config().small_size);
        // Duration stays laptop-ish: the preset buys node count, not
        // simulated hours.
        assert!(c.churn_minutes <= Scale::Laptop.config().churn_minutes.max(120));
    }

    #[test]
    fn default_is_laptop() {
        assert_eq!(Scale::default(), Scale::Laptop);
    }
}
