//! Figure data: named time series of connectivity measurements.

use crate::runner::CellOutcome;
use dessim::metrics::Summary;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One point of a figure series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SeriesPoint {
    /// Simulated minutes (x-axis).
    pub time_min: f64,
    /// Network size at that instant.
    pub network_size: usize,
    /// Minimum connectivity.
    pub min_connectivity: u64,
    /// Average connectivity; `None` when the sweep pruned with cutoffs and
    /// the mean is undefined (rendered `na` in CSV).
    pub avg_connectivity: Option<f64>,
}

/// The data behind one paper figure: labelled series over simulated time.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FigureData {
    /// Figure title, e.g. "Figure 2: Simulation A (size 250, churn 0/1)".
    pub title: String,
    /// Series by label (label examples: "k=5", "l=low s=1").
    pub series: BTreeMap<String, Vec<SeriesPoint>>,
}

impl FigureData {
    /// Creates an empty figure.
    pub fn new(title: impl Into<String>) -> Self {
        FigureData {
            title: title.into(),
            series: BTreeMap::new(),
        }
    }

    /// Adds a cell outcome's snapshot series as one labelled series.
    pub fn add_outcome(&mut self, label: impl Into<String>, outcome: &CellOutcome) {
        let points = outcome
            .points
            .iter()
            .map(|p| SeriesPoint {
                time_min: p.time_min,
                network_size: p.honest_size,
                min_connectivity: p.report.min_connectivity,
                avg_connectivity: p.report.avg_connectivity,
            })
            .collect();
        self.series.insert(label.into(), points);
    }

    /// Renders the figure as CSV: one row per (series, point).
    pub fn to_csv(&self) -> String {
        let mut out =
            String::from("series,time_min,network_size,min_connectivity,avg_connectivity\n");
        for (label, points) in &self.series {
            for p in points {
                let avg = match p.avg_connectivity {
                    Some(v) => format!("{v:.3}"),
                    None => "na".to_string(),
                };
                let _ = writeln!(
                    out,
                    "{label},{:.1},{},{},{avg}",
                    p.time_min, p.network_size, p.min_connectivity
                );
            }
        }
        out
    }

    /// Summary statistics (mean, variance, relative variance) of the
    /// minimum connectivity of one series over `time >= from_min` — the
    /// Table 2 aggregation.
    pub fn churn_stats(&self, label: &str, from_min: f64) -> Option<Summary> {
        let points = self.series.get(label)?;
        let mut summary = Summary::new();
        for p in points.iter().filter(|p| p.time_min >= from_min) {
            summary.record(p.min_connectivity as f64);
        }
        Some(summary)
    }
}

/// Churn-phase summary of an outcome's minimum connectivity — the quantity
/// Table 2 reports (mean and relative variance during the churn phase).
pub fn churn_phase_min_summary(outcome: &CellOutcome) -> Summary {
    let mut summary = Summary::new();
    for s in outcome.churn_phase() {
        summary.record(s.report.min_connectivity as f64);
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;

    fn outcome() -> CellOutcome {
        let mut b = ScenarioBuilder::quick(12, 4);
        b.seed(3).snapshot_minutes(30);
        crate::runner::run_scenario(&b.build())
    }

    #[test]
    fn figure_assembly_and_csv() {
        let out = outcome();
        let mut fig = FigureData::new("test figure");
        fig.add_outcome("k=4", &out);
        assert_eq!(fig.series.len(), 1);
        let csv = fig.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(
            lines[0],
            "series,time_min,network_size,min_connectivity,avg_connectivity"
        );
        assert_eq!(lines.len(), 1 + out.points.len());
        assert!(lines[1].starts_with("k=4,"));
    }

    #[test]
    fn churn_stats_filters_by_time() {
        let out = outcome();
        let mut fig = FigureData::new("test");
        fig.add_outcome("s", &out);
        let all = fig.churn_stats("s", 0.0).expect("series exists");
        let late = fig.churn_stats("s", 60.0).expect("series exists");
        assert!(all.count() >= late.count());
        assert!(fig.churn_stats("missing", 0.0).is_none());
    }

    #[test]
    fn churn_phase_summary_counts_match() {
        let out = outcome();
        let summary = churn_phase_min_summary(&out);
        assert_eq!(summary.count() as usize, out.churn_phase().count());
    }
}
