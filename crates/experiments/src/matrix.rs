//! The grid executor: many independent cells in parallel, streamed as
//! they finish.
//!
//! The paper's evaluation is a *grid* — simulations A–L swept over `k`,
//! churn, loss, staleness and network size — and so is every `repro`
//! workload since. Each cell is an independent
//! [`run_cell`](crate::runner::run_cell) call, so a grid parallelizes
//! perfectly at the cell level, **above** the pair-level rayon
//! parallelism inside each connectivity sweep. [`MatrixRunner`] owns that
//! outer level:
//!
//! * cells are claimed work-stealing style by a number of worker threads
//!   (half the cores by default, or [`MatrixRunner::scenario_threads`]);
//!   each worker runs its cell under a rayon thread budget of
//!   `cores / workers` (at least 1), so the inner pair-level sweeps and
//!   the outer workers share the core budget instead of multiplying it;
//! * outcomes stream to a callback the moment they finish (progress
//!   reporting), and are also returned in input order;
//! * results are **identical** to running the cells serially: the runner
//!   never mutates a cell, and every cell seeds all of its own
//!   randomness. That equivalence is tested.
//!
//! # Example
//!
//! Any grid of independent cells parallelizes the same way — here a plain
//! function over inputs, streamed as cells finish:
//!
//! ```
//! use kad_experiments::matrix::MatrixRunner;
//!
//! let inputs: Vec<u64> = (1..=6).collect();
//! let mut finished = 0;
//! let squares = MatrixRunner::new()
//!     .scenario_threads(3)
//!     .run_tasks(&inputs, |&x| x * x, |_, _| finished += 1);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25, 36]);
//! assert_eq!(finished, 6);
//! ```

use crate::runner::{CellOutcome, LiveCell};
use crate::scale::Scale;
use crate::scenario::paper;
use kad_telemetry::{Cell, Recorder};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Executes a grid of cells in parallel. See the module docs.
///
/// # Example
///
/// ```
/// use kad_experiments::matrix::MatrixRunner;
/// use kad_experiments::runner::run_scenario;
/// use kad_experiments::scenario::ScenarioBuilder;
///
/// let scenarios: Vec<_> = (0..2)
///     .map(|i| {
///         let mut b = ScenarioBuilder::quick(12, 4);
///         b.seed(40 + i);
///         b.build()
///     })
///     .collect();
/// let outcomes = MatrixRunner::new().run_tasks(&scenarios, run_scenario, |_, _| {});
/// assert_eq!(outcomes.len(), 2);
/// assert_eq!(outcomes[0].scenario.base.seed, 40);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MatrixRunner {
    explicit_threads: Option<usize>,
}

impl MatrixRunner {
    /// Runner with the default split: half the cores at the cell level
    /// (at least one), the other half to each worker's inner sweeps.
    pub fn new() -> Self {
        MatrixRunner::default()
    }

    /// Overrides the number of cell-level worker threads (values are
    /// clamped to at least 1).
    pub fn scenario_threads(mut self, threads: usize) -> Self {
        self.explicit_threads = Some(threads.max(1));
        self
    }

    fn worker_count(&self, cells: usize) -> usize {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        self.explicit_threads
            .unwrap_or((cores / 2).max(1))
            .min(cells.max(1))
    }

    /// Executes `run` over a grid of task values: work-stealing claim
    /// order, per-worker rayon thread budget, streamed completions.
    ///
    /// `on_done(index, result)` fires on the calling thread in completion
    /// order; the returned vector is in input order regardless.
    pub fn run_tasks<T, R>(
        &self,
        tasks: &[T],
        run: impl Fn(&T) -> R + Sync,
        mut on_done: impl FnMut(usize, &R),
    ) -> Vec<R>
    where
        T: Sync,
        R: Send,
    {
        if tasks.is_empty() {
            return Vec::new();
        }
        let workers = self.worker_count(tasks.len());
        if workers <= 1 {
            return tasks
                .iter()
                .enumerate()
                .map(|(index, task)| {
                    let result = run(task);
                    on_done(index, &result);
                    result
                })
                .collect();
        }

        // Split the core budget: `workers` scenario threads, each allowed
        // `cores / workers` rayon threads for its inner pair sweeps.
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let inner_budget = (cores / workers).max(1);
        let next = AtomicUsize::new(0);
        let (sender, receiver) = mpsc::channel::<(usize, R)>();
        let mut slots: Vec<Option<R>> = Vec::new();
        slots.resize_with(tasks.len(), || None);
        let run = &run;
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let sender = sender.clone();
                let next = &next;
                scope.spawn(move || loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= tasks.len() {
                        break;
                    }
                    let result = rayon::with_thread_budget(inner_budget, || run(&tasks[index]));
                    if sender.send((index, result)).is_err() {
                        break;
                    }
                });
            }
            drop(sender);
            for (index, result) in receiver {
                on_done(index, &result);
                slots[index] = Some(result);
            }
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every task produces a result"))
            .collect()
    }
}

/// The paper's full A–H scenario grid (both sizes × the `k` sweep), seeded
/// exactly like the figure harness — the workload `repro matrix` runs.
pub fn paper_matrix(scale: Scale, base_seed: u64) -> Vec<LiveCell> {
    let mut scenarios = Vec::new();
    for large in [false, true] {
        for k in crate::figures::K_SWEEP {
            scenarios.push(paper::sim_ab(scale, large, k));
            scenarios.push(paper::sim_cd(scale, large, k));
            scenarios.push(paper::sim_ef(scale, large, k));
            scenarios.push(paper::sim_gh(scale, large, k, 3));
        }
    }
    for scenario in &mut scenarios {
        scenario.seed = crate::figures::seed_for(base_seed, &scenario.name);
    }
    scenarios.into_iter().map(LiveCell::plain).collect()
}

/// The `matrix-summary.csv`: one row per cell with its final snapshot.
pub fn matrix_summary_csv(outcomes: &[CellOutcome]) -> String {
    let mut rec = Recorder::new(&[
        "scenario",
        "final_size",
        "min_connectivity",
        "avg_connectivity",
    ]);
    for outcome in outcomes {
        if let Some(last) = outcome.points.last() {
            rec.row(&[
                outcome.scenario.base.name.as_str().into(),
                last.honest_size.into(),
                last.report.min_connectivity.into(),
                Cell::opt_f64(last.report.avg_connectivity, 2),
            ]);
        }
    }
    rec.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_cell;
    use crate::scenario::{ChurnRate, ScenarioBuilder};

    fn small_grid() -> Vec<LiveCell> {
        let mut scenarios = Vec::new();
        for (i, k) in [4usize, 6].into_iter().enumerate() {
            let mut b = ScenarioBuilder::quick(14, k);
            b.name(format!("grid-{k}")).seed(90 + i as u64);
            scenarios.push(b.build());
        }
        let mut churny = ScenarioBuilder::quick(12, 4);
        churny
            .name("grid-churn")
            .seed(97)
            .churn(ChurnRate::ONE_ONE)
            .churn_minutes(10)
            .snapshot_minutes(10);
        scenarios.push(churny.build());
        scenarios.into_iter().map(LiveCell::plain).collect()
    }

    #[test]
    fn matrix_matches_serial_exactly() {
        let cells = small_grid();
        let serial: Vec<CellOutcome> = cells.iter().map(run_cell).collect();
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for runner in [
            MatrixRunner::new(),
            MatrixRunner::new().scenario_threads(cores),
            MatrixRunner::new().scenario_threads(1),
            MatrixRunner::new().scenario_threads(2),
            MatrixRunner::new().scenario_threads(8),
        ] {
            let parallel = runner.run_tasks(&cells, run_cell, |_, _| {});
            assert_eq!(parallel, serial, "runner {runner:?}");
        }
    }

    #[test]
    fn streaming_reports_every_scenario_once() {
        let cells = small_grid();
        let mut seen = Vec::new();
        let outcomes = MatrixRunner::new().scenario_threads(3).run_tasks(
            &cells,
            run_cell,
            |index, outcome| {
                seen.push((index, outcome.scenario.base.name.clone()));
            },
        );
        assert_eq!(outcomes.len(), cells.len());
        let mut indices: Vec<usize> = seen.iter().map(|&(i, _)| i).collect();
        indices.sort_unstable();
        assert_eq!(indices, (0..cells.len()).collect::<Vec<_>>());
        for (index, name) in seen {
            assert_eq!(name, cells[index].base.name, "callback index matches");
        }
        // Returned order is input order.
        for (outcome, cell) in outcomes.iter().zip(&cells) {
            assert_eq!(outcome.scenario.base.name, cell.base.name);
        }
    }

    #[test]
    fn empty_matrix_is_empty() {
        let none: [LiveCell; 0] = [];
        assert!(MatrixRunner::new()
            .run_tasks(&none, run_cell, |_, _| {})
            .is_empty());
    }

    #[test]
    fn generic_tasks_return_in_input_order() {
        // Results in input order, every index reported once.
        let tasks: Vec<u64> = (0..17).collect();
        let mut seen = Vec::new();
        let results = MatrixRunner::new().scenario_threads(4).run_tasks(
            &tasks,
            |&t| t * t,
            |index, &r| seen.push((index, r)),
        );
        assert_eq!(results, tasks.iter().map(|t| t * t).collect::<Vec<_>>());
        seen.sort_unstable();
        assert_eq!(seen.len(), tasks.len());
        for (i, (index, r)) in seen.into_iter().enumerate() {
            assert_eq!(index, i);
            assert_eq!(r, tasks[i] * tasks[i]);
        }
    }

    #[test]
    fn paper_matrix_is_seeded_and_named() {
        let cells = paper_matrix(Scale::Bench, 7);
        // 2 sizes × 4 k values × 4 simulation families.
        assert_eq!(cells.len(), 32);
        let mut names: Vec<&str> = cells.iter().map(|c| c.base.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 32, "scenario names are unique");
        // Seeds derive from the name, so they differ across the grid.
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.base.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 32, "scenario seeds are unique");
        assert!(cells.iter().all(|c| *c == LiveCell::plain(c.base.clone())));
    }
}
