//! Shim for the subset of the `criterion` API this workspace uses.
//!
//! A plain wall-clock measurement harness: each `Bencher::iter` call warms
//! up, then times `sample_size` batched iterations and prints the mean
//! time per iteration. No statistics beyond the mean, no HTML reports —
//! the point is comparable before/after numbers from `cargo bench` in an
//! offline container.
//!
//! One environment knob: `CRITERION_MAX_SECS` caps the measured wall time
//! per benchmark (default 3 seconds).

use std::fmt;
use std::time::{Duration, Instant};

/// Returns its argument, preventing the optimizer from deleting the
/// computation that produced it.
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Benchmark identifier: `function_id/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Identifier with a function name and a parameter display.
    pub fn new(function_id: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{function_id}/{parameter}"),
        }
    }

    /// Identifier from a parameter display only.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            id: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(id: &str) -> Self {
        BenchmarkId { id: id.to_string() }
    }
}

impl From<String> for BenchmarkId {
    fn from(id: String) -> Self {
        BenchmarkId { id }
    }
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {
    _priv: (),
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 20,
            _criterion: self,
        }
    }
}

/// A named group of benchmarks sharing a sample size.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, samples: usize) -> &mut Self {
        self.sample_size = samples.max(1);
        self
    }

    /// Runs a benchmark that borrows an input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut routine: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut bencher = Bencher::new(self.sample_size);
        routine(&mut bencher, input);
        bencher.report(&self.name, &id.id);
        self
    }

    /// Runs a benchmark without an input value.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut routine: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut bencher = Bencher::new(self.sample_size);
        routine(&mut bencher);
        bencher.report(&self.name, &id.id);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}
}

/// Times a closure; one per benchmark id.
pub struct Bencher {
    sample_size: usize,
    /// Per-iteration durations, in measurement order.
    samples: Vec<Duration>,
    total: Duration,
}

impl Bencher {
    fn new(sample_size: usize) -> Self {
        Bencher {
            sample_size,
            samples: Vec::new(),
            total: Duration::ZERO,
        }
    }

    /// Measures `routine`: a short warmup, then up to `sample_size`
    /// individually-timed iterations (capped by `CRITERION_MAX_SECS` wall
    /// time, default 3s). Per-iteration timing is what makes the reported
    /// median meaningful.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut routine: F) {
        let max_secs = std::env::var("CRITERION_MAX_SECS")
            .ok()
            .and_then(|v| v.parse::<f64>().ok())
            .unwrap_or(3.0);
        let budget = Duration::from_secs_f64(max_secs.max(0.1));
        for _ in 0..2.min(self.sample_size) {
            black_box(routine());
        }
        let started = Instant::now();
        self.samples.clear();
        while self.samples.len() < self.sample_size {
            let before = Instant::now();
            black_box(routine());
            self.samples.push(before.elapsed());
            if started.elapsed() >= budget {
                break;
            }
        }
        self.total = started.elapsed();
    }

    /// Median of the recorded per-iteration times (zero without samples).
    fn median(&self) -> Duration {
        if self.samples.is_empty() {
            return Duration::ZERO;
        }
        let mut sorted = self.samples.clone();
        sorted.sort_unstable();
        sorted[sorted.len() / 2]
    }

    fn report(&self, group: &str, id: &str) {
        if self.samples.is_empty() {
            println!("bench {group}/{id}: no measurement recorded");
            return;
        }
        let iters = self.samples.len() as u64;
        let mean = self.total / iters as u32;
        let median = self.median();
        println!(
            "bench {group}/{id}: {} /iter (median {}, {iters} iters, total {:.2?})",
            format_duration(mean),
            format_duration(median),
            self.total
        );
    }
}

fn format_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos >= 1_000_000_000 {
        format!("{:.3} s", nanos as f64 / 1e9)
    } else if nanos >= 1_000_000 {
        format!("{:.3} ms", nanos as f64 / 1e6)
    } else if nanos >= 1_000 {
        format!("{:.3} µs", nanos as f64 / 1e3)
    } else {
        format!("{nanos} ns")
    }
}

/// Collects benchmark functions into one runnable group function.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emits `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_records_measurement() {
        let mut criterion = Criterion::default();
        let mut group = criterion.benchmark_group("shim");
        group.sample_size(5);
        let mut ran = 0u32;
        group.bench_with_input(BenchmarkId::new("noop", 1), &3u32, |bencher, &x| {
            bencher.iter(|| {
                ran += 1;
                x * 2
            })
        });
        group.finish();
        assert!(ran >= 5, "routine ran {ran} times");
    }

    #[test]
    fn median_of_samples_is_the_middle_order_statistic() {
        let mut bencher = Bencher::new(3);
        bencher.samples = vec![
            Duration::from_nanos(30),
            Duration::from_nanos(10),
            Duration::from_nanos(20),
        ];
        assert_eq!(bencher.median(), Duration::from_nanos(20));
        bencher.samples.clear();
        assert_eq!(bencher.median(), Duration::ZERO);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(format_duration(Duration::from_nanos(50)), "50 ns");
        assert!(format_duration(Duration::from_micros(2)).ends_with("µs"));
        assert!(format_duration(Duration::from_millis(2)).ends_with("ms"));
        assert!(format_duration(Duration::from_secs(2)).ends_with(" s"));
    }
}
