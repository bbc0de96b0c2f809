//! Harness-side spans around the calls into each layer.
//!
//! The program under test is not instrumented: every span here is opened
//! and closed by the benchmark, around a call into a layer's public API.
//! Spans carry `name, start, end, parent`, stay in memory, and are written
//! as Chrome trace-event JSON when the run ends.
//!
//! Naming convention: a span whose name contains a `.` is a *layer call*
//! (`kademlia.run_until`, `kad_resilience.analyze_graph`); every other
//! span is harness structure (`timed`, `minute`, `cell`). The wall-clock of
//! the timed phase that sits in harness spans' self time is what the
//! layers cannot explain — [`Tracer::unattributed_share`], the
//! conservation check.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Name of the root span every workload wraps its timed phase in.
pub const TIMED: &str = "timed";

const NONE: u32 = u32::MAX;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: u32,
}

/// Handle returned by [`Tracer::open`]; pass it back to [`Tracer::close`].
#[derive(Clone, Copy, Debug)]
pub struct SpanId(u32);

/// Per-name aggregate: the table a flame graph would summarise.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct NameStats {
    pub calls: u64,
    pub total_ns: u64,
    /// `total_ns` minus the part covered by child spans.
    pub self_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`; when not, `open`/`close`
    /// are no-ops and [`Tracer::span`] only times.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(NONE);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied().unwrap_or(NONE),
        });
        self.open.push(id);
        SpanId(id)
    }

    pub fn close(&mut self, id: SpanId) {
        if id.0 == NONE {
            return;
        }
        let popped = self.open.pop();
        assert_eq!(popped, Some(id.0), "spans must close in LIFO order");
        self.spans[id.0 as usize].end_ns = self.now_ns();
    }

    /// Runs `f` under a span and returns its result with the elapsed
    /// seconds. The time is measured whether or not spans are recorded, so
    /// traced and untraced runs share one code path.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let id = self.open(name);
        let start = Instant::now();
        let result = f();
        let secs = start.elapsed().as_secs_f64();
        self.close(id);
        (result, secs)
    }

    /// Per-name call counts, total and self time.
    pub fn by_name(&self) -> BTreeMap<&'static str, NameStats> {
        let self_ns = self.self_times();
        let mut table: BTreeMap<&'static str, NameStats> = BTreeMap::new();
        for (span, own) in self.spans.iter().zip(self_ns) {
            let entry = table.entry(span.name).or_default();
            entry.calls += 1;
            entry.total_ns += span.end_ns - span.start_ns;
            entry.self_ns += own;
        }
        table
    }

    fn self_times(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if span.parent != NONE {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Share of the [`TIMED`] span's wall-clock that no layer-call span
    /// covers: the self time of the harness spans inside it. `None` when
    /// nothing was recorded.
    pub fn unattributed_share(&self) -> Option<f64> {
        let root = self.spans.iter().position(|s| s.name == TIMED)?;
        let own = self.self_times();
        // Spans are stored in open order, so a parent precedes its children.
        let mut inside = vec![false; self.spans.len()];
        let mut harness_ns = 0u64;
        for (i, span) in self.spans.iter().enumerate().skip(root) {
            inside[i] = i == root || (span.parent != NONE && inside[span.parent as usize]);
            if inside[i] && !span.name.contains('.') {
                harness_ns += own[i];
            }
        }
        let total = self.spans[root].end_ns - self.spans[root].start_ns;
        Some(harness_ns as f64 / total.max(1) as f64)
    }

    /// Estimated cost of the tracing itself, in percent of the [`TIMED`]
    /// span: spans recorded inside it times the calibrated cost of one
    /// open/close pair.
    pub fn overhead_pct(&self) -> Option<f64> {
        let root = self.spans.iter().position(|s| s.name == TIMED)?;
        let total = self.spans[root].end_ns - self.spans[root].start_ns;
        let inside = (self.spans.len() - root) as f64;
        Some(inside * ns_per_span() / total.max(1) as f64 * 100.0)
    }

    /// Writes the spans as Chrome trace-event JSON (`chrome://tracing`,
    /// Perfetto). `args.parent` is the index of the causing span.
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\": [\n")?;
        for (i, span) in self.spans.iter().enumerate() {
            let parent = if span.parent == NONE {
                -1
            } else {
                i64::from(span.parent)
            };
            write!(
                out,
                "{}{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \
                 \"ts\": {:.3}, \"dur\": {:.3}, \"args\": {{\"id\": {i}, \"parent\": {parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                span.name,
                span.start_ns as f64 / 1e3,
                (span.end_ns - span.start_ns) as f64 / 1e3,
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}

/// Calibrated cost of one recorded open/close pair, in nanoseconds.
fn ns_per_span() -> f64 {
    const PAIRS: usize = 50_000;
    let mut scratch = Tracer::new(true);
    scratch.spans.reserve(PAIRS);
    let start = Instant::now();
    for _ in 0..PAIRS {
        let id = scratch.open("calibration");
        scratch.close(id);
    }
    start.elapsed().as_nanos() as f64 / PAIRS as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(micros: u64) {
        let start = Instant::now();
        while start.elapsed().as_micros() < u128::from(micros) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_excludes_children_and_conserves() {
        let mut t = Tracer::new(true);
        let root = t.open(TIMED);
        let unit = t.open("minute");
        t.span("layer.call", || spin(2_000));
        spin(500);
        t.close(unit);
        t.close(root);
        let table = t.by_name();
        let call = table["layer.call"];
        let minute = table["minute"];
        assert_eq!(call.calls, 1);
        assert_eq!(call.self_ns, call.total_ns);
        assert_eq!(minute.self_ns, minute.total_ns - call.total_ns);
        let total: u64 = table.values().map(|s| s.self_ns).sum();
        assert_eq!(total, table[TIMED].total_ns, "self times sum to the root");
        let share = t.unattributed_share().expect("root recorded");
        assert!(share > 0.05 && share < 0.6, "harness share {share}");
    }

    #[test]
    fn disabled_tracer_times_but_records_nothing() {
        let mut t = Tracer::new(false);
        let (value, secs) = t.span("layer.call", || {
            spin(200);
            7
        });
        assert_eq!(value, 7);
        assert!(secs >= 0.0002);
        assert_eq!(t.span_count(), 0);
        assert!(t.unattributed_share().is_none());
    }
}
