//! The flight recorder: per-cell observation capture and the `--observe`
//! artifact set.
//!
//! [`run_cell`](crate::runner::run_cell) funnels every cell through
//! [`run_observed`]. When a
//! run observes, the wrapper installs a thread-local [`SpanProfile`] on
//! the worker thread, wraps the cell body in a root `cell` span, and
//! submits the resulting [`CellObservation`] — span table, the session
//! journal's determinism hash chain, and the protocol counters — to a
//! process-global collector that the `repro` binary drains once the grid
//! finishes. When a run does not observe, the wrapper is a passthrough
//! and the cell pays nothing beyond one branch.
//!
//! The collector then writes six artifacts into the `--observe DIR`:
//!
//! * `run-manifest.json` — seed, scale, grid dimensions, and per-cell
//!   wall time + journal event counts. Wall-clock quantities live *only*
//!   here and in `profile.csv`; the golden CSVs a run emits stay
//!   byte-identical whether or not it was observed.
//! * `profile.csv` — the span table, one row per `(cell, span path)`:
//!   call count, total and self nanoseconds.
//! * `audit-chain.csv` — the per-minute determinism fingerprint, one row
//!   per `(cell, minute)`: event count and the FNV-1a hash chain value
//!   (as 16 hex digits). Two same-seed runs must produce byte-identical
//!   files; `repro audit` diffs them with [`compare_audit_chains`] and
//!   names the first divergent `(cell, minute)` otherwise.
//! * `metrics.prom` — a Prometheus-style text exposition of the journal
//!   event counts, the protocol/transport counters, the span totals and
//!   the exemplar counts, labelled by cell. Every family carries `# HELP`
//!   and `# TYPE` lines (format conformance is unit-tested).
//! * `traces.json` — the captured p99 exemplar trace trees in Chrome
//!   trace-event format (`chrome://tracing` / Perfetto): one process per
//!   cell, one thread per exemplar, `X` duration events for the queue
//!   wait, the lookup envelope and every RPC span, with critical-path
//!   membership in the event args.
//! * `latency-attribution.csv` — one row per exemplar with its
//!   critical-path latency decomposition; `queue_ms + rtt_ms +
//!   timeout_ms == total_ms` holds on every row (the conservation law CI
//!   re-checks from the artifact).

use dessim::metrics::Counters;
use kad_telemetry::journal::Journal;
use kad_telemetry::{span, Recorder, SpanOutcome, SpanProfile, TraceTree};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::rc::Rc;
use std::sync::Mutex;

/// One captured exemplar trace tree, tagged with the phase label its
/// reservoir was keyed by (`pre-attack` / `attack` for load cells).
#[derive(Clone, Debug)]
pub struct TraceExemplar {
    /// Phase label for the artifact rows.
    pub phase: &'static str,
    /// The full trace tree.
    pub tree: TraceTree,
}

/// What a cell hands back for observation alongside its outcome: the
/// session journal (if the cell ran under a [`crate::session::SessionDriver`]
/// with `observe` on), the run's protocol counters, and any exemplar
/// trace trees its telemetry sink captured.
pub struct CellReport {
    /// The driver's journal handle, cloned out before teardown.
    pub journal: Option<Rc<RefCell<Journal>>>,
    /// Protocol/transport counters accumulated over the run.
    pub counters: Counters,
    /// p99 exemplar trace trees (empty for cells without trace capture).
    pub exemplars: Vec<TraceExemplar>,
}

impl CellReport {
    /// A report with no journal and no counters — for work observed as
    /// one cell without a session of its own (a figure/table registry
    /// experiment).
    pub fn empty() -> CellReport {
        CellReport {
            journal: None,
            counters: Counters::new(),
            exemplars: Vec::new(),
        }
    }
}

/// One observed cell: everything the artifact writers need.
#[derive(Clone, Debug)]
pub struct CellObservation {
    /// The cell's display name (unique within a grid).
    pub cell: String,
    /// The span table captured on the cell's worker thread.
    pub profile: SpanProfile,
    /// The session journal, cloned at cell end (hash chain + counts).
    pub journal: Option<Journal>,
    /// Protocol/transport counters.
    pub counters: Counters,
    /// p99 exemplar trace trees, phase-tagged.
    pub exemplars: Vec<TraceExemplar>,
}

impl CellObservation {
    /// The cell's wall time: the root `cell` span's total.
    pub fn wall_ns(&self) -> u64 {
        self.profile.get("cell").map_or(0, |s| s.total_ns)
    }
}

/// The process-global observation collector. `None` while no collection
/// is active, so cells observed outside a `begin`/`end` window (unit
/// tests running in parallel, say) are dropped instead of cross-talking.
static COLLECTOR: Mutex<Option<Vec<CellObservation>>> = Mutex::new(None);

/// Starts collecting observations. Call once before launching a grid.
pub fn begin_collection() {
    *COLLECTOR.lock().expect("observe collector poisoned") = Some(Vec::new());
}

/// Stops collecting and returns the observations sorted by cell name
/// (worker completion order is nondeterministic; the artifacts are not).
pub fn end_collection() -> Vec<CellObservation> {
    let mut observations = COLLECTOR
        .lock()
        .expect("observe collector poisoned")
        .take()
        .unwrap_or_default();
    observations.sort_by(|a, b| a.cell.cmp(&b.cell));
    observations
}

fn submit(observation: CellObservation) {
    if let Some(active) = COLLECTOR
        .lock()
        .expect("observe collector poisoned")
        .as_mut()
    {
        active.push(observation);
    }
}

/// Runs one cell under observation. When `enabled` is false this is a
/// passthrough. When true, a span profile is installed on the calling
/// thread for the duration of `body`, the whole cell is timed under a
/// root `cell` span, and the observation is submitted to the collector.
/// `body` returns the cell's outcome plus its [`CellReport`].
pub fn run_observed<T>(enabled: bool, cell: &str, body: impl FnOnce() -> (T, CellReport)) -> T {
    if !enabled {
        return body().0;
    }
    span::install();
    let (value, report) = {
        let _cell = span::span("cell");
        body()
    };
    let profile = span::take().unwrap_or_default();
    submit(CellObservation {
        cell: cell.to_string(),
        profile,
        journal: report.journal.map(|j| j.borrow().clone()),
        counters: report.counters,
        exemplars: report.exemplars,
    });
    value
}

// ----------------------------------------------------------------------
// Artifact writers
// ----------------------------------------------------------------------

/// The run-level fields of `run-manifest.json`.
#[derive(Clone, Debug)]
pub struct RunMeta {
    /// The subcommand that ran (`load`, `defend`, …).
    pub experiment: String,
    /// The scale label (`bench`, `laptop`, `paper`).
    pub scale: String,
    /// The base seed.
    pub seed: u64,
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Renders `run-manifest.json`: run identity plus one entry per cell
/// with wall time, span count, and journal accounting. Hand-rolled JSON
/// with a fixed key order — the build has no JSON crate.
pub fn render_manifest(meta: &RunMeta, observations: &[CellObservation]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(
        out,
        "  \"experiment\": \"{}\",",
        json_escape(&meta.experiment)
    );
    let _ = writeln!(out, "  \"scale\": \"{}\",", json_escape(&meta.scale));
    let _ = writeln!(out, "  \"seed\": {},", meta.seed);
    let _ = writeln!(out, "  \"cells\": {},", observations.len());
    out.push_str("  \"cell_reports\": [\n");
    for (i, obs) in observations.iter().enumerate() {
        let (events, dropped, sealed) = obs.journal.as_ref().map_or((0, 0, 0), |j| {
            (
                j.recorded_events(),
                j.dropped_events(),
                j.seals().len() as u64,
            )
        });
        let comma = if i + 1 < observations.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"cell\": \"{}\", \"wall_ns\": {}, \"spans\": {}, \
             \"journal_events\": {events}, \"journal_dropped\": {dropped}, \
             \"sealed_minutes\": {sealed}}}{comma}",
            json_escape(&obs.cell),
            obs.wall_ns(),
            obs.profile.len(),
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders `profile.csv`: the span table, one row per `(cell, path)`.
pub fn profile_csv(observations: &[CellObservation]) -> String {
    let mut rec = Recorder::new(&["cell", "path", "calls", "total_ns", "self_ns"]);
    for obs in observations {
        for (path, stats) in obs.profile.iter() {
            rec.row(&[
                obs.cell.as_str().into(),
                path.into(),
                stats.calls.into(),
                stats.total_ns.into(),
                stats.self_ns.into(),
            ]);
        }
    }
    rec.finish()
}

/// Renders `audit-chain.csv`: one row per `(cell, minute)` with the
/// minute's cumulative event count and chain value. Seed-determined:
/// same-seed runs render byte-identical files.
pub fn audit_chain_csv(observations: &[CellObservation]) -> String {
    let mut rec = Recorder::new(&["cell", "minute", "events", "chain"]);
    for obs in observations {
        let Some(journal) = &obs.journal else {
            continue;
        };
        for seal in journal.seals() {
            rec.row(&[
                obs.cell.as_str().into(),
                seal.minute.into(),
                seal.events.into(),
                format!("{:016x}", seal.chain).into(),
            ]);
        }
    }
    rec.finish()
}

/// Writes a family preamble: one `# HELP` and one `# TYPE` line, as the
/// Prometheus text exposition format requires before a family's samples.
fn prom_family(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Renders `metrics.prom`: journal event counts, protocol counters, span
/// totals and exemplar counts as Prometheus text exposition, labelled by
/// cell. Every emitted family carries `# HELP` and `# TYPE` lines;
/// `metrics_prom_families_conform` pins the format.
pub fn metrics_prom(observations: &[CellObservation]) -> String {
    let mut out = String::new();
    prom_family(
        &mut out,
        "kad_journal_events_total",
        "counter",
        "Structured journal events recorded, by cell and event kind.",
    );
    for obs in observations {
        let Some(journal) = &obs.journal else {
            continue;
        };
        for (kind, n) in journal.counts().iter() {
            let _ = writeln!(
                out,
                "kad_journal_events_total{{cell=\"{}\",kind=\"{kind}\"}} {n}",
                obs.cell
            );
        }
    }
    prom_family(
        &mut out,
        "kad_journal_dropped_total",
        "counter",
        "Journal events lost to ring truncation, by cell.",
    );
    for obs in observations {
        let Some(journal) = &obs.journal else {
            continue;
        };
        let _ = writeln!(
            out,
            "kad_journal_dropped_total{{cell=\"{}\"}} {}",
            obs.cell,
            journal.dropped_events()
        );
    }
    prom_family(
        &mut out,
        "kad_sim_events_total",
        "counter",
        "Protocol and transport simulator counters, by cell.",
    );
    for obs in observations {
        for (name, n) in obs.counters.iter() {
            let _ = writeln!(
                out,
                "kad_sim_events_total{{cell=\"{}\",name=\"{name}\"}} {n}",
                obs.cell
            );
        }
    }
    prom_family(
        &mut out,
        "kad_span_seconds_total",
        "counter",
        "Wall-clock seconds spent inside each profiler span path.",
    );
    for obs in observations {
        for (path, stats) in obs.profile.iter() {
            let _ = writeln!(
                out,
                "kad_span_seconds_total{{cell=\"{}\",path=\"{path}\"}} {:.9}",
                obs.cell,
                stats.total_ns as f64 / 1e9
            );
        }
    }
    prom_family(
        &mut out,
        "kad_span_calls_total",
        "counter",
        "Profiler span entries per path.",
    );
    for obs in observations {
        for (path, stats) in obs.profile.iter() {
            let _ = writeln!(
                out,
                "kad_span_calls_total{{cell=\"{}\",path=\"{path}\"}} {}",
                obs.cell, stats.calls
            );
        }
    }
    prom_family(
        &mut out,
        "kad_trace_exemplars",
        "gauge",
        "p99 exemplar trace trees captured, by cell and phase.",
    );
    for obs in observations {
        let mut by_phase: BTreeMap<&str, u64> = BTreeMap::new();
        for ex in &obs.exemplars {
            *by_phase.entry(ex.phase).or_default() += 1;
        }
        for (phase, n) in by_phase {
            let _ = writeln!(
                out,
                "kad_trace_exemplars{{cell=\"{}\",phase=\"{phase}\"}} {n}",
                obs.cell
            );
        }
    }
    out
}

/// Renders `traces.json`: the exemplar trace trees as Chrome trace-event
/// JSON (load it in `chrome://tracing` or Perfetto). One process per
/// cell, one thread per exemplar; the queue wait, the lookup envelope and
/// every RPC render as `X` (complete) events with microsecond
/// timestamps. Event args carry the queried node, its compromise flag,
/// the span outcome and whether the RPC sits on the critical path.
/// Hand-rolled JSON in the `render_manifest` idiom.
pub fn render_traces_json(observations: &[CellObservation]) -> String {
    let mut events: Vec<String> = Vec::new();
    for (ci, obs) in observations.iter().enumerate() {
        if obs.exemplars.is_empty() {
            continue;
        }
        let pid = ci + 1;
        events.push(format!(
            "{{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": 0, \
             \"args\": {{\"name\": \"{}\"}}}}",
            json_escape(&obs.cell)
        ));
        for (ti, ex) in obs.exemplars.iter().enumerate() {
            let tid = ti + 1;
            let tree = &ex.tree;
            let rec = &tree.record;
            let critical = tree.critical_path();
            events.push(format!(
                "{{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": {pid}, \"tid\": {tid}, \
                 \"args\": {{\"name\": \"{} lookup {} ({} ms)\"}}}}",
                ex.phase,
                rec.lookup_id,
                tree.end_to_end_ms()
            ));
            if tree.queue_wait_ms > 0 {
                events.push(format!(
                    "{{\"name\": \"queue-wait\", \"cat\": \"queue\", \"ph\": \"X\", \
                     \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \
                     \"args\": {{\"queue_wait_ms\": {}}}}}",
                    rec.started_ms.saturating_sub(tree.queue_wait_ms) * 1_000,
                    tree.queue_wait_ms * 1_000,
                    tree.queue_wait_ms
                ));
            }
            events.push(format!(
                "{{\"name\": \"{}\", \"cat\": \"lookup\", \"ph\": \"X\", \
                 \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \
                 \"args\": {{\"outcome\": \"{}\", \"hops\": {}, \"messages\": {}}}}}",
                rec.purpose.label(),
                rec.started_ms * 1_000,
                rec.latency_ms() * 1_000,
                rec.outcome.label(),
                rec.hops,
                rec.messages
            ));
            for span in &tree.spans {
                let on_path = critical.rpc_ids.contains(&span.rpc_id);
                events.push(format!(
                    "{{\"name\": \"rpc n{}\", \"cat\": \"rpc\", \"ph\": \"X\", \
                     \"pid\": {pid}, \"tid\": {tid}, \"ts\": {}, \"dur\": {}, \
                     \"args\": {{\"rpc_id\": {}, \"outcome\": \"{}\", \
                     \"compromised\": {}, \"critical\": {}, \"caused_by\": {}}}}}",
                    span.to_node,
                    span.sent_ms * 1_000,
                    span.duration_ms() * 1_000,
                    span.rpc_id,
                    span.outcome.label(),
                    span.to_compromised,
                    on_path,
                    span.caused_by
                        .map_or("null".to_string(), |id| id.to_string()),
                ));
            }
        }
    }
    let mut out = String::from("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n");
    for (i, event) in events.iter().enumerate() {
        let comma = if i + 1 < events.len() { "," } else { "" };
        let _ = writeln!(out, "    {event}{comma}");
    }
    out.push_str("  ]\n}\n");
    out
}

/// Renders `latency-attribution.csv`: one row per exemplar with the
/// critical-path decomposition of its end-to-end latency. The
/// conservation law `queue_ms + rtt_ms + timeout_ms == total_ms` holds on
/// every row; CI re-checks it from the written artifact.
pub fn latency_attribution_csv(observations: &[CellObservation]) -> String {
    let mut rec = Recorder::new(&[
        "cell",
        "phase",
        "lookup_id",
        "purpose",
        "outcome",
        "started_ms",
        "completed_ms",
        "spans",
        "timeouts",
        "critical_len",
        "queue_ms",
        "rtt_ms",
        "rtt_compromised_ms",
        "timeout_ms",
        "timeout_compromised_ms",
        "total_ms",
    ]);
    for obs in observations {
        for ex in &obs.exemplars {
            let tree = &ex.tree;
            let critical = tree.critical_path();
            let a = critical.attribution;
            let timeouts = tree
                .spans
                .iter()
                .filter(|s| s.outcome == SpanOutcome::TimedOut)
                .count() as u64;
            rec.row(&[
                obs.cell.as_str().into(),
                ex.phase.into(),
                tree.record.lookup_id.into(),
                tree.record.purpose.label().into(),
                tree.record.outcome.label().into(),
                tree.record.started_ms.into(),
                tree.record.completed_ms.into(),
                (tree.spans.len() as u64).into(),
                timeouts.into(),
                (critical.rpc_ids.len() as u64).into(),
                a.queue_ms.into(),
                a.rtt_ms.into(),
                a.rtt_compromised_ms.into(),
                a.timeout_ms.into(),
                a.timeout_compromised_ms.into(),
                a.total_ms().into(),
            ]);
        }
    }
    rec.finish()
}

/// Writes the full artifact set into `dir` (created if absent).
pub fn write_artifacts(
    dir: &Path,
    meta: &RunMeta,
    observations: &[CellObservation],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(
        dir.join("run-manifest.json"),
        render_manifest(meta, observations),
    )?;
    std::fs::write(dir.join("profile.csv"), profile_csv(observations))?;
    std::fs::write(dir.join("audit-chain.csv"), audit_chain_csv(observations))?;
    std::fs::write(dir.join("metrics.prom"), metrics_prom(observations))?;
    std::fs::write(dir.join("traces.json"), render_traces_json(observations))?;
    std::fs::write(
        dir.join("latency-attribution.csv"),
        latency_attribution_csv(observations),
    )?;
    Ok(())
}

// ----------------------------------------------------------------------
// Audit: diffing two runs' chains
// ----------------------------------------------------------------------

/// One parsed `audit-chain.csv`: per cell, the minute seals in row order.
pub type AuditChains = BTreeMap<String, Vec<(u64, u64, u64)>>;

/// Parses an `audit-chain.csv` body into [`AuditChains`]. Rejects files
/// whose header is not the writer's.
pub fn parse_audit_chain(text: &str) -> Result<AuditChains, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or("empty audit-chain.csv")?;
    if header != "cell,minute,events,chain" {
        return Err(format!("unexpected audit-chain header {header:?}"));
    }
    let mut chains = AuditChains::new();
    for (i, line) in lines.enumerate() {
        if line.is_empty() {
            continue;
        }
        let fields: Vec<&str> = line.split(',').collect();
        let [cell, minute, events, chain] = fields[..] else {
            return Err(format!("row {}: expected 4 fields, got {line:?}", i + 2));
        };
        let minute: u64 = minute
            .parse()
            .map_err(|_| format!("row {}: bad minute {minute:?}", i + 2))?;
        let events: u64 = events
            .parse()
            .map_err(|_| format!("row {}: bad event count {events:?}", i + 2))?;
        let chain = u64::from_str_radix(chain, 16)
            .map_err(|_| format!("row {}: bad chain value {chain:?}", i + 2))?;
        chains
            .entry(cell.to_string())
            .or_default()
            .push((minute, events, chain));
    }
    Ok(chains)
}

/// The first point two audit chains disagree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Divergence {
    /// The cell whose chains split.
    pub cell: String,
    /// The first minute (in the cell's seal order) that differs — or the
    /// first minute present on only one side.
    pub minute: u64,
    /// What differed, for the human-readable report.
    pub detail: String,
}

/// The result of comparing two runs' audit chains.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AuditReport {
    /// Cells compared (union of both sides).
    pub cells: usize,
    /// Minute seals compared.
    pub minutes: usize,
    /// The first divergence in cell-name, then minute order — `None`
    /// when the chains match everywhere.
    pub divergence: Option<Divergence>,
}

/// Compares two parsed audit chains and localizes the first divergence.
/// The hash chain makes this exact: the first minute whose chain value
/// differs is the first minute whose *event stream* differed, because
/// every later seal folds over it.
pub fn compare_audit_chains(a: &AuditChains, b: &AuditChains) -> AuditReport {
    let mut cells = 0usize;
    let mut minutes = 0usize;
    let mut divergence = None;
    let names: std::collections::BTreeSet<&String> = a.keys().chain(b.keys()).collect();
    for name in names {
        cells += 1;
        if divergence.is_some() {
            continue;
        }
        let (left, right) = match (a.get(name), b.get(name)) {
            (Some(left), Some(right)) => (left, right),
            (Some(only), None) | (None, Some(only)) => {
                divergence = Some(Divergence {
                    cell: name.clone(),
                    minute: only.first().map_or(0, |s| s.0),
                    detail: "cell present in only one run".to_string(),
                });
                continue;
            }
            (None, None) => unreachable!("name came from one of the maps"),
        };
        for (l, r) in left.iter().zip(right.iter()) {
            minutes += 1;
            if l != r {
                divergence = Some(Divergence {
                    cell: name.clone(),
                    minute: l.0.min(r.0),
                    detail: format!(
                        "minute {}: events {} vs {}, chain {:016x} vs {:016x}",
                        l.0.min(r.0),
                        l.1,
                        r.1,
                        l.2,
                        r.2
                    ),
                });
                break;
            }
        }
        if divergence.is_none() && left.len() != right.len() {
            let longer = if left.len() > right.len() {
                left
            } else {
                right
            };
            divergence = Some(Divergence {
                cell: name.clone(),
                minute: longer[left.len().min(right.len())].0,
                detail: format!("{} vs {} sealed minutes", left.len(), right.len()),
            });
        }
    }
    AuditReport {
        cells,
        minutes,
        divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dessim::metrics::Counter;
    use kad_telemetry::journal::JournalEvent;
    use kad_telemetry::{LookupOutcome, LookupRecord, RpcSpan, TracePurpose};

    fn observed_cell(name: &str, seed: u64) -> CellObservation {
        let mut journal = Journal::new();
        for minute in 0..3 {
            journal.record(JournalEvent::Join {
                minute,
                node: (seed * 10 + minute) as u32,
            });
            journal.seal_minute(minute);
        }
        let mut counters = Counters::new();
        for _ in 0..5 + seed {
            counters.incr(Counter::MsgSent);
        }
        span::install();
        {
            let _cell = span::span("cell");
            let _session = span::span("session");
        }
        let profile = span::take().expect("installed above");
        CellObservation {
            cell: name.to_string(),
            profile,
            journal: Some(journal),
            counters,
            exemplars: vec![exemplar(seed)],
        }
    }

    /// A two-hop exemplar with a 100 ms queue wait, a 40 ms honest RTT
    /// and a 500 ms timeout on a compromised node (640 ms end to end).
    fn exemplar(seed: u64) -> TraceExemplar {
        let base = 60_000 * seed;
        TraceExemplar {
            phase: "attack",
            tree: TraceTree {
                record: LookupRecord {
                    lookup_id: seed,
                    target: [0x22; kad_telemetry::trace::TARGET_BYTES],
                    purpose: TracePurpose::Retrieve,
                    outcome: LookupOutcome::ValueFound,
                    hops: 2,
                    messages: 2,
                    responded: 1,
                    started_ms: base + 100,
                    completed_ms: base + 640,
                },
                queue_wait_ms: 100,
                spans: vec![
                    RpcSpan {
                        rpc_id: 1,
                        to_node: 4,
                        to_compromised: false,
                        sent_ms: base + 100,
                        completed_ms: base + 140,
                        outcome: SpanOutcome::Responded,
                        caused_by: None,
                    },
                    RpcSpan {
                        rpc_id: 2,
                        to_node: 9,
                        to_compromised: true,
                        sent_ms: base + 140,
                        completed_ms: base + 640,
                        outcome: SpanOutcome::TimedOut,
                        caused_by: Some(1),
                    },
                ],
                final_rpc: Some(2),
            },
        }
    }

    #[test]
    fn run_observed_is_a_passthrough_when_disabled() {
        let value = run_observed(false, "off", || (41 + 1, CellReport::empty()));
        assert_eq!(value, 42);
        assert!(!span::is_installed(), "no profile left installed");
    }

    #[test]
    fn run_observed_collects_profile_and_journal() {
        begin_collection();
        let value = run_observed(true, "cell-b", || {
            let journal = Rc::new(RefCell::new(Journal::new()));
            journal
                .borrow_mut()
                .record(JournalEvent::Join { minute: 0, node: 7 });
            journal.borrow_mut().seal_minute(0);
            let report = CellReport {
                journal: Some(Rc::clone(&journal)),
                counters: Counters::new(),
                exemplars: Vec::new(),
            };
            (7u32, report)
        });
        run_observed(true, "cell-a", || (1u32, CellReport::empty()));
        let observations = end_collection();
        assert_eq!(value, 7);
        assert_eq!(observations.len(), 2);
        // Sorted by cell name regardless of completion order.
        assert_eq!(observations[0].cell, "cell-a");
        assert_eq!(observations[1].cell, "cell-b");
        let b = &observations[1];
        assert!(b.profile.get("cell").is_some(), "root span captured");
        assert!(b.wall_ns() > 0);
        assert_eq!(b.journal.as_ref().unwrap().recorded_events(), 1);
        assert_eq!(b.journal.as_ref().unwrap().seals().len(), 1);
    }

    #[test]
    fn submissions_outside_a_collection_window_are_dropped() {
        // No begin_collection(): must not panic, must not leak into the
        // next window.
        run_observed(true, "stray", || ((), CellReport::empty()));
        begin_collection();
        assert!(end_collection().is_empty());
    }

    #[test]
    fn artifacts_render_and_audit_round_trips() {
        let observations = vec![observed_cell("alpha", 1), observed_cell("beta", 2)];
        let meta = RunMeta {
            experiment: "load".to_string(),
            scale: "bench".to_string(),
            seed: 23,
        };
        let manifest = render_manifest(&meta, &observations);
        assert!(manifest.contains("\"experiment\": \"load\""));
        assert!(manifest.contains("\"seed\": 23"));
        assert!(manifest.contains("\"cells\": 2"));
        assert!(manifest.contains("\"journal_events\": 3"));
        let profile = profile_csv(&observations);
        assert!(profile.starts_with("cell,path,calls,total_ns,self_ns"));
        let session = observations[0].profile.get("cell/session").unwrap();
        assert!(profile.contains(&format!(
            "alpha,cell/session,1,{},{}",
            session.total_ns, session.self_ns
        )));
        let prom = metrics_prom(&observations);
        assert!(prom.contains("kad_journal_events_total{cell=\"alpha\",kind=\"join\"} 3"));
        assert!(prom.contains("kad_sim_events_total{cell=\"beta\",name=\"msg_sent\"} 7"));
        assert!(prom.contains("kad_span_calls_total{cell=\"alpha\",path=\"cell\"} 1"));

        let csv = audit_chain_csv(&observations);
        let chains = parse_audit_chain(&csv).expect("round-trip");
        assert_eq!(chains.len(), 2);
        assert_eq!(chains["alpha"].len(), 3);
        let report = compare_audit_chains(&chains, &chains);
        assert_eq!(report.cells, 2);
        assert_eq!(report.minutes, 6);
        assert_eq!(report.divergence, None);
    }

    #[test]
    fn audit_localizes_divergences() {
        let a = parse_audit_chain(&audit_chain_csv(&[
            observed_cell("alpha", 1),
            observed_cell("beta", 2),
        ]))
        .unwrap();
        // Same alpha, different beta events → divergence lands in beta.
        let b = parse_audit_chain(&audit_chain_csv(&[
            observed_cell("alpha", 1),
            observed_cell("beta", 9),
        ]))
        .unwrap();
        let report = compare_audit_chains(&a, &b);
        let div = report.divergence.expect("diverges");
        assert_eq!(div.cell, "beta");
        assert_eq!(div.minute, 0, "chain splits at the first minute");

        // A missing cell is a divergence too.
        let mut only_alpha = a.clone();
        only_alpha.remove("beta");
        let report = compare_audit_chains(&only_alpha, &a);
        assert_eq!(report.divergence.expect("missing cell").cell, "beta");

        // Truncated seal list: first extra minute is named.
        let mut truncated = a.clone();
        truncated.get_mut("alpha").unwrap().truncate(2);
        let report = compare_audit_chains(&truncated, &a);
        let div = report.divergence.expect("length mismatch");
        assert_eq!((div.cell.as_str(), div.minute), ("alpha", 2));
    }

    #[test]
    fn metrics_prom_families_conform() {
        let prom = metrics_prom(&[observed_cell("alpha", 1), observed_cell("beta", 2)]);
        let mut help: std::collections::BTreeSet<&str> = Default::default();
        let mut typed: std::collections::BTreeSet<&str> = Default::default();
        for line in prom.lines() {
            if let Some(rest) = line.strip_prefix("# HELP ") {
                let name = rest.split(' ').next().unwrap();
                assert!(help.insert(name), "duplicate HELP for {name}");
                assert!(
                    rest.len() > name.len() + 1,
                    "HELP for {name} has no help text"
                );
            } else if let Some(rest) = line.strip_prefix("# TYPE ") {
                let mut it = rest.split(' ');
                let name = it.next().unwrap();
                let kind = it.next().unwrap_or("");
                assert!(typed.insert(name), "duplicate TYPE for {name}");
                assert!(
                    matches!(kind, "counter" | "gauge"),
                    "bad TYPE {kind:?} for {name}"
                );
                assert!(
                    help.contains(name),
                    "TYPE for {name} not preceded by its HELP"
                );
            } else if !line.is_empty() {
                let family = line
                    .split(['{', ' '])
                    .next()
                    .expect("sample line has a family name");
                assert!(
                    typed.contains(family),
                    "sample for {family} before its TYPE line: {line}"
                );
            }
        }
        assert_eq!(help, typed, "every family has both HELP and TYPE");
        assert!(typed.contains("kad_trace_exemplars"));
        assert!(prom.contains("kad_trace_exemplars{cell=\"alpha\",phase=\"attack\"} 1"));
    }

    #[test]
    fn traces_json_renders_exemplars_as_chrome_events() {
        let json = render_traces_json(&[observed_cell("alpha", 1)]);
        // Structure: one process, one thread, queue + lookup + 2 RPC spans.
        assert!(json.starts_with("{\n  \"displayTimeUnit\": \"ms\","));
        assert!(json.contains("\"traceEvents\": ["));
        assert!(json.contains("\"args\": {\"name\": \"alpha\"}"));
        assert!(json.contains("\"name\": \"attack lookup 1 (640 ms)\""));
        assert_eq!(json.matches("\"ph\": \"X\"").count(), 4);
        // Microsecond timestamps: the queue span starts at started−wait.
        assert!(json.contains("\"name\": \"queue-wait\""));
        assert!(json.contains(&format!("\"ts\": {}, \"dur\": 100000", 60_000_000)));
        // The timeout RPC is marked compromised and on the critical path.
        assert!(
            json.contains("\"outcome\": \"timeout\", \"compromised\": true, \"critical\": true")
        );
        assert!(json.contains("\"caused_by\": 1"));
        // Valid JSON by the crude but effective balance check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // A cell with no exemplars contributes nothing.
        let mut bare = observed_cell("bare", 3);
        bare.exemplars.clear();
        assert!(!render_traces_json(&[bare]).contains("bare"));
    }

    #[test]
    fn attribution_csv_rows_conserve() {
        let csv = latency_attribution_csv(&[observed_cell("alpha", 1), observed_cell("beta", 2)]);
        let mut lines = csv.lines();
        let header = lines.next().unwrap();
        assert_eq!(
            header,
            "cell,phase,lookup_id,purpose,outcome,started_ms,completed_ms,spans,timeouts,\
             critical_len,queue_ms,rtt_ms,rtt_compromised_ms,timeout_ms,timeout_compromised_ms,\
             total_ms"
        );
        let mut rows = 0;
        for line in lines.filter(|l| !l.is_empty()) {
            rows += 1;
            let f: Vec<&str> = line.split(',').collect();
            assert_eq!(f.len(), 16);
            let get = |i: usize| f[i].parse::<u64>().unwrap();
            let (queue, rtt, timeout, total) = (get(10), get(11), get(13), get(15));
            assert_eq!(queue + rtt + timeout, total, "conservation on {line}");
            assert_eq!((queue, rtt, timeout), (100, 40, 500));
            // Compromised shares never exceed their categories.
            assert!(get(12) <= rtt && get(14) <= timeout);
            assert_eq!(get(14), 500, "the timeout burned on a compromised node");
        }
        assert_eq!(rows, 2, "one row per exemplar");
    }

    #[test]
    fn parse_rejects_malformed_chains() {
        assert!(parse_audit_chain("").is_err());
        assert!(parse_audit_chain("wrong,header\n").is_err());
        assert!(parse_audit_chain("cell,minute,events,chain\nx,notanumber,0,00\n").is_err());
        assert!(
            parse_audit_chain("cell,minute,events,chain\nx,0,0\n").is_err(),
            "short row"
        );
        assert!(parse_audit_chain("cell,minute,events,chain\nx,0,0,zz zz\n").is_err());
    }
}
