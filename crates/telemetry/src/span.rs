//! Hierarchical span profiler: where does the simulated minute go?
//!
//! The scale-leap and sharding items on the roadmap both start with the
//! same question — how much of a grid cell's wall-time is actor logic,
//! how much is the event kernel, how much is the κ engine — and the
//! existing instruments (histograms, series, counters) only count
//! *simulated* quantities. This module measures the host clock:
//!
//! * **Guard-based spans.** [`span("label")`](span) returns a
//!   [`SpanTimer`]; dropping it (normal exit, early `return`, or a panic
//!   unwinding through the scope) records the elapsed wall-time. Spans
//!   nest: while a timer is live, further spans record under a
//!   slash-joined label path (`"cell/session/on-minute/attacker"`), so
//!   the aggregate is a tree keyed by static labels.
//! * **Self vs total time.** Each path accumulates call count, *total*
//!   nanoseconds (its whole extent) and *self* nanoseconds (total minus
//!   the time spent in child spans) — the two columns a flame-graph-style
//!   table needs.
//! * **Opt-in and cheap when off.** Recording only happens after
//!   [`install`] on the *current thread*; without it a [`span`] call is
//!   one thread-local `Option` discriminant check, the same contract as
//!   the network's telemetry sink. Grid workers install one profile per
//!   cell, and each cell reports its own profile.
//!
//! Wall-clock numbers are **non-deterministic by nature** and therefore
//! live only in observe artifacts (`profile.csv`), never in golden CSVs.
//!
//! # Example
//!
//! ```
//! use kad_telemetry::span::{self, SpanProfile};
//!
//! span::install();
//! {
//!     let _cell = span::span("cell");
//!     let _inner = span::span("solve");
//! } // guards drop here, recording "cell" and "cell/solve"
//! let profile: SpanProfile = span::take().expect("installed above");
//! assert_eq!(profile.get("cell").unwrap().calls, 1);
//! assert_eq!(profile.get("cell/solve").unwrap().calls, 1);
//! ```

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

/// Aggregated statistics of one span label path.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SpanStats {
    /// Times a span with this path was closed.
    pub calls: u64,
    /// Total wall nanoseconds across all calls (children included).
    pub total_ns: u64,
    /// Wall nanoseconds not attributed to any child span.
    pub self_ns: u64,
}

impl SpanStats {
    fn accumulate(&mut self, total_ns: u64, self_ns: u64) {
        self.calls += 1;
        self.total_ns += total_ns;
        self.self_ns += self_ns;
    }
}

/// Aggregation of closed spans keyed by slash-joined label path (see
/// module docs). Deterministic iteration order (`BTreeMap`).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SpanProfile {
    spans: BTreeMap<String, SpanStats>,
}

impl SpanProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        SpanProfile::default()
    }

    /// Statistics of `path`, if any span closed there.
    pub fn get(&self, path: &str) -> Option<&SpanStats> {
        self.spans.get(path)
    }

    /// Number of distinct label paths observed.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Iterates `(path, stats)` in path order (deterministic).
    pub fn iter(&self) -> impl Iterator<Item = (&str, &SpanStats)> + '_ {
        self.spans.iter().map(|(p, s)| (p.as_str(), s))
    }

    /// Sum of `self_ns` over every path: all attributed wall-time, each
    /// nanosecond counted exactly once regardless of nesting depth.
    pub fn attributed_ns(&self) -> u64 {
        self.spans.values().map(|s| s.self_ns).sum()
    }

    /// Sum of `total_ns` over the root paths (no `/`): the profile's
    /// whole covered extent, the denominator-side of the "≥ 95 % of cell
    /// wall-time attributed" acceptance check.
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|(p, _)| !p.contains('/'))
            .map(|(_, s)| s.total_ns)
            .sum()
    }
}

/// One open span on the collector's stack.
struct Frame {
    start: Instant,
    /// Nanoseconds already attributed to closed children of this frame.
    child_ns: u64,
    /// Index of this span's [`Slot`] in the collector's arena.
    slot: usize,
}

/// One discovered span path: the slash-joined path (built once, the
/// first time the `(parent, label)` pair opens) and its running stats.
struct Slot {
    path: String,
    stats: SpanStats,
}

/// The per-thread collector. Hot spans close tens of thousands of times
/// per cell (the lookup dispatcher), so the close path must not allocate
/// or walk a string-keyed tree: paths live in a slot arena, the
/// `(parent slot, label address)` memo resolves a re-opened span to its
/// slot with one hash lookup, and closing is a stack pop plus an indexed
/// accumulate. [`take`] folds the arena into the public [`SpanProfile`].
struct Collector {
    slots: Vec<Slot>,
    /// `(parent slot or usize::MAX for roots, label data pointer)` →
    /// slot index. Keying on the `&'static str` address is sound (a
    /// given address always means the same label); two call sites whose
    /// equal literals were *not* pooled just fill two slots with the
    /// same path, which the fold in [`take`] merges losslessly.
    index: HashMap<(usize, *const u8), usize>,
    /// Last `(key, slot)` resolved: a hot span (the lookup dispatcher
    /// closes tens of thousands of times under one parent) re-opens with
    /// an identical key, so this one-entry cache short-circuits the hash
    /// lookup on almost every open.
    last: Option<((usize, *const u8), usize)>,
    stack: Vec<Frame>,
}

thread_local! {
    static COLLECTOR: RefCell<Option<Collector>> = const { RefCell::new(None) };
}

/// Installs a fresh profile on the current thread: every [`span`] guard
/// dropped from now on records into it, until [`take`] removes it.
/// Replaces (and discards) any previously installed profile.
pub fn install() {
    COLLECTOR.with(|slot| {
        *slot.borrow_mut() = Some(Collector {
            slots: Vec::new(),
            index: HashMap::new(),
            last: None,
            stack: Vec::new(),
        });
    });
}

/// Removes and returns the current thread's profile (`None` when
/// [`install`] was never called or the profile was already taken). Spans
/// still open lose their timings — take after the root guard dropped.
pub fn take() -> Option<SpanProfile> {
    COLLECTOR.with(|slot| {
        slot.borrow_mut().take().map(|c| {
            let mut profile = SpanProfile::new();
            for slot in c.slots {
                // A slot whose span never closed (still open at take)
                // has zero calls and no timing to report.
                if slot.stats.calls == 0 {
                    continue;
                }
                let entry = profile.spans.entry(slot.path).or_default();
                entry.calls += slot.stats.calls;
                entry.total_ns += slot.stats.total_ns;
                entry.self_ns += slot.stats.self_ns;
            }
            profile
        })
    })
}

/// Whether a profile is installed on the current thread.
pub fn is_installed() -> bool {
    COLLECTOR.with(|slot| slot.borrow().is_some())
}

/// Opens a span. With no profile installed this is one thread-local
/// `Option` check and the returned guard is inert; with one installed,
/// dropping the guard records the elapsed wall-time under the nesting
/// path (see module docs).
#[must_use = "the span measures until the returned guard drops"]
pub fn span(label: &'static str) -> SpanTimer {
    let armed = COLLECTOR.with(|slot| {
        let mut slot = slot.borrow_mut();
        let Some(collector) = slot.as_mut() else {
            return false;
        };
        let parent = collector.stack.last().map_or(usize::MAX, |f| f.slot);
        let key = (parent, label.as_ptr());
        let slot_index = match collector.last {
            Some((last_key, index)) if last_key == key => index,
            _ => match collector.index.get(&key) {
                Some(&index) => index,
                None => {
                    // First time this (parent, label) pair opens: build
                    // the slash-joined path once; every later open hits
                    // the cache or hash lookup above.
                    let path = match collector.slots.get(parent) {
                        Some(parent_slot) => format!("{}/{label}", parent_slot.path),
                        None => label.to_string(),
                    };
                    let index = collector.slots.len();
                    collector.slots.push(Slot {
                        path,
                        stats: SpanStats::default(),
                    });
                    collector.index.insert(key, index);
                    index
                }
            },
        };
        collector.last = Some((key, slot_index));
        collector.stack.push(Frame {
            start: Instant::now(),
            child_ns: 0,
            slot: slot_index,
        });
        true
    });
    SpanTimer { armed }
}

/// Guard returned by [`span`]: records on drop (RAII, so early returns
/// and unwinding panics both close the span).
#[must_use = "the span measures until this guard drops"]
pub struct SpanTimer {
    armed: bool,
}

impl Drop for SpanTimer {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        COLLECTOR.with(|slot| {
            let mut slot = slot.borrow_mut();
            // `take` may have run while this guard was open (the guard
            // outlived the profile): nothing left to record into.
            let Some(collector) = slot.as_mut() else {
                return;
            };
            let Some(frame) = collector.stack.pop() else {
                return;
            };
            let total_ns = u64::try_from(frame.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let self_ns = total_ns.saturating_sub(frame.child_ns);
            collector.slots[frame.slot]
                .stats
                .accumulate(total_ns, self_ns);
            // Bill this span's extent against the parent's self-time.
            if let Some(parent) = collector.stack.last_mut() {
                parent.child_ns += total_ns;
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Everything here touches the same thread-local collector, so the
    /// tests run serially on their own threads to stay independent of
    /// the test harness's thread reuse.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread"))
    }

    #[test]
    fn uninstalled_span_is_inert() {
        on_fresh_thread(|| {
            assert!(!is_installed());
            let guard = span("never-recorded");
            drop(guard);
            assert!(take().is_none(), "nothing was installed");
        });
    }

    #[test]
    fn nested_spans_build_label_paths() {
        on_fresh_thread(|| {
            install();
            assert!(is_installed());
            {
                let _outer = span("outer");
                {
                    let _inner = span("inner");
                    let _leaf = span("leaf");
                }
                let _second = span("inner");
            }
            {
                let _root = span("second-root");
            }
            let profile = take().expect("installed");
            assert!(!is_installed(), "take removes the profile");
            assert_eq!(profile.get("outer").unwrap().calls, 1);
            assert_eq!(profile.get("outer/inner").unwrap().calls, 2);
            assert_eq!(profile.get("outer/inner/leaf").unwrap().calls, 1);
            assert_eq!(profile.get("second-root").unwrap().calls, 1);
            assert_eq!(profile.len(), 4);
            // Every nanosecond of both roots is attributed exactly once.
            assert_eq!(
                profile.root_total_ns(),
                profile.get("outer").unwrap().total_ns
                    + profile.get("second-root").unwrap().total_ns
            );
            assert_eq!(profile.attributed_ns(), profile.root_total_ns());
        });
    }

    #[test]
    fn self_time_excludes_children() {
        on_fresh_thread(|| {
            install();
            {
                let _outer = span("outer");
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(5));
            }
            let profile = take().expect("installed");
            let outer = profile.get("outer").unwrap();
            let inner = profile.get("outer/inner").unwrap();
            assert!(inner.total_ns >= 5_000_000, "sleep measured");
            assert!(outer.total_ns >= inner.total_ns, "outer spans inner");
            assert_eq!(
                outer.self_ns,
                outer.total_ns - inner.total_ns,
                "outer's self-time excludes the child's extent"
            );
            assert_eq!(
                profile.attributed_ns(),
                outer.total_ns,
                "every nanosecond counted exactly once"
            );
            assert_eq!(profile.root_total_ns(), outer.total_ns);
        });
    }

    #[test]
    fn early_return_still_records() {
        fn may_bail(bail: bool) -> u32 {
            let _guard = span("bails");
            if bail {
                return 1;
            }
            2
        }
        on_fresh_thread(|| {
            install();
            assert_eq!(may_bail(true), 1);
            assert_eq!(may_bail(false), 2);
            let profile = take().expect("installed");
            assert_eq!(profile.get("bails").unwrap().calls, 2);
        });
    }

    #[test]
    fn panic_unwind_closes_the_span() {
        on_fresh_thread(|| {
            install();
            let caught = std::panic::catch_unwind(|| {
                let _guard = span("doomed");
                panic!("boom");
            });
            assert!(caught.is_err());
            let profile = take().expect("installed");
            assert_eq!(
                profile.get("doomed").unwrap().calls,
                1,
                "unwinding dropped the guard and recorded the span"
            );
        });
    }

    #[test]
    fn guard_outliving_the_profile_is_harmless() {
        on_fresh_thread(|| {
            install();
            let guard = span("orphan");
            let profile = take().expect("installed");
            assert!(profile.is_empty(), "span still open when taken");
            drop(guard); // must not panic or resurrect a collector
            assert!(!is_installed());
        });
    }
}
