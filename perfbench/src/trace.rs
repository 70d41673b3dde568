//! Benchmark-side spans. A span is recorded around each call into a
//! layer: its name, start, end, the span that was open on the same thread
//! when it started (its parent), and the request or job it belongs to.
//! Spans are kept in memory and written out once, when the run ends.
//!
//! Recording is off unless [`set_enabled`] turns it on, and then a
//! [`span`] guard costs one atomic load.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's first span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run, starting at 1.
    pub id: u64,
    /// The layer call, e.g. `vfs.write`.
    pub name: &'static str,
    /// Start, in ns since the trace epoch.
    pub start_ns: u64,
    /// End, in ns since the trace epoch.
    pub end_ns: u64,
    /// The enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// The request or job this span serves (0 when none).
    pub request: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    static REQUEST: Cell<u64> = const { Cell::new(0) };
}

fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Turns span recording on or off for every thread.
pub fn set_enabled(on: bool) {
    now_ns();
    ENABLED.store(on, Ordering::SeqCst);
}

/// Whether spans are being recorded.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Tags spans opened from now on, on this thread, with `request`.
pub fn set_request(request: u64) {
    REQUEST.with(|r| r.set(request));
}

/// An open span; recorded when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    open: Option<(u64, &'static str, u64, Option<u64>)>,
}

/// Opens a span named `name` on this thread.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|open| {
        let mut open = open.borrow_mut();
        let parent = open.last().copied();
        open.push(id);
        parent
    });
    Guard {
        open: Some((id, name, now_ns(), parent)),
    }
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some((id, name, start_ns, parent)) = self.open.take() else {
            return;
        };
        let end_ns = now_ns();
        OPEN.with(|open| {
            let mut open = open.borrow_mut();
            if let Some(at) = open.iter().rposition(|&o| o == id) {
                open.remove(at);
            }
        });
        let span = Span {
            id,
            name,
            start_ns,
            end_ns,
            parent,
            request: REQUEST.with(Cell::get),
        };
        SPANS.lock().unwrap_or_else(|e| e.into_inner()).push(span);
    }
}

/// Every span recorded so far, ordered by id.
pub fn recorded() -> Vec<Span> {
    let mut spans = SPANS.lock().unwrap_or_else(|e| e.into_inner()).clone();
    spans.sort_by_key(|s| s.id);
    spans
}

/// Self time per span name, in nanoseconds: each span's duration minus
/// the part of it that its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            children
                .entry(parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut totals = BTreeMap::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
        }
        *totals.entry(s.name).or_insert(0) += s.duration_ns() - covered;
    }
    totals
}

/// The summed self time, in milliseconds, of the span names starting
/// with `prefix` (a full name selects just that name).
pub fn self_ms(selfs: &BTreeMap<&'static str, u64>, prefix: &str) -> f64 {
    let ns: u64 = selfs
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, ns)| ns)
        .sum();
    ns as f64 / 1e6
}

/// The summed duration, in milliseconds, of the spans named `name`.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    let ns: u64 = spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum();
    ns as f64 / 1e6
}

/// The durations, in milliseconds, of every span named `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Renders spans as JSON lines, one object per span.
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, parent, s.request
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &'static str, start: u64, end: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, "op", 0, 100, None),
            span(2, "io", 10, 30, Some(1)),
            // Overlaps the first child: only 30..40 is new coverage.
            span(3, "io", 20, 40, Some(1)),
            span(4, "io", 90, 120, Some(1)),
        ];
        let times = self_times(&spans);
        assert_eq!(times["op"], 100 - 30 - 10);
        assert_eq!(times["io"], 20 + 20 + 30);
    }
}
