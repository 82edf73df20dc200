//! In-memory span recorder for the traced runs.
//!
//! Spans are opened by the benchmark's own code around its calls into
//! each layer's public functions (`let _g = span("ir.encode");`), nest by
//! lexical scope, and stay in memory until the run ends; nothing inside
//! the program under test is instrumented. While tracing is off,
//! [`span`] is one thread-local flag test and records nothing.
//!
//! A span's *self time* is its duration minus the time its direct
//! children cover. Self times of every span under a root add up to the
//! root's duration exactly, so the root's own self time is the part of a
//! pass no layer accounts for.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One finished (or still open) span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

struct Recorder {
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<usize>,
}

thread_local! {
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Turns span recording on or off for the calling thread.
pub fn set_enabled(on: bool) {
    ENABLED.with(|e| e.set(on));
    RECORDER.with(|r| {
        r.borrow_mut().get_or_insert_with(|| Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        });
    });
}

/// Whether spans are being recorded on this thread.
pub fn enabled() -> bool {
    ENABLED.with(Cell::get)
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard {
    index: Option<usize>,
}

/// Opens a span named `name` as a child of the innermost open span.
pub fn span(name: &'static str) -> Guard {
    if !enabled() {
        return Guard { index: None };
    }
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        let r = r.as_mut().expect("set_enabled created the recorder");
        let index = r.spans.len();
        let start_ns = r.origin.elapsed().as_nanos() as u64;
        let parent = r.open.last().copied();
        r.spans.push(SpanRec {
            name,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        r.open.push(index);
        Guard { index: Some(index) }
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.index else { return };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            let Some(r) = r.as_mut() else { return };
            r.spans[index].end_ns = r.origin.elapsed().as_nanos() as u64;
            // Guards drop in reverse open order; tolerate anything else by
            // closing everything above this span too.
            while let Some(top) = r.open.pop() {
                if top == index {
                    break;
                }
            }
        });
    }
}

/// Every span recorded on this thread so far (recording continues).
pub fn snapshot() -> Vec<SpanRec> {
    RECORDER.with(|r| {
        r.borrow()
            .as_ref()
            .map(|r| r.spans.clone())
            .unwrap_or_default()
    })
}

/// Spans recorded on this thread from index `from` on.
pub fn since(from: usize) -> Vec<SpanRec> {
    let all = snapshot();
    all.get(from..).map(<[SpanRec]>::to_vec).unwrap_or_default()
}

/// How many spans this thread has recorded.
pub fn count() -> usize {
    RECORDER.with(|r| r.borrow().as_ref().map_or(0, |r| r.spans.len()))
}

/// Per-name totals over a set of spans: self seconds, wall seconds and
/// span count.
#[derive(Debug, Default, Clone)]
pub struct Ledger {
    pub self_s: BTreeMap<&'static str, f64>,
    pub wall_s: BTreeMap<&'static str, f64>,
    pub count: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Builds the ledger of `spans`, whose parent indices are relative to
    /// the full recording starting at index `base`.
    pub fn of(spans: &[SpanRec], base: usize) -> Ledger {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if let Some(p) = s.parent.and_then(|p| p.checked_sub(base)) {
                if p < spans.len() {
                    child_ns[p] += s.end_ns - s.start_ns;
                }
            }
        }
        let mut ledger = Ledger::default();
        for (s, children) in spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            *ledger.self_s.entry(s.name).or_default() += dur.saturating_sub(children) as f64 / 1e9;
            *ledger.wall_s.entry(s.name).or_default() += dur as f64 / 1e9;
            *ledger.count.entry(s.name).or_default() += 1;
        }
        ledger
    }

    /// Total self seconds of spans named `name` (0 if none).
    pub fn self_of(&self, name: &str) -> f64 {
        self.self_s.get(name).copied().unwrap_or(0.0)
    }

    /// Total wall seconds of spans named `name` (0 if none).
    pub fn wall_of(&self, name: &str) -> f64 {
        self.wall_s.get(name).copied().unwrap_or(0.0)
    }

    /// Number of spans named `name`.
    pub fn count_of(&self, name: &str) -> u64 {
        self.count.get(name).copied().unwrap_or(0)
    }

    /// The self-time table, largest first, as text lines.
    pub fn table(&self) -> String {
        let mut rows: Vec<_> = self.self_s.iter().collect();
        rows.sort_by(|a, b| b.1.partial_cmp(a.1).expect("times are not NaN"));
        let mut out = String::new();
        for (name, s) in rows {
            let _ = writeln!(
                out,
                "  {name:<28} self {s:>10.4} s  wall {:>10.4} s  spans {}",
                self.wall_of(name),
                self.count_of(name)
            );
        }
        out
    }
}

/// Renders spans as a Chrome trace-event JSON array (open it in Perfetto
/// or `chrome://tracing`), one complete (`"ph":"X"`) event per span.
pub fn chrome_json(spans: &[SpanRec]) -> String {
    let events: Vec<String> = spans
        .iter()
        .map(|s| {
            format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
            )
        })
        .collect();
    format!("[\n{}\n]\n", events.join(",\n"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_add_up_to_the_root() {
        set_enabled(true);
        let base = count();
        {
            let _root = span("root");
            {
                let _a = span("a");
                std::thread::sleep(std::time::Duration::from_millis(3));
                let _b = span("b");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            let _c = span("c");
        }
        set_enabled(false);
        let spans = since(base);
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(base));
        assert_eq!(spans[2].parent, Some(base + 1));
        let ledger = Ledger::of(&spans, base);
        let sum: f64 = ledger.self_s.values().sum();
        assert!((sum - ledger.wall_of("root")).abs() < 1e-9);
        assert!(ledger.self_of("a") >= 0.003 && ledger.self_of("b") >= 0.002);
        assert!(chrome_json(&spans).contains("\"name\":\"b\""));
    }

    #[test]
    fn disabled_spans_record_nothing() {
        set_enabled(false);
        let before = count();
        drop(span("x"));
        assert_eq!(count(), before);
    }
}
