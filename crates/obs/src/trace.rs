//! Lightweight span tracing: wall-time intervals recorded from
//! thread-local span stacks into one bounded process-wide ring
//! buffer, exportable as Chrome `trace_event` JSON.
//!
//! Tracing is **off by default** and gated by one atomic: a disabled
//! [`span`] call is a single relaxed load and the returned guard does
//! nothing on drop, so instrumentation can stay in place on the trial
//! hot path permanently.

use std::cell::Cell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Ring-buffer capacity: completed spans beyond this evict the oldest
/// (a trace stays bounded however long the process runs).
const RING_CAPACITY: usize = 65_536;

static TRACING: AtomicBool = AtomicBool::new(false);

/// The process epoch all span timestamps are relative to (first use).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn ring() -> &'static Mutex<VecDeque<SpanEvent>> {
    static RING: OnceLock<Mutex<VecDeque<SpanEvent>>> = OnceLock::new();
    RING.get_or_init(|| Mutex::new(VecDeque::with_capacity(RING_CAPACITY)))
}

// Small dense thread ids for trace rows: `std::thread::ThreadId` has
// no stable numeric form, so threads take a counter ticket on first
// span. Each thread also keeps its span-stack depth so nesting
// survives into the exported events.
static NEXT_TID: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// Turns span recording on or off (process-wide). Off is the default;
/// metrics counters and histograms are unaffected either way.
pub fn set_tracing(enabled: bool) {
    TRACING.store(enabled, Ordering::Relaxed);
}

/// Whether span recording is currently enabled.
pub fn tracing_enabled() -> bool {
    TRACING.load(Ordering::Relaxed)
}

/// One completed span, as stored in the ring buffer.
#[derive(Debug, Clone)]
pub struct SpanEvent {
    /// The span name (a static label like `"trial/execute"`).
    pub name: &'static str,
    /// Dense per-thread id (assigned on the thread's first span).
    pub tid: u64,
    /// Start time in microseconds since the process trace epoch.
    pub ts_us: u64,
    /// Wall-time duration in microseconds.
    pub dur_us: u64,
    /// Span-stack depth on its thread when it started (0 = top level).
    pub depth: u32,
    /// Optional numeric tag, e.g. `("threads", 4)`.
    pub tag: Option<(&'static str, u64)>,
}

/// RAII guard from [`span`]: records the completed span into the ring
/// buffer when dropped. Inert (and cost-free) when tracing is off.
#[must_use = "the span ends when the returned guard is dropped"]
pub struct SpanGuard {
    active: Option<ActiveSpan>,
}

struct ActiveSpan {
    name: &'static str,
    tag: Option<(&'static str, u64)>,
    tid: u64,
    depth: u32,
    ts_us: u64,
    started: Instant,
}

/// Opens a named span covering the guard's lifetime. When tracing is
/// disabled this is one atomic load and the guard is empty.
pub fn span(name: &'static str) -> SpanGuard {
    span_impl(name, None)
}

/// [`span`] with one numeric tag attached (rendered into the Chrome
/// trace's `args`), e.g. a batch size.
pub fn span_tagged(name: &'static str, key: &'static str, value: u64) -> SpanGuard {
    span_impl(name, Some((key, value)))
}

fn span_impl(name: &'static str, tag: Option<(&'static str, u64)>) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard { active: None };
    }
    let tid = TID.with(|t| *t);
    let depth = DEPTH.with(|d| {
        let depth = d.get();
        d.set(depth + 1);
        depth
    });
    SpanGuard {
        active: Some(ActiveSpan {
            name,
            tag,
            tid,
            depth,
            ts_us: epoch().elapsed().as_micros() as u64,
            started: Instant::now(),
        }),
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(active) = self.active.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let event = SpanEvent {
            name: active.name,
            tid: active.tid,
            ts_us: active.ts_us,
            dur_us: active.started.elapsed().as_micros() as u64,
            depth: active.depth,
            tag: active.tag,
        };
        let mut ring = ring().lock().unwrap_or_else(|p| p.into_inner());
        if ring.len() == RING_CAPACITY {
            ring.pop_front();
        }
        ring.push_back(event);
    }
}

/// A snapshot of every span currently in the ring buffer, oldest
/// first (the buffer is not drained).
pub fn span_events() -> Vec<SpanEvent> {
    ring()
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .iter()
        .cloned()
        .collect()
}

/// Empties the span ring buffer.
pub fn clear_spans() {
    ring().lock().unwrap_or_else(|p| p.into_inner()).clear();
}

/// Exports the ring buffer as Chrome `trace_event` JSON — an object
/// with a `traceEvents` array of complete (`"ph":"X"`) events, one
/// per recorded span, timestamps in microseconds since the process
/// trace epoch. Load the file at `chrome://tracing` or
/// <https://ui.perfetto.dev>. The buffer is left intact.
pub fn export_chrome_trace() -> String {
    use std::fmt::Write as _;
    let events = span_events();
    let mut out = String::from("{\"traceEvents\":[");
    for (i, e) in events.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write!(
            out,
            "{{\"name\":\"{}\",\"cat\":\"bichrome\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
             \"ts\":{},\"dur\":{},\"args\":{{\"depth\":{}",
            escape(e.name),
            e.tid,
            e.ts_us,
            e.dur_us,
            e.depth
        )
        .expect("string write");
        if let Some((k, v)) = e.tag {
            write!(out, ",\"{}\":{v}", escape(k)).expect("string write");
        }
        out.push_str("}}");
    }
    out.push_str("],\"displayTimeUnit\":\"ms\"}");
    out
}

/// Escapes a JSON string value (span names are static identifiers;
/// the escape covers the general case anyway).
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_spans_record_nothing() {
        set_tracing(false);
        let before = span_events().len();
        {
            let _s = span("test_trace/disabled");
        }
        assert_eq!(span_events().len(), before);
        assert!(!span_events()
            .iter()
            .any(|e| e.name == "test_trace/disabled"));
    }

    #[test]
    fn enabled_spans_record_name_tag_and_nesting() {
        set_tracing(true);
        {
            let _outer = span_tagged("test_trace/outer", "threads", 4);
            std::thread::sleep(std::time::Duration::from_millis(1));
            {
                let _inner = span("test_trace/inner");
            }
        }
        set_tracing(false);
        let events = span_events();
        let outer = events
            .iter()
            .find(|e| e.name == "test_trace/outer")
            .expect("outer span recorded");
        let inner = events
            .iter()
            .find(|e| e.name == "test_trace/inner")
            .expect("inner span recorded");
        assert_eq!(outer.tag, Some(("threads", 4)));
        assert!(outer.dur_us >= 1_000, "covers the 1ms sleep");
        assert_eq!(inner.depth, outer.depth + 1, "nesting is recorded");
        assert_eq!(inner.tid, outer.tid, "same thread, same trace row");
        // Inner completes first: ring order is completion order.
        let outer_at = events.iter().position(|e| e.name == "test_trace/outer");
        let inner_at = events.iter().position(|e| e.name == "test_trace/inner");
        assert!(inner_at < outer_at);
    }

    #[test]
    fn chrome_export_is_loadable_shape() {
        set_tracing(true);
        {
            let _s = span_tagged("test_trace/export", "threads", 2);
        }
        set_tracing(false);
        let json = export_chrome_trace();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("\"displayTimeUnit\":\"ms\"}"));
        assert!(json.contains("\"name\":\"test_trace/export\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"threads\":2"));
        // Export does not drain: a second export still sees the span.
        assert!(export_chrome_trace().contains("test_trace/export"));
    }
}
