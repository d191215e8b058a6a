//! Per-layer attribution of a traced run: every span's self time (its
//! duration minus the part its child spans cover), summed by layer,
//! and the share of the traced wall during which some layer call was
//! in progress.
//!
//! The layers are the crates the spans wrap: `runner`, `graph`,
//! `core`, `store`. The program's own `trial/validate` span (the
//! validators of `bichrome-graph`, called inside `Protocol::run`)
//! counts under `graph`.

use bichrome_obs::SpanEvent;
use std::collections::{BTreeMap, HashMap};

/// The traced run's root span: the traced wall. Its self time is the
/// calling thread waiting on the parallel queue, not a layer.
pub const ROOT: &str = "bench/traced-run";

/// Self time and span count per layer, and the wall they cover.
#[derive(Debug, Default, Clone)]
pub struct Attribution {
    /// Layer → (self seconds summed over threads, spans).
    pub layers: BTreeMap<&'static str, (f64, u64)>,
    /// The root span's duration.
    pub wall_s: f64,
    /// Seconds of the root span during which at least one layer span
    /// was open on some thread.
    pub covered_s: f64,
}

impl Attribution {
    /// Share of the traced wall covered by layer spans.
    pub fn coverage(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.covered_s / self.wall_s
        } else {
            0.0
        }
    }

    /// Self seconds of `layer` (0 when it recorded no span).
    pub fn self_s(&self, layer: &str) -> f64 {
        self.layers.get(layer).map_or(0.0, |(s, _)| *s)
    }
}

fn layer_of(name: &str) -> &'static str {
    match name.split('/').next() {
        Some("runner") => "runner",
        Some("graph") | Some("trial") => "graph",
        Some("core") => "core",
        Some("store") => "store",
        _ => "other",
    }
}

/// Attributes the spans of one traced run (which must contain one
/// [`ROOT`] span) to layers.
pub fn attribute(events: &[SpanEvent]) -> Attribution {
    let mut out = Attribution::default();
    let mut by_tid: HashMap<u64, Vec<&SpanEvent>> = HashMap::new();
    for e in events {
        by_tid.entry(e.tid).or_default().push(e);
    }
    for spans in by_tid.values_mut() {
        spans.sort_by_key(|e| (e.ts_us, e.depth));
        // Direct-children durations per span, found with a depth stack.
        let mut child_us = vec![0u64; spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for (i, e) in spans.iter().enumerate() {
            while stack.last().is_some_and(|&top| spans[top].depth >= e.depth) {
                stack.pop();
            }
            if let Some(&parent) = stack.last() {
                child_us[parent] += e.dur_us;
            }
            stack.push(i);
        }
        for (e, child) in spans.iter().zip(&child_us) {
            if e.name == ROOT {
                out.wall_s = e.dur_us as f64 / 1e6;
            } else {
                let slot = out.layers.entry(layer_of(e.name)).or_default();
                slot.0 += e.dur_us.saturating_sub(*child) as f64 / 1e6;
                slot.1 += 1;
            }
        }
    }
    // The union of every layer span's interval, over all threads.
    let mut intervals: Vec<(u64, u64)> = events
        .iter()
        .filter(|e| e.name != ROOT)
        .map(|e| (e.ts_us, e.ts_us + e.dur_us))
        .collect();
    intervals.sort_unstable();
    let mut covered_us = 0;
    let mut open: Option<(u64, u64)> = None;
    for (start, end) in intervals {
        match open {
            Some((s, e)) if start <= e => open = Some((s, e.max(end))),
            _ => {
                covered_us += open.map_or(0, |(s, e)| e - s);
                open = Some((start, end));
            }
        }
    }
    covered_us += open.map_or(0, |(s, e)| e - s);
    out.covered_s = covered_us as f64 / 1e6;
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, tid: u64, ts_us: u64, dur_us: u64, depth: u32) -> SpanEvent {
        SpanEvent {
            name,
            tid,
            ts_us,
            dur_us,
            depth,
            tag: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_and_coverage_unions_threads() {
        let events = [
            ev(ROOT, 1, 0, 100, 0),
            ev("runner/prepare", 1, 0, 10, 1),
            ev("runner/trial", 2, 10, 50, 0),
            ev("core/run/x", 2, 15, 40, 1),
            ev("trial/validate", 2, 40, 10, 2),
            ev("runner/trial", 3, 20, 60, 0),
            ev("graph/build", 3, 20, 30, 1),
        ];
        let a = attribute(&events);
        assert!((a.self_s("core") - 30e-6).abs() < 1e-12);
        assert!((a.self_s("graph") - 40e-6).abs() < 1e-12);
        assert!((a.self_s("runner") - (10e-6 + 10e-6 + 30e-6)).abs() < 1e-12);
        assert!((a.wall_s - 100e-6).abs() < 1e-12);
        // Layers are busy over [0, 80): 80% of the traced wall.
        assert!((a.coverage() - 0.8).abs() < 1e-9);
    }
}
