//! Unified observability for the bichrome workspace: a process-wide
//! metrics registry plus lightweight span tracing, both deliberately
//! inert with respect to experiment results.
//!
//! # The two halves
//!
//! **Metrics** ([`counter`], [`gauge`], [`histogram`]) live in one
//! process-wide registry. Handles are cheap clones of shared
//! atomics: registration takes the registry lock once, after which every
//! increment or observation is a lock-free atomic operation with no
//! allocation — safe on the trial hot path. Histograms use fixed
//! log₂ buckets (one per bit length), so [`Histogram::observe`] is a
//! couple of atomic adds and p50/p95/p99 read out as bucket upper
//! bounds. The whole registry renders as Prometheus text exposition
//! ([`render_prometheus`], served by the daemon's `GET /metrics`
//! endpoint) or as single-line JSON ([`render_json`], the daemon's
//! `metrics` socket verb).
//!
//! **Spans** ([`span`], [`span_tagged`]) record wall-time intervals
//! into a bounded ring buffer, exportable as Chrome `trace_event`
//! JSON ([`export_chrome_trace`] — load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>). Tracing is off by default: a disabled
//! [`span`] call is one relaxed atomic load and the returned guard
//! holds nothing. Enable it with [`set_tracing`].
//!
//! # Zero perturbation
//!
//! Nothing in this crate feeds back into protocol execution: trial
//! records, reports, and the pinned CSV golden are bit-identical with
//! tracing enabled, disabled, or the crate absent (asserted by the
//! workspace's `obs_is_inert` integration tests).
//!
//! # Quickstart
//!
//! ```
//! // Metrics: handles are cacheable, increments are atomics only.
//! let trials = bichrome_obs::counter("quickstart_trials_total");
//! trials.inc();
//! let latency = bichrome_obs::histogram("quickstart_latency_nanos");
//! latency.observe(1_500);
//! assert_eq!(trials.get(), 1);
//! assert!(latency.percentile(50.0) >= 1_500.0);
//!
//! // Spans: off by default, one atomic load when disabled.
//! bichrome_obs::set_tracing(true);
//! {
//!     let _span = bichrome_obs::span("quickstart/work");
//! } // recorded on drop
//! bichrome_obs::set_tracing(false);
//!
//! let text = bichrome_obs::render_prometheus();
//! assert!(text.contains("quickstart_trials_total 1"));
//! let trace = bichrome_obs::export_chrome_trace();
//! assert!(trace.contains("quickstart/work"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod registry;
mod trace;

pub use registry::{
    counter, counter_labeled, gauge, gauge_labeled, histogram, histogram_labeled, render_json,
    render_prometheus, Counter, Gauge, Histogram, HistogramTimer,
};
pub use trace::{
    clear_spans, export_chrome_trace, set_tracing, span, span_events, span_tagged, tracing_enabled,
    SpanEvent, SpanGuard,
};
