//! The unified protocol interface: every coloring protocol in the
//! workspace — vertex, edge, baseline, streaming-reduction — runs
//! through [`Protocol::run`] and returns the same [`Outcome`] shape,
//! so harness code (campaigns, benches, services) never needs
//! per-protocol plumbing.

use crate::instance::Instance;
use bichrome_comm::CommStats;
use bichrome_graph::coloring::{
    validate_edge_coloring, validate_edge_coloring_with_palette,
    validate_vertex_coloring_with_palette, EdgeColoring, VertexColoring,
};
use bichrome_graph::Graph;
use std::collections::BTreeMap;

/// The coloring a protocol produced, in whichever shape the problem
/// calls for.
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A full vertex coloring (identical on both sides).
    Vertex(VertexColoring),
    /// A merged edge coloring covering the whole graph.
    Edge(EdgeColoring),
    /// No artifact (the protocol failed before producing one).
    None,
}

impl Artifact {
    /// Number of distinct colors in the artifact (0 when empty).
    pub fn colors_used(&self) -> usize {
        match self {
            Artifact::Vertex(c) => c.num_distinct_colors(),
            Artifact::Edge(c) => c.num_distinct_colors(),
            Artifact::None => 0,
        }
    }
}

/// Ground-truth judgement of an outcome, produced by the
/// `bichrome-graph` validators.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The artifact passed validation.
    Valid,
    /// The artifact failed validation (message from the validator) or
    /// the protocol could not run on this instance.
    Invalid(String),
}

impl Verdict {
    /// Whether the outcome validated.
    pub fn is_valid(&self) -> bool {
        matches!(self, Verdict::Valid)
    }
}

/// The uniform result of one protocol execution: the coloring, the
/// exact communication bill, and the validator's verdict.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// What the protocol produced.
    pub artifact: Artifact,
    /// Bits per direction, rounds, and per-phase breakdown.
    pub stats: CommStats,
    /// Validation result (checked against the *whole* graph).
    pub verdict: Verdict,
    /// The palette budget the artifact was validated against, if the
    /// protocol has one (`Δ+1`, `2Δ−1`, `2Δ`, ...).
    pub palette_budget: Option<usize>,
    /// Protocol-specific side measurements (e.g. `rct_remaining`,
    /// `state_bits`, `win_rate`), aggregated per key by campaigns.
    /// Empty for protocols with nothing extra to say.
    pub metrics: BTreeMap<String, f64>,
}

impl Outcome {
    /// A validated vertex-coloring outcome.
    pub fn vertex(g: &Graph, coloring: VertexColoring, stats: CommStats, budget: usize) -> Self {
        let verdict = {
            let _validate_span = bichrome_obs::span("trial/validate");
            match validate_vertex_coloring_with_palette(g, &coloring, budget) {
                Ok(()) => Verdict::Valid,
                Err(e) => Verdict::Invalid(e.to_string()),
            }
        };
        Outcome {
            artifact: Artifact::Vertex(coloring),
            stats,
            verdict,
            palette_budget: Some(budget),
            metrics: BTreeMap::new(),
        }
    }

    /// A validated edge-coloring outcome; `budget = None` checks
    /// properness only.
    pub fn edge(
        g: &Graph,
        coloring: EdgeColoring,
        stats: CommStats,
        budget: Option<usize>,
    ) -> Self {
        let result = {
            let _validate_span = bichrome_obs::span("trial/validate");
            match budget {
                Some(b) => validate_edge_coloring_with_palette(g, &coloring, b),
                None => validate_edge_coloring(g, &coloring),
            }
        };
        let verdict = match result {
            Ok(()) => Verdict::Valid,
            Err(e) => Verdict::Invalid(e.to_string()),
        };
        Outcome {
            artifact: Artifact::Edge(coloring),
            stats,
            verdict,
            palette_budget: budget,
            metrics: BTreeMap::new(),
        }
    }

    /// A valid outcome with no coloring artifact — for measurement
    /// protocols (probes) whose acceptance condition is checked by the
    /// caller before construction.
    pub fn measured(stats: CommStats) -> Self {
        Outcome {
            artifact: Artifact::None,
            stats,
            verdict: Verdict::Valid,
            palette_budget: None,
            metrics: BTreeMap::new(),
        }
    }

    /// An outcome for a run that failed before producing an artifact
    /// (or whose acceptance check failed).
    pub fn failed(reason: impl Into<String>, stats: CommStats) -> Self {
        Outcome {
            artifact: Artifact::None,
            stats,
            verdict: Verdict::Invalid(reason.into()),
            palette_budget: None,
            metrics: BTreeMap::new(),
        }
    }

    /// Attaches one named side measurement (builder-style).
    pub fn with_metric(mut self, key: impl Into<String>, value: f64) -> Self {
        self.metrics.insert(key.into(), value);
        self
    }
}

/// A two-party coloring protocol, uniformly configurable and
/// executable.
///
/// Implementations are stateless aside from configuration, and
/// `Send + Sync` so campaigns can run them from worker threads.
pub trait Protocol: Send + Sync {
    /// The registry key, e.g. `"vertex/theorem1"`.
    fn name(&self) -> &str;

    /// A one-line human description (paper reference and guarantee).
    fn describe(&self) -> &str {
        ""
    }

    /// Executes the protocol on `inst` and reports the outcome.
    fn run(&self, inst: &Instance) -> Outcome;
}
