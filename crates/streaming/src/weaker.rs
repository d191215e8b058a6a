//! The weaker-(2Δ−1)-edge-coloring problem (§6.4).
//!
//! Identical input setup to the standard two-party problem, but
//! relaxed output discipline: *each edge's color must be reported by
//! at least one party* (not necessarily its owner). This is the
//! problem the W-streaming reduction targets — a streaming algorithm
//! may emit the color of an Alice edge while Bob's half of the stream
//! is being processed — and Theorem 5 shows it still needs `Ω(n)`
//! bits.

use bichrome_graph::coloring::{validate_edge_coloring_with_palette, ColoringError, EdgeColoring};
use bichrome_graph::Graph;

/// Both parties' reported outputs for a weaker-(2Δ−1) instance: two
/// colorings of the whole graph's edges.
#[derive(Debug, Clone)]
pub struct WeakerOutput {
    /// Colors Alice reported (any edges, not just hers).
    pub alice: EdgeColoring,
    /// Colors Bob reported.
    pub bob: EdgeColoring,
}

impl WeakerOutput {
    /// Combined view of both reports.
    ///
    /// # Errors
    ///
    /// Returns the offending edge if the parties report *conflicting*
    /// colors for it (reporting the same color twice is fine), or if
    /// Bob reports an edge outside Alice's coloring's graph.
    pub fn combined(&self) -> Result<EdgeColoring, bichrome_graph::Edge> {
        let mut all = self.alice.clone();
        all.merge(&self.bob)?;
        Ok(all)
    }
}

/// Validates a weaker-(2Δ−1) output against the whole graph: every
/// edge reported by someone, no conflicting double reports, proper,
/// and within the `2Δ−1` palette.
///
/// # Errors
///
/// Returns [`ColoringError::ColoredNonEdge`] for a report on a pair
/// that is not an edge of `g`, [`ColoringError::ConflictingReports`]
/// for an edge the parties report in different colors, and otherwise
/// the first violation [`validate_edge_coloring_with_palette`] finds
/// in the combined reports.
pub fn validate_weaker_output(
    g: &Graph,
    out: &WeakerOutput,
    palette_size: usize,
) -> Result<(), ColoringError> {
    let mut combined = EdgeColoring::dense_for(g);
    for report in [&out.alice, &out.bob] {
        combined.merge(report).map_err(|e| {
            if g.has_edge(e.u(), e.v()) {
                ColoringError::ConflictingReports(e)
            } else {
                ColoringError::ColoredNonEdge(e)
            }
        })?;
    }
    validate_edge_coloring_with_palette(g, &combined, palette_size)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_graph::coloring::ColorId;
    use bichrome_graph::{gen, Edge, VertexId};

    #[test]
    fn cross_reporting_is_allowed() {
        let g = gen::path(3);
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        // Alice reports *both* edges (even if one belongs to Bob).
        let mut alice = EdgeColoring::dense_for(&g);
        alice.set(e01, ColorId(0));
        alice.set(e12, ColorId(1));
        let out = WeakerOutput {
            alice,
            bob: EdgeColoring::dense_for(&g),
        };
        assert!(validate_weaker_output(&g, &out, 3).is_ok());
    }

    #[test]
    fn agreement_on_double_reports_is_fine() {
        let g = gen::path(2);
        let e = Edge::new(VertexId(0), VertexId(1));
        let mut alice = EdgeColoring::dense_for(&g);
        alice.set(e, ColorId(0));
        let mut bob = EdgeColoring::dense_for(&g);
        bob.set(e, ColorId(0));
        let out = WeakerOutput { alice, bob };
        assert!(validate_weaker_output(&g, &out, 1).is_ok());
    }

    #[test]
    fn conflicting_double_reports_fail() {
        let g = gen::path(2);
        let e = Edge::new(VertexId(0), VertexId(1));
        let mut alice = EdgeColoring::dense_for(&g);
        alice.set(e, ColorId(0));
        let mut bob = EdgeColoring::dense_for(&g);
        bob.set(e, ColorId(1));
        let out = WeakerOutput { alice, bob };
        assert_eq!(
            validate_weaker_output(&g, &out, 3),
            Err(ColoringError::ConflictingReports(e))
        );
    }

    #[test]
    fn a_report_on_a_non_edge_fails() {
        let g = gen::path(3);
        let e01 = Edge::new(VertexId(0), VertexId(1));
        let e12 = Edge::new(VertexId(1), VertexId(2));
        let stray = Edge::new(VertexId(0), VertexId(2));
        let mut alice = EdgeColoring::dense_for(&g);
        alice.set(e01, ColorId(0));
        alice.set(e12, ColorId(1));
        // Bob reports over the triangle: one pair is not an edge of g.
        let mut bob = EdgeColoring::dense_for(&gen::complete(3));
        bob.set(stray, ColorId(2));
        let out = WeakerOutput { alice, bob };
        assert_eq!(
            validate_weaker_output(&g, &out, 3),
            Err(ColoringError::ColoredNonEdge(stray))
        );
    }

    #[test]
    fn missing_edges_fail() {
        let g = gen::path(3);
        let out = WeakerOutput {
            alice: EdgeColoring::dense_for(&g),
            bob: EdgeColoring::dense_for(&g),
        };
        assert!(matches!(
            validate_weaker_output(&g, &out, 3),
            Err(ColoringError::UncoloredEdge(_))
        ));
    }
}
