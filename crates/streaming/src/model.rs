//! The W-streaming execution model.

use bichrome_graph::coloring::{ColorId, EdgeColoring};
use bichrome_graph::Edge;

/// A W-streaming algorithm: processes an edge stream with bounded
/// internal state, emitting `(edge, color)` outputs along the way.
///
/// Space accounting is *self-reported* through
/// [`WStreamingAlgorithm::state_bits`] and audited by the harness
/// after every edge; implementations must report the information
/// content of their live state (not Rust allocation sizes), the way
/// the streaming literature counts space.
pub trait WStreamingAlgorithm {
    /// Called at the start of pass `pass` (0-based) over the stream.
    fn begin_pass(&mut self, pass: usize);

    /// Processes the next edge of the stream; returns any outputs
    /// emitted now.
    fn process_edge(&mut self, e: Edge) -> Vec<(Edge, ColorId)>;

    /// Called at the end of a pass; returns any final outputs for the
    /// pass.
    fn end_pass(&mut self) -> Vec<(Edge, ColorId)>;

    /// Total number of passes this algorithm makes over the stream.
    fn passes(&self) -> usize {
        1
    }

    /// Current internal state size in bits.
    fn state_bits(&self) -> u64;

    /// Encodes the internal state (used by the two-party
    /// simulation of [`crate::reduction`]). The byte length must be
    /// consistent with [`WStreamingAlgorithm::state_bits`] up to
    /// byte-rounding.
    fn export_state(&self) -> Vec<u8>;

    /// Restores internal state from [`WStreamingAlgorithm::export_state`]
    /// output.
    fn import_state(&mut self, bytes: &[u8]);
}

/// Space and pass statistics from a W-streaming run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpaceStats {
    /// Maximum state size observed after any edge, in bits.
    pub max_state_bits: u64,
    /// Passes performed.
    pub passes: usize,
    /// Stream length (edges per pass).
    pub stream_len: usize,
}

/// Runs `alg` over `stream` for all of its passes, collecting the
/// emitted coloring and auditing space after every edge.
///
/// # Panics
///
/// Panics if the algorithm emits two different colors for one edge.
pub fn run_w_streaming(
    alg: &mut dyn WStreamingAlgorithm,
    stream: &[Edge],
) -> (EdgeColoring, SpaceStats) {
    let mut coloring = EdgeColoring::new();
    let mut stats = SpaceStats {
        max_state_bits: alg.state_bits(),
        passes: alg.passes(),
        stream_len: stream.len(),
    };
    let absorb = |outputs: Vec<(Edge, ColorId)>, coloring: &mut EdgeColoring| {
        for (e, c) in outputs {
            if let Some(prev) = coloring.set(e, c) {
                assert_eq!(prev, c, "edge {e} recolored from {prev} to {c}");
            }
        }
    };
    for pass in 0..alg.passes() {
        alg.begin_pass(pass);
        stats.max_state_bits = stats.max_state_bits.max(alg.state_bits());
        for &e in stream {
            let out = alg.process_edge(e);
            absorb(out, &mut coloring);
            stats.max_state_bits = stats.max_state_bits.max(alg.state_bits());
        }
        let out = alg.end_pass();
        absorb(out, &mut coloring);
        stats.max_state_bits = stats.max_state_bits.max(alg.state_bits());
    }
    (coloring, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_graph::VertexId;

    /// Trivial test algorithm: colors every edge 0 and stores nothing.
    struct AllZero;
    impl WStreamingAlgorithm for AllZero {
        fn begin_pass(&mut self, _pass: usize) {}
        fn process_edge(&mut self, e: Edge) -> Vec<(Edge, ColorId)> {
            vec![(e, ColorId(0))]
        }
        fn end_pass(&mut self) -> Vec<(Edge, ColorId)> {
            Vec::new()
        }
        fn state_bits(&self) -> u64 {
            0
        }
        fn export_state(&self) -> Vec<u8> {
            Vec::new()
        }
        fn import_state(&mut self, _bytes: &[u8]) {}
    }

    #[test]
    fn harness_collects_outputs_and_space() {
        let stream = vec![
            Edge::new(VertexId(0), VertexId(1)),
            Edge::new(VertexId(2), VertexId(3)),
        ];
        let (coloring, stats) = run_w_streaming(&mut AllZero, &stream);
        assert_eq!(coloring.len(), 2);
        assert_eq!(stats.max_state_bits, 0);
        assert_eq!(stats.passes, 1);
        assert_eq!(stats.stream_len, 2);
    }

    #[test]
    #[should_panic(expected = "recolored")]
    fn harness_rejects_recoloring() {
        struct Flaky(u32);
        impl WStreamingAlgorithm for Flaky {
            fn begin_pass(&mut self, _pass: usize) {}
            fn process_edge(&mut self, e: Edge) -> Vec<(Edge, ColorId)> {
                self.0 += 1;
                vec![(e, ColorId(self.0))]
            }
            fn end_pass(&mut self) -> Vec<(Edge, ColorId)> {
                Vec::new()
            }
            fn state_bits(&self) -> u64 {
                32
            }
            fn export_state(&self) -> Vec<u8> {
                self.0.to_le_bytes().to_vec()
            }
            fn import_state(&mut self, bytes: &[u8]) {
                self.0 = u32::from_le_bytes(bytes.try_into().expect("4 bytes"));
            }
        }
        let e = Edge::new(VertexId(0), VertexId(1));
        let (_c, _s) = run_w_streaming(&mut Flaky(0), &[e, e]);
    }
}
