//! Graph substrate for the `bichrome` workspace.
//!
//! This crate provides everything the two-party coloring protocols of
//! Chang, Mishra, Nguyen, and Salim (PODC 2025) need from "classical"
//! graph theory, implemented from scratch:
//!
//! * [`Graph`] — an immutable simple undirected graph with CSR-style
//!   adjacency, built through [`GraphBuilder`].
//! * [`gen`] — generators for every graph family used in the paper's
//!   analysis and in our experiments (G(n,p), cycles, unions of C4
//!   learning gadgets, ZEC instances, graphs whose maximum-degree
//!   vertices form an independent set, ...).
//! * [`partition`] — edge partitioners splitting a graph between Alice
//!   and Bob, including adversarial-flavored splits.
//! * [`coloring`] — vertex/edge coloring containers and *validators*;
//!   the validators are the ground truth every protocol is tested
//!   against.
//! * [`oracle`] — a second, deliberately naive judge of colorings that
//!   tests hold the validators' verdicts to.
//! * [`matching`] — Hopcroft–Karp bipartite maximum matching, used to
//!   realize the Δ-perfect matching of Lemma 5.3.
//! * [`edge_color`] — constructive proofs of Vizing's theorem
//!   (Misra–Gries, Δ+1 colors) and Fournier's theorem (Δ colors when
//!   the maximum-degree vertices form an independent set), the two
//!   existential results (Propositions 3.4 and 3.5) that Algorithm 2
//!   relies on.
//! * [`greedy`] — greedy vertex and edge colorings used by baselines.
//!
//! # Example
//!
//! ```
//! use bichrome_graph::{gen, coloring::validate_vertex_coloring, greedy};
//!
//! let g = gen::gnp(100, 0.05, 7);
//! let coloring = greedy::greedy_vertex_coloring(&g);
//! assert!(validate_vertex_coloring(&g, &coloring).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod builder;
pub mod coloring;
pub mod edge_color;
pub mod gen;
pub mod graph;
pub mod greedy;
pub mod matching;
pub mod oracle;
pub mod partition;

pub use builder::GraphBuilder;
pub use graph::{Edge, EdgeId, Graph, VertexId};
