//! `bichrome-core` — the protocols of *Round and Communication
//! Efficient Graph Coloring* (Chang, Mishra, Nguyen, Salim; PODC
//! 2025), implemented over the `bichrome-comm` two-party substrate and
//! the `bichrome-graph` graph substrate.
//!
//! # What's here
//!
//! * [`slack_int`] — the `k-Slack-Int` set protocols (Appendix A):
//!   deterministic binary search (Lemma A.1) and randomized
//!   Algorithm 3 (Lemma A.2).
//! * [`color_sample`] — uniform available-color sampling
//!   (Lemma 3.1).
//! * [`sample_batch`] — the batched SoA engine driving thousands of
//!   `Color-Sample` machines per round, bit-identical to the
//!   reference machines.
//! * [`rct`] — `Random-Color-Trial` (Algorithm 1).
//! * [`d1lc`] — the `(degree+1)`-list-coloring protocol with palette
//!   sparsification (Proposition 3.2, Lemma 3.3).
//! * [`vertex`] — **Theorem 1**: `(Δ+1)`-vertex coloring with `O(n)`
//!   expected bits and `O(log log n · log Δ)` worst-case rounds.
//! * [`edge`] — **Theorem 2**: deterministic `(2Δ−1)`-edge coloring
//!   with `O(n)` bits and `O(1)` rounds; **Theorem 3**: `(2Δ)`-edge
//!   coloring with zero communication; Lemma 5.1's constant-Δ
//!   protocol.
//! * [`baselines`] — Flin–Mittal, deterministic greedy+binary-search,
//!   and send-everything comparators.
//!
//! # Quickstart
//!
//! Protocol *scripts* (the per-party functions) live here; the
//! uniform way to execute them is the `bichrome-runner` crate, whose
//! registry wraps every protocol behind one `Protocol` trait:
//!
//! ```
//! use bichrome_runner::{registry, Instance};
//! use bichrome_graph::{gen, partition::Partitioner};
//!
//! let g = gen::gnp(60, 0.1, 7);
//! let inst = Instance::new("demo", Partitioner::Random(1).split(&g), 42);
//! let out = registry().get("vertex/theorem1").expect("registered").run(&inst);
//! assert!(out.verdict.is_valid());
//! println!("{} bits, {} rounds", out.stats.total_bits(), out.stats.rounds);
//! ```
//!
//! Party scripts compose directly when you need custom sessions:
//! [`vertex::vertex_coloring_party`], [`baselines::Baseline::party`],
//! [`edge::theorem2_party`], ... each take a [`PartyInput`] and a
//! `PartyCtx`, and [`run_parties`] runs one of them for both parties
//! over a partition (the registry's protocols use it too):
//!
//! ```
//! use bichrome_core::{edge, run_parties};
//! use bichrome_graph::{gen, partition::Partitioner};
//!
//! let p = Partitioner::Random(1).split(&gen::cycle(12));
//! let (alice, bob, stats) = run_parties(&p, 0, edge::theorem2_party);
//! assert_eq!(alice.len() + bob.len(), 12);
//! println!("{} bits", stats.total_bits());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod color_sample;
pub mod d1lc;
pub mod edge;
pub mod input;
pub mod rct;
pub mod sample_batch;
pub mod slack_int;
pub mod vertex;

pub use input::{run_parties, PartyInput};
