//! `bichrome` — facade over the whole workspace.
//!
//! Reproduction (and growing production system) for *Round and
//! Communication Efficient Graph Coloring* (Chang, Mishra, Nguyen,
//! Salim; PODC 2025). This crate re-exports every member crate under
//! one roof and hosts the workspace-level integration tests and
//! examples.
//!
//! # Quickstart
//!
//! The unified execution API lives in [`runner`]:
//!
//! ```
//! use bichrome::runner::{Campaign, GraphSpec};
//!
//! let report = Campaign::new()
//!     .protocol_keys(["vertex/theorem1"])
//!     .graphs([GraphSpec::NearRegular { n: 64, d: 6 }])
//!     .seeds(0..4)
//!     .run();
//! assert_eq!(report.total_trials(), 4);
//! assert!(report.all_valid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bichrome_comm as comm;
pub use bichrome_core as core;
pub use bichrome_graph as graph;
pub use bichrome_lb as lb;
pub use bichrome_obs as obs;
pub use bichrome_runner as runner;
pub use bichrome_store as store;
pub use bichrome_streaming as streaming;
