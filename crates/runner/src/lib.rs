//! `bichrome-runner` — one API to configure, execute, repeat, and
//! report every coloring protocol in the workspace.
//!
//! The paper's protocols are all measured the same way (bits per
//! direction, rounds, validated output), so they all run through the
//! same three types:
//!
//! * [`Instance`] — a graph + adversarial edge partition + seed.
//! * [`Protocol`] — `name()` + `run(&Instance) -> Outcome`; the
//!   [`registry()`] enumerates every implementation by string key
//!   (`"vertex/theorem1"`, `"edge/theorem2"`, ... — see
//!   [`registry`](crate::registry()) docs for the theorem map).
//! * [`Campaign`] — the one batch front end: sets of protocols ×
//!   graph families × sizes × partitioners × seeds, executed as one
//!   flat parallel work queue into a [`CampaignReport`] with pivots,
//!   baseline deltas, and table / JSON / CSV output. Repeated trials
//!   of one protocol on one graph family are a one-cell campaign.
//!
//! # Quickstart
//!
//! Whole experiment grids — the shape of every table in the paper —
//! are one [`Campaign`]:
//!
//! ```
//! use bichrome_runner::{Campaign, GraphSpec, GroupBy};
//!
//! let report = Campaign::new()
//!     .protocol_keys(["vertex/theorem1", "baseline/flin-mittal"])
//!     .graphs([GraphSpec::NearRegular { n: 64, d: 6 }])
//!     .sizes([64, 128])
//!     .seeds(0..4)
//!     .baseline("baseline/flin-mittal")
//!     .run();
//! assert!(report.all_valid());
//! println!("{}", report.render_table());   // per-cell rows + deltas
//! let _csv = report.to_csv();              // machine-readable grid
//! ```
//!
//! Single runs use the same surface without a campaign:
//!
//! ```
//! use bichrome_runner::{registry, Instance};
//! use bichrome_graph::{gen, partition::Partitioner};
//!
//! let g = gen::gnp(50, 0.1, 3);
//! let inst = Instance::new("demo", Partitioner::Alternating.split(&g), 7);
//! let out = registry().get("edge/theorem2").expect("registered").run(&inst);
//! assert!(out.verdict.is_valid());
//! println!("cost: {}", out.stats);
//! ```
//!
//! # Randomness and instance caching
//!
//! A trial's single `u64` seed fans out into independent graph /
//! partition / protocol-session streams through the tagged SplitMix64
//! derivation in [`seeds`] — the one place the whole derivation
//! scheme is defined and documented. Campaigns enqueue lazy instance
//! *descriptors*; the shared executor resolves them on its
//! worker threads through a concurrent cache
//! (`(spec, graph seed) → Arc<Graph>`,
//! `(spec, graph seed, partitioner) → Arc<EdgePartition>`), so a
//! P-protocol grid builds each distinct instance exactly once instead
//! of P times, and cache hits are bit-identical to fresh builds.
//! [`Campaign::run_with_stats`] exposes the dedup counters
//! (`graphs_built` vs `graphs_requested`) and the setup-vs-execute
//! worker-time split as [`ExecStats`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod campaign_file;
pub mod csv;
mod exec;
pub mod instance;
pub mod plan;
pub mod probes;
pub mod protocol;
pub mod registry;
pub mod seeds;
pub mod table;
pub mod toml;

/// The deterministic fault plan a chaos campaign injects under every
/// trial, re-exported from its home in `bichrome_comm` (campaigns
/// carry it; trial leases ship it to remote workers).
pub use bichrome_comm::fault::FaultPlan;
/// The session-transport axis value, re-exported from its home in
/// `bichrome_comm` (campaigns carry it; trial descriptors ship it to
/// remote workers).
pub use bichrome_comm::transport::TransportKind;
/// The hand-written JSON codec, re-exported from its home in
/// [`bichrome_store`] (persistence is where the bytes live; the
/// runner serializes its reports and records through it).
pub use bichrome_store::json;
pub use campaign::{
    compute_trial, diff_reports, BaselineDelta, Campaign, CampaignCell, CampaignReport, GroupBy,
    PreparedRun,
};
pub use campaign_file::CampaignFile;
pub use exec::{CacheStats, ExecStats, InstanceCache};
pub use instance::{GraphSpec, Instance, ParseSpecError};
pub use plan::{percentile, Aggregate, Report, Summary, TrialRecord};
pub use protocol::{Artifact, Outcome, Protocol, Verdict};
pub use registry::{registry, Registry};

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_graph::gen;
    use bichrome_graph::partition::Partitioner;

    #[test]
    fn registry_has_all_protocols() {
        let reg = registry();
        assert!(reg.len() >= 7, "registry lists {} protocols", reg.len());
        for key in [
            "vertex/theorem1",
            "edge/theorem2",
            "edge/theorem3-zero-comm",
            "edge/lemma5.1-bounded",
            "baseline/flin-mittal",
            "baseline/greedy-binary-search",
            "baseline/send-everything",
            "streaming/greedy-w",
            "streaming/chunked-w",
        ] {
            let p = reg.get(key).unwrap_or_else(|| panic!("missing {key}"));
            assert_eq!(p.name(), key);
            assert!(!p.describe().is_empty(), "{key} has no description");
        }
        assert!(reg.get("no/such/protocol").is_none());
    }

    #[test]
    fn every_protocol_validates_on_a_common_instance() {
        let g = gen::gnm_max_degree(40, 100, 6, 1);
        let inst = Instance::new("smoke", Partitioner::Random(5).split(&g), 11);
        for proto in registry().iter() {
            let out = proto.run(&inst);
            assert!(
                out.verdict.is_valid(),
                "{} failed: {:?}",
                proto.name(),
                out.verdict
            );
        }
    }

    #[test]
    fn every_protocol_handles_empty_and_tiny_graphs() {
        for g in [gen::empty(5), gen::path(2)] {
            let inst = Instance::new("tiny", Partitioner::AllToBob.split(&g), 0);
            for proto in registry().iter() {
                let out = proto.run(&inst);
                assert!(
                    out.verdict.is_valid(),
                    "{} failed on {}: {:?}",
                    proto.name(),
                    inst.label,
                    out.verdict
                );
            }
        }
    }

    #[test]
    fn zero_comm_protocol_costs_zero_bits() {
        let g = gen::near_regular(30, 4, 2);
        let inst = Instance::new("zc", Partitioner::Alternating.split(&g), 3);
        let out = registry()
            .get("edge/theorem3-zero-comm")
            .expect("registered")
            .run(&inst);
        assert!(out.verdict.is_valid());
        assert_eq!(out.stats.total_bits(), 0);
        assert_eq!(out.stats.rounds, 0);
    }

    #[test]
    fn invalid_instances_are_reported_not_panicked() {
        // Lemma 5.1 on a big-Δ graph still yields *some* outcome
        // object; the verdict tells the truth either way.
        let g = gen::complete(12);
        let inst = Instance::new("k12", Partitioner::Random(1).split(&g), 2);
        let out = registry()
            .get("edge/lemma5.1-bounded")
            .expect("registered")
            .run(&inst);
        match out.verdict {
            Verdict::Valid => {
                assert!(out.palette_budget.is_some());
            }
            Verdict::Invalid(msg) => assert!(!msg.is_empty()),
        }
    }
}
