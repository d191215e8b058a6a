//! Grid-structured experiment orchestration: a [`Campaign`] takes
//! *sets* of axes — protocols × graph families × sizes × partitioners
//! × seeds — materializes the cross-product into one flat work queue,
//! and executes the whole grid through the shared executor. It is the
//! one batch front end: repeated trials of a single protocol on a
//! single graph family are a one-cell campaign.
//!
//! The paper's results are all comparisons over exactly such grids
//! (protocol × graph family × size × partition adversary), so the
//! experiment binaries declare their tables as campaigns instead of
//! hand-rolling trial loops.
//!
//! # Example
//!
//! ```
//! use bichrome_runner::{Campaign, GraphSpec, GroupBy};
//!
//! let report = Campaign::new()
//!     .protocol_keys(["vertex/theorem1", "baseline/send-everything"])
//!     .graphs([GraphSpec::NearRegular { n: 40, d: 4 }])
//!     .sizes([40, 80])
//!     .seeds(0..3)
//!     .baseline("baseline/send-everything")
//!     .run();
//!
//! assert!(report.all_valid());
//! assert_eq!(report.cells.len(), 4); // 2 protocols × 2 sizes
//! println!("{}", report.render_table());
//! for (proto, summary) in report.group_by(GroupBy::Protocol) {
//!     println!("{proto}: {:.1} bits", summary.total_bits.mean);
//! }
//! let csv = report.to_csv();
//! assert!(csv.starts_with("protocol,graph,"));
//! ```

use crate::csv::Csv;
use crate::exec::{self, ExecStats, InstanceCache, WorkItem};
use crate::instance::GraphSpec;
use crate::plan::{Report, Summary, TrialRecord};
use crate::protocol::Protocol;
use crate::registry::registry;
use crate::seeds;
use crate::table::Table;
use bichrome_comm::fault::{with_session_faults, FaultPlan};
use bichrome_comm::transport::{with_session_transport, TransportKind};
use bichrome_graph::partition::Partitioner;
use bichrome_store::{Store, StoreError, TrialKey};
use rayon::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Placeholder label for the default partition axis entry: a fresh
/// `Partitioner::Random` per trial, keyed by
/// [`crate::seeds::partition_seed`] so the split is decorrelated from
/// the graph generator's and the protocol session's streams.
///
/// Also the partitioner field of a stored trial's [`TrialKey`] when
/// the default axis is in play: the concrete per-seed partitioner is
/// itself derived from the trial seed (which the key carries), so the
/// label plus the seed still pins the computation exactly.
pub const DEFAULT_PARTITIONER_LABEL: &str = "random(per-seed)";

/// Where a campaign's persistent store comes from: a directory the
/// campaign opens itself, or a handle shared with other campaigns (the
/// daemon keeps one open store that every in-flight job appends to).
enum StoreTarget {
    Path(PathBuf),
    Shared(Arc<Mutex<Store>>),
}

/// Builder for a grid of experiment cells. Every axis is a *set*; the
/// grid is the cross-product. See the [module docs](self).
pub struct Campaign {
    protocols: Vec<(String, Arc<dyn Protocol>)>,
    graphs: Vec<GraphSpec>,
    sizes: Vec<usize>,
    partitioners: Vec<Partitioner>,
    seeds: Vec<u64>,
    parallel: bool,
    baseline: Option<String>,
    store: Option<StoreTarget>,
    transport: TransportKind,
    fault: FaultPlan,
}

impl Default for Campaign {
    fn default() -> Self {
        Campaign::new()
    }
}

impl Campaign {
    /// An empty campaign (no axes set, parallel execution on).
    pub fn new() -> Self {
        Campaign {
            protocols: Vec::new(),
            graphs: Vec::new(),
            sizes: Vec::new(),
            partitioners: Vec::new(),
            seeds: Vec::new(),
            parallel: true,
            baseline: None,
            store: None,
            transport: TransportKind::InProc,
            fault: FaultPlan::new(),
        }
    }

    /// Appends protocols to the protocol axis, labeled by their
    /// [`Protocol::name`].
    pub fn protocols(mut self, protos: impl IntoIterator<Item = Arc<dyn Protocol>>) -> Self {
        for p in protos {
            self.protocols.push((p.name().to_string(), p));
        }
        self
    }

    /// Appends one protocol under an explicit cell label — needed
    /// when sweeping *configurations* of one protocol (same `name()`,
    /// different tuning), e.g. `iters=4`.
    pub fn protocol_labeled(mut self, label: impl Into<String>, proto: Arc<dyn Protocol>) -> Self {
        self.protocols.push((label.into(), proto));
        self
    }

    /// Appends registry protocols to the protocol axis by key.
    ///
    /// # Panics
    ///
    /// Panics if a key is not in [`registry()`]; the message lists
    /// every known key.
    pub fn protocol_keys<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let reg = registry();
        for key in keys {
            let key = key.as_ref();
            let proto = reg.get(key).unwrap_or_else(|| {
                panic!(
                    "unknown protocol key {key:?}; registry has: {}",
                    reg.names().join(", ")
                )
            });
            self.protocols.push((key.to_string(), proto));
        }
        self
    }

    /// Appends graph families to the graph axis.
    pub fn graphs(mut self, specs: impl IntoIterator<Item = GraphSpec>) -> Self {
        self.graphs.extend(specs);
        self
    }

    /// Sets the size axis: every graph spec is re-parameterized to
    /// each `n` via [`GraphSpec::scaled_to`]. Empty (the default)
    /// means "use each spec at its own size".
    pub fn sizes(mut self, ns: impl IntoIterator<Item = usize>) -> Self {
        self.sizes.extend(ns);
        self
    }

    /// Appends fixed partitioners to the adversary axis. Empty (the
    /// default) means one axis entry with a fresh decorrelated
    /// `Partitioner::Random` per seed (see
    /// [`DEFAULT_PARTITIONER_LABEL`]).
    pub fn partitioners(mut self, ps: impl IntoIterator<Item = Partitioner>) -> Self {
        self.partitioners.extend(ps);
        self
    }

    /// The trial seeds, shared by every cell: each seed feeds the
    /// graph generator and the protocol session, so *different
    /// protocols run on identical instances* and per-cell comparisons
    /// are apples-to-apples.
    pub fn seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds.extend(seeds);
        self
    }

    /// Whether to fan the flat cells × seeds queue across worker
    /// threads (default: true). Results are bit-identical either way;
    /// every trial's randomness derives only from its own cell and
    /// seed.
    pub fn parallel(mut self, yes: bool) -> Self {
        self.parallel = yes;
        self
    }

    /// Selects the wire every trial's two-party session runs over
    /// (default: in-process channels). The transport is plumbing, not
    /// protocol: recorded bits and rounds are metered above it, so
    /// records — and therefore stored [`TrialKey`] identities — are
    /// identical whichever transport carried them. That is why the
    /// key does *not* include the transport: a trial computed over
    /// TCP warms the store for an in-process re-run and vice versa.
    pub fn transport(mut self, kind: TransportKind) -> Self {
        self.transport = kind;
        self
    }

    /// Injects a deterministic [`FaultPlan`] under every trial's
    /// session link (default: none). Like the transport, faults are
    /// plumbing, not protocol: the fault layer detects corruption,
    /// deduplicates retransmits, and reconnects severed links *below*
    /// the meter, so records — and therefore stored [`TrialKey`]
    /// identities — are byte-identical to the fault-free run. A
    /// chaos campaign warms the store for a clean re-run and vice
    /// versa.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = plan;
        self
    }

    /// Marks one protocol label as the comparison baseline;
    /// [`CampaignReport::baseline_deltas`] and the rendered table then
    /// report every other cell relative to it.
    pub fn baseline(mut self, label: impl Into<String>) -> Self {
        self.baseline = Some(label.into());
        self
    }

    /// Attaches a persistent [`Store`] (created on first use at
    /// `path`). Before executing, the campaign consults the store and
    /// *skips* every trial whose canonical identity — protocol label,
    /// graph spec, partitioner-axis label, trial seed — it already
    /// holds; every freshly computed record is flushed to the store as
    /// its worker finishes. A killed run therefore resumes where it
    /// stopped, a re-run with an extended axis computes only the new
    /// cells, and a fully warm run computes nothing at all
    /// ([`ExecStats::trials_skipped`] reports the wins).
    ///
    /// Stored records round-trip bit-exactly, so a resumed or
    /// warm-store report is identical to an uninterrupted fresh run.
    pub fn with_store(mut self, path: impl Into<PathBuf>) -> Self {
        self.store = Some(StoreTarget::Path(path.into()));
        self
    }

    /// Like [`Campaign::with_store`], but against an *already open*
    /// store handle shared with other campaigns. This is how the
    /// `bichrome` daemon multiplexes every in-flight job onto one
    /// store: consults and appends interleave safely under the mutex,
    /// and records one job computes are immediately visible as skips
    /// to the next.
    pub fn with_shared_store(mut self, store: Arc<Mutex<Store>>) -> Self {
        self.store = Some(StoreTarget::Shared(store));
        self
    }

    /// The graph axis after applying the size axis.
    fn sized_specs(&self) -> Vec<GraphSpec> {
        if self.sizes.is_empty() {
            self.graphs.clone()
        } else {
            self.graphs
                .iter()
                .flat_map(|g| self.sizes.iter().map(|&n| g.scaled_to(n)))
                .collect()
        }
    }

    /// The partitioner axis (`None` = the per-seed default).
    fn partitioner_axis(&self) -> Vec<Option<Partitioner>> {
        if self.partitioners.is_empty() {
            vec![None]
        } else {
            self.partitioners.iter().copied().map(Some).collect()
        }
    }

    /// Number of cells the grid will materialize (trials = cells ×
    /// seeds).
    pub fn cell_count(&self) -> usize {
        self.protocols.len() * self.sized_specs().len() * self.partitioner_axis().len()
    }

    /// Enumerates the grid, executes the flat cells × seeds queue
    /// through the shared executor, and aggregates one [`Report`] per
    /// cell. Equivalent to [`Campaign::run_with_stats`] with the
    /// executor statistics dropped.
    ///
    /// # Panics
    ///
    /// Panics if the protocol, graph, or seed axis is empty, or if a
    /// declared [`Campaign::baseline`] label matches no protocol-axis
    /// label (a typo would otherwise silently disable every delta).
    pub fn run(self) -> CampaignReport {
        self.run_with_stats().0
    }

    /// Like [`Campaign::run`], additionally returning the executor's
    /// [`ExecStats`]: the instance-cache dedup counters
    /// (`graphs_built` vs `graphs_requested` — a P-protocol grid
    /// builds each `(spec, seed)` graph once, not P times), the
    /// setup-vs-execute worker-time split (summed across threads),
    /// and — with [`Campaign::with_store`] — the skipped-vs-computed
    /// trial counts.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Campaign::run`], plus any store error
    /// (use [`Campaign::try_run_with_stats`] to handle those).
    pub fn run_with_stats(self) -> (CampaignReport, ExecStats) {
        self.try_run_with_stats()
            .unwrap_or_else(|e| panic!("campaign store failure: {e}"))
    }

    /// [`Campaign::run_with_stats`] with store failures surfaced as
    /// [`StoreError`]s instead of panics (axis misconfiguration still
    /// panics — those are programming errors, not runtime
    /// conditions).
    ///
    /// # Errors
    ///
    /// Returns the first store failure: the store could not be
    /// opened/created, or a freshly computed record could not be
    /// flushed (the in-memory report is lost in that case — the
    /// error is returned *after* execution so it names exactly what
    /// was not persisted).
    ///
    /// # Panics
    ///
    /// Same axis-validation conditions as [`Campaign::run`].
    pub fn try_run_with_stats(self) -> Result<(CampaignReport, ExecStats), StoreError> {
        let prepared = self.prepare()?;
        // A fresh per-run cache, exactly as before the daemon lifted
        // caching to process scope: the run's ExecStats then report
        // this grid's dedup in isolation.
        let cache = InstanceCache::new();
        let flush_error: Mutex<Option<StoreError>> = Mutex::new(None);
        let work = |&i: &usize| {
            let record = prepared.run_pending(i, &cache);
            if let Err(e) = prepared.commit(i, record) {
                flush_error
                    .lock()
                    .expect("flush error slot poisoned")
                    .get_or_insert(e);
            }
        };
        let indices: Vec<usize> = (0..prepared.pending()).collect();
        if prepared.parallel() {
            let _: Vec<()> = indices.par_iter().map(work).collect();
        } else {
            indices.iter().for_each(work);
        }
        if let Some(e) = flush_error.into_inner().expect("flush error slot poisoned") {
            return Err(e);
        }
        let (report, mut stats) = prepared.finish();
        let cs = cache.stats();
        stats.graphs_requested = cs.graphs_requested;
        stats.graphs_built = cs.graphs_built;
        stats.partitions_requested = cs.partitions_requested;
        stats.partitions_built = cs.partitions_built;
        stats.setup_nanos = cs.setup_nanos;
        Ok((report, stats))
    }

    /// Splits a run into its two halves: everything *before* trial
    /// execution (axis validation, grid enumeration, store consult —
    /// stored trials become pre-filled results) and the resulting
    /// [`PreparedRun`] of pending work items, which the caller drives
    /// at its own pace. [`Campaign::try_run_with_stats`] drives it
    /// with one `par_iter`; the `bichrome` daemon instead feeds every
    /// in-flight job's pending items into one multiplexed worker pool
    /// against one process-wide [`InstanceCache`].
    ///
    /// # Errors
    ///
    /// Returns the store failure if the attached store cannot be
    /// opened or created.
    ///
    /// # Panics
    ///
    /// Same axis-validation conditions as [`Campaign::run`].
    pub fn prepare(self) -> Result<PreparedRun, StoreError> {
        assert!(
            !self.protocols.is_empty(),
            "Campaign has no protocols: set .protocols(..) / .protocol_keys(..)"
        );
        assert!(
            !self.graphs.is_empty(),
            "Campaign has no graphs: set .graphs(..)"
        );
        assert!(
            !self.seeds.is_empty(),
            "Campaign has no seeds: set .seeds(..)"
        );
        if let Some(baseline) = &self.baseline {
            assert!(
                self.protocols.iter().any(|(label, _)| label == baseline),
                "baseline {baseline:?} is not on the protocol axis: {:?}",
                self.protocols.iter().map(|(l, _)| l).collect::<Vec<_>>()
            );
        }

        // Enumerate cells in axis order: protocol-major, then sized
        // graph, then partitioner.
        let specs = self.sized_specs();
        let parts = self.partitioner_axis();
        let mut meta = Vec::with_capacity(self.cell_count());
        for (label, proto) in &self.protocols {
            for &spec in &specs {
                for &partitioner in &parts {
                    meta.push(CellMeta {
                        label: label.clone(),
                        protocol: Arc::clone(proto),
                        spec,
                        partitioner,
                    });
                }
            }
        }

        // The persistent store, if one is attached: consulted before
        // enqueueing (already-stored trials are skipped) and appended
        // to as each pending trial commits (so a killed run keeps
        // everything done). A Path target is opened here; a Shared
        // target is someone else's open handle.
        let store = match self.store {
            Some(StoreTarget::Path(path)) => {
                Some(Arc::new(Mutex::new(Store::open_or_create(path)?)))
            }
            Some(StoreTarget::Shared(store)) => Some(store),
            None => None,
        };

        // One flat queue over cells × seeds — callers fan out across
        // the whole grid, not per cell. Items are lazy descriptors:
        // workers resolve them through a shared instance cache, so a
        // column of P protocols builds its (spec, seed) instance
        // once, and the sub-seeds derive exactly like
        // `Instance::from_spec`.
        let per_cell = self.seeds.len();
        let mut results: Vec<Option<TrialRecord>> = vec![None; meta.len() * per_cell];
        let mut queue = Vec::new();
        let mut queue_slots: Vec<usize> = Vec::new();
        let mut queue_keys: Vec<TrialKey> = Vec::new();
        let mut skipped = 0u64;
        for (ci, m) in meta.iter().enumerate() {
            for (si, &seed) in self.seeds.iter().enumerate() {
                let key = TrialKey {
                    protocol: m.label.clone(),
                    graph: m.spec.to_string(),
                    partitioner: partitioner_axis_label(m.partitioner),
                    seed,
                };
                if let Some(store) = &store {
                    let stored = {
                        let guard = store.lock().expect("store poisoned");
                        // An undecodable record (foreign writer, say)
                        // counts as a miss and is recomputed.
                        guard
                            .get(&key)
                            .and_then(|json| TrialRecord::from_json(json).ok())
                    };
                    if let Some(record) = stored {
                        results[ci * per_cell + si] = Some(record);
                        skipped += 1;
                        continue;
                    }
                }
                let partitioner = m
                    .partitioner
                    .unwrap_or(Partitioner::Random(seeds::partition_seed(seed)));
                queue.push(WorkItem {
                    protocol: Arc::clone(&m.protocol),
                    spec: m.spec,
                    partitioner,
                    trial_seed: seed,
                });
                queue_keys.push(key);
                queue_slots.push(ci * per_cell + si);
            }
        }

        Ok(PreparedRun {
            meta,
            per_cell,
            store,
            queue,
            queue_slots,
            queue_keys,
            results: Mutex::new(results),
            skipped,
            run_nanos: AtomicU64::new(0),
            baseline: self.baseline,
            parallel: self.parallel,
            transport: self.transport,
            fault: self.fault,
        })
    }
}

/// One enumerated grid cell's identity plus its protocol handle.
struct CellMeta {
    label: String,
    protocol: Arc<dyn Protocol>,
    spec: GraphSpec,
    partitioner: Option<Partitioner>,
}

/// A campaign split at the store-consult boundary by
/// [`Campaign::prepare`]: stored trials are already in the result
/// grid, and the *pending* trials sit in a flat queue the caller
/// drives — serially, through one `par_iter`, or interleaved with
/// other prepared runs on a shared worker pool (the daemon). All
/// methods take `&self`, so a `PreparedRun` can sit behind an `Arc`
/// with many workers committing concurrently.
pub struct PreparedRun {
    meta: Vec<CellMeta>,
    per_cell: usize,
    store: Option<Arc<Mutex<Store>>>,
    queue: Vec<WorkItem>,
    queue_slots: Vec<usize>,
    queue_keys: Vec<TrialKey>,
    results: Mutex<Vec<Option<TrialRecord>>>,
    skipped: u64,
    run_nanos: AtomicU64,
    baseline: Option<String>,
    parallel: bool,
    transport: TransportKind,
    fault: FaultPlan,
}

impl PreparedRun {
    /// Number of trials that must actually run (the store held the
    /// rest).
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Trials served from the store at prepare time.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Total trials in the grid (pending + skipped).
    pub fn total_trials(&self) -> usize {
        self.meta.len() * self.per_cell
    }

    /// Whether the campaign asked for parallel execution.
    pub fn parallel(&self) -> bool {
        self.parallel
    }

    /// The wire this campaign's sessions run over (what the daemon
    /// hands remote workers in trial descriptors).
    pub fn transport(&self) -> TransportKind {
        self.transport
    }

    /// The fault plan this campaign's sessions run under (what the
    /// daemon hands remote workers in trial descriptors; the no-op
    /// plan unless the campaign set one).
    pub fn fault(&self) -> &FaultPlan {
        &self.fault
    }

    /// The canonical identity of pending trial `i` (in `0..pending()`).
    pub fn pending_key(&self, i: usize) -> &TrialKey {
        &self.queue_keys[i]
    }

    /// Executes pending trial `i` against `cache`, returning its
    /// record. Pure compute — nothing is persisted or recorded until
    /// [`PreparedRun::commit`]. Safe to call from any thread; each
    /// `i` should be run once.
    pub fn run_pending(&self, i: usize, cache: &InstanceCache) -> TrialRecord {
        let (record, nanos) = with_session_transport(self.transport, || {
            with_session_faults(&self.fault, || exec::run_item(&self.queue[i], cache))
        });
        self.run_nanos.fetch_add(nanos, Ordering::Relaxed);
        record
    }

    /// Commits pending trial `i`'s record: appends it to the store
    /// (if one is attached) and files it into the result grid.
    ///
    /// # Errors
    ///
    /// Returns the store failure if the append could not be flushed
    /// (the record still lands in the in-memory result grid).
    pub fn commit(&self, i: usize, record: TrialRecord) -> Result<(), StoreError> {
        let stored = match &self.store {
            Some(store) => {
                let _append_span = bichrome_obs::span("trial/store-append");
                let mut guard = store.lock().expect("store poisoned");
                guard.append(self.queue_keys[i].clone(), record.to_json())
            }
            None => Ok(()),
        };
        self.results.lock().expect("results poisoned")[self.queue_slots[i]] = Some(record);
        stored
    }

    /// Aggregates the finished grid into a [`CampaignReport`] plus
    /// the run's trial accounting (`trials_computed`,
    /// `trials_skipped`, `run_nanos`; the instance-cache counters are
    /// zero — they belong to whichever cache the caller ran against).
    /// Takes `&self` so a shared (`Arc`ed) run can be finalized by
    /// whichever worker commits last.
    ///
    /// # Panics
    ///
    /// Panics if some pending trial was never committed.
    pub fn finish(&self) -> (CampaignReport, ExecStats) {
        let results = std::mem::take(&mut *self.results.lock().expect("results poisoned"));
        let mut results = results.into_iter();
        let cells = self
            .meta
            .iter()
            .map(|m| {
                let trials: Vec<TrialRecord> = results
                    .by_ref()
                    .take(self.per_cell)
                    .map(|r| r.expect("every grid slot is stored or computed"))
                    .collect();
                CampaignCell {
                    protocol: m.label.clone(),
                    spec: m.spec,
                    partitioner: m.partitioner,
                    report: Report::new(m.label.clone(), trials),
                }
            })
            .collect();
        let stats = ExecStats {
            trials_computed: self.queue.len() as u64,
            trials_skipped: self.skipped,
            run_nanos: self.run_nanos.load(Ordering::Relaxed),
            ..ExecStats::default()
        };
        (
            CampaignReport {
                cells,
                baseline: self.baseline.clone(),
            },
            stats,
        )
    }
}

/// The partitioner-axis label of a cell (`None` = the per-seed
/// default): the canonical third component of a stored trial's
/// [`TrialKey`].
fn partitioner_axis_label(p: Option<Partitioner>) -> String {
    match p {
        Some(p) => p.to_string(),
        None => DEFAULT_PARTITIONER_LABEL.to_string(),
    }
}

/// Recomputes the trial a [`TrialKey`] names, from the key alone —
/// the remote-worker half of the daemon's lease protocol. The key's
/// four fields pin the computation exactly (see
/// [`Campaign::with_store`]), so the returned record is bit-identical
/// to what [`PreparedRun::run_pending`] produces for the same key in
/// the daemon's own process, whatever `transport` carries the
/// session's bytes and whatever `fault` plan flakes the link under
/// them (the fault layer recovers below the meter).
///
/// Only registry protocols can travel as descriptors — a campaign
/// built from closures via [`Campaign::protocol_labeled`] has no
/// name a remote process could resolve.
///
/// # Errors
///
/// Returns a message naming the unresolvable field: an unknown
/// protocol key, an unparsable graph spec, or an unparsable
/// partitioner label.
pub fn compute_trial(
    key: &TrialKey,
    transport: TransportKind,
    fault: &FaultPlan,
    cache: &InstanceCache,
) -> Result<TrialRecord, String> {
    let protocol = registry().get(&key.protocol).ok_or_else(|| {
        format!(
            "unknown protocol key {:?}; registry has: {}",
            key.protocol,
            registry().names().join(", ")
        )
    })?;
    let spec: GraphSpec = key
        .graph
        .parse()
        .map_err(|e| format!("bad graph spec {:?}: {e}", key.graph))?;
    let partitioner = if key.partitioner == DEFAULT_PARTITIONER_LABEL {
        Partitioner::Random(seeds::partition_seed(key.seed))
    } else {
        key.partitioner
            .parse()
            .map_err(|e| format!("bad partitioner {:?}: {e}", key.partitioner))?
    };
    let item = WorkItem {
        protocol,
        spec,
        partitioner,
        trial_seed: key.seed,
    };
    let (record, _nanos) = with_session_transport(transport, || {
        with_session_faults(fault, || exec::run_item(&item, cache))
    });
    Ok(record)
}

impl std::fmt::Debug for Campaign {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Campaign")
            .field(
                "protocols",
                &self.protocols.iter().map(|(l, _)| l).collect::<Vec<_>>(),
            )
            .field("graphs", &self.graphs)
            .field("sizes", &self.sizes)
            .field("partitioners", &self.partitioners)
            .field("seeds", &self.seeds.len())
            .field("parallel", &self.parallel)
            .field("baseline", &self.baseline)
            .field("transport", &self.transport)
            .field("fault", &self.fault.to_string())
            .field(
                "store",
                &match &self.store {
                    Some(StoreTarget::Path(p)) => format!("path:{}", p.display()),
                    Some(StoreTarget::Shared(_)) => "shared".to_string(),
                    None => "none".to_string(),
                },
            )
            .finish()
    }
}

/// One grid cell: a (protocol, sized graph family, partitioner)
/// combination with its aggregated per-seed [`Report`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCell {
    /// The protocol axis label (registry key or explicit label).
    pub protocol: String,
    /// The sized graph spec the cell ran on.
    pub spec: GraphSpec,
    /// The fixed partitioner, or `None` for the per-seed default.
    pub partitioner: Option<Partitioner>,
    /// Per-seed trials and their summary.
    pub report: Report,
}

impl CampaignCell {
    /// The partitioner-axis label of this cell.
    pub fn partitioner_label(&self) -> String {
        partitioner_axis_label(self.partitioner)
    }

    /// Shorthand for the cell's summary.
    pub fn summary(&self) -> &Summary {
        &self.report.summary
    }
}

/// Pivot axes for [`CampaignReport::group_by`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GroupBy {
    /// One group per protocol label.
    Protocol,
    /// One group per graph family (parameters ignored).
    Family,
    /// One group per graph size `n`.
    Size,
    /// One group per partitioner-axis entry.
    Partitioner,
}

/// One cell's cost relative to the baseline cell on the same graph
/// and partitioner.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineDelta {
    /// The compared protocol's label.
    pub protocol: String,
    /// The shared graph spec.
    pub spec: GraphSpec,
    /// The shared partitioner-axis entry.
    pub partitioner: Option<Partitioner>,
    /// Mean total bits, this protocol / baseline (∞ when the baseline
    /// is zero-bit and this protocol is not; 1 when both are zero).
    pub bits_ratio: f64,
    /// Mean rounds, this protocol / baseline (same conventions).
    pub rounds_ratio: f64,
}

fn ratio(x: f64, base: f64) -> f64 {
    if base == 0.0 {
        if x == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        x / base
    }
}

/// The aggregated result of a [`Campaign`] run: one [`CampaignCell`]
/// per grid cell, in axis order, plus pivots, baseline-relative
/// deltas, and table / JSON / CSV rendering.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Every cell, protocol-major in axis order.
    pub cells: Vec<CampaignCell>,
    /// The baseline protocol label, if one was declared.
    pub baseline: Option<String>,
}

impl CampaignReport {
    /// Reassembles a report purely from a persistent [`Store`] — no
    /// re-execution — so `bichrome report` can render table / JSON /
    /// CSV views of any store, including one written by a run that
    /// was killed partway.
    ///
    /// The store does not know the original axis declaration, so
    /// cells come out in canonical sorted order — by (protocol,
    /// graph, partitioner) — with each cell's trials sorted by seed,
    /// and no baseline is set. Aggregates are recomputed from the
    /// stored records; when the campaign declared its seeds in
    /// ascending order (ranges always do) they equal the live run's
    /// bit for bit, while an out-of-order seed *list* re-aggregates
    /// in sorted order and float summation order may differ in the
    /// last ulp.
    ///
    /// # Errors
    ///
    /// Returns a description of the first entry whose record or key
    /// fields cannot be decoded (e.g. a store written by a different
    /// producer).
    pub fn from_store(store: &Store) -> Result<CampaignReport, String> {
        use std::collections::BTreeMap;
        let mut grouped: BTreeMap<(String, String, String), BTreeMap<u64, TrialRecord>> =
            BTreeMap::new();
        for entry in store.iter() {
            let record = TrialRecord::from_json(&entry.record_json)
                .map_err(|e| format!("undecodable record for {}: {e}", entry.key))?;
            grouped
                .entry((
                    entry.key.protocol.clone(),
                    entry.key.graph.clone(),
                    entry.key.partitioner.clone(),
                ))
                .or_default()
                .insert(entry.key.seed, record);
        }
        let cells = grouped
            .into_iter()
            .map(|((protocol, graph, part_label), trials)| {
                let spec: GraphSpec = graph
                    .parse()
                    .map_err(|e| format!("unparseable graph spec {graph:?}: {e}"))?;
                let partitioner = if part_label == DEFAULT_PARTITIONER_LABEL {
                    None
                } else {
                    Some(
                        part_label
                            .parse::<Partitioner>()
                            .map_err(|e| format!("unparseable partitioner {part_label:?}: {e}"))?,
                    )
                };
                Ok(CampaignCell {
                    protocol: protocol.clone(),
                    spec,
                    partitioner,
                    report: Report::new(protocol, trials.into_values().collect()),
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(CampaignReport {
            cells,
            baseline: None,
        })
    }

    /// Whether every trial of every cell validated.
    pub fn all_valid(&self) -> bool {
        self.cells.iter().all(|c| c.report.all_valid())
    }

    /// Total trials across the grid.
    pub fn total_trials(&self) -> usize {
        self.cells.iter().map(|c| c.report.trials.len()).sum()
    }

    /// Total bits exchanged across every trial of every cell.
    pub fn total_bits(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|c| &c.report.trials)
            .map(|t| t.total_bits())
            .sum()
    }

    /// Pivots the grid: merges the trials of every cell sharing the
    /// given axis value and re-aggregates one [`Summary`] per group,
    /// in first-seen cell order.
    pub fn group_by(&self, axis: GroupBy) -> Vec<(String, Summary)> {
        let mut groups: Vec<(String, Vec<TrialRecord>)> = Vec::new();
        for cell in &self.cells {
            let key = match axis {
                GroupBy::Protocol => cell.protocol.clone(),
                GroupBy::Family => cell.spec.family().to_string(),
                GroupBy::Size => format!("n={}", cell.spec.num_vertices()),
                GroupBy::Partitioner => cell.partitioner_label(),
            };
            match groups.iter_mut().find(|(k, _)| *k == key) {
                Some((_, trials)) => trials.extend(cell.report.trials.iter().cloned()),
                None => groups.push((key, cell.report.trials.clone())),
            }
        }
        groups
            .into_iter()
            .map(|(k, trials)| (k, Summary::of(&trials)))
            .collect()
    }

    /// Every non-baseline cell's cost relative to `baseline`'s cell
    /// on the same (graph, partitioner). Cells with no matching
    /// baseline cell are skipped.
    pub fn deltas_vs(&self, baseline: &str) -> Vec<BaselineDelta> {
        let base_cell = |spec: &GraphSpec, part: &Option<Partitioner>| {
            self.cells
                .iter()
                .find(|c| c.protocol == baseline && c.spec == *spec && c.partitioner == *part)
        };
        self.cells
            .iter()
            .filter(|c| c.protocol != baseline)
            .filter_map(|c| {
                let base = base_cell(&c.spec, &c.partitioner)?;
                Some(BaselineDelta {
                    protocol: c.protocol.clone(),
                    spec: c.spec,
                    partitioner: c.partitioner,
                    bits_ratio: ratio(c.summary().total_bits.mean, base.summary().total_bits.mean),
                    rounds_ratio: ratio(c.summary().rounds.mean, base.summary().rounds.mean),
                })
            })
            .collect()
    }

    /// [`CampaignReport::deltas_vs`] against the declared
    /// [`Campaign::baseline`] (empty when none was declared).
    pub fn baseline_deltas(&self) -> Vec<BaselineDelta> {
        match &self.baseline {
            Some(b) => self.deltas_vs(b),
            None => Vec::new(),
        }
    }

    /// Renders one row per cell plus a grid-summary footer. When a
    /// baseline is declared, a `bits vs <baseline>` column shows each
    /// cell's mean-bits ratio against the baseline cell on the same
    /// graph and partitioner.
    pub fn render_table(&self) -> String {
        let deltas = self.baseline_deltas();
        let with_baseline = self.baseline.is_some();
        let mut headers = vec![
            "protocol",
            "graph",
            "partitioner",
            "trials",
            "ok",
            "bits",
            "±sd",
            "p50",
            "p95",
            "rounds",
            "colors",
            "bits/n",
        ];
        if with_baseline {
            headers.push("bits vs baseline");
        }
        let mut t = Table::new(&headers);
        for cell in &self.cells {
            let s = cell.summary();
            let mut row = vec![
                cell.protocol.clone(),
                cell.spec.to_string(),
                cell.partitioner_label(),
                s.trials.to_string(),
                format!("{}/{}", s.valid, s.trials),
                format!("{:.1}", s.total_bits.mean),
                format!("{:.1}", s.total_bits.stddev),
                format!("{:.0}", s.total_bits.p50),
                format!("{:.0}", s.total_bits.p95),
                format!("{:.1}", s.rounds.mean),
                format!("{:.1}", s.colors.mean),
                format!("{:.2}", s.bits_per_vertex.mean),
            ];
            if with_baseline {
                let vs = if Some(&cell.protocol) == self.baseline.as_ref() {
                    "—".to_string()
                } else {
                    deltas
                        .iter()
                        .find(|d| {
                            d.protocol == cell.protocol
                                && d.spec == cell.spec
                                && d.partitioner == cell.partitioner
                        })
                        .map(|d| format!("{:.2}x", d.bits_ratio))
                        .unwrap_or_else(|| "?".to_string())
                };
                row.push(vs);
            }
            let refs: Vec<&str> = row.iter().map(String::as_str).collect();
            t.row(&refs);
        }
        format!(
            "{}\ngrid: {} cells · {} trials · {} valid · {} total bits\n",
            t.render(),
            self.cells.len(),
            self.total_trials(),
            self.cells.iter().map(|c| c.summary().valid).sum::<usize>(),
            self.total_bits(),
        )
    }

    /// The pinned CSV header ([`CampaignReport::to_csv`]'s first
    /// line). Format history: PR 4 added the four nearest-rank
    /// percentile columns (`bits_p50`/`bits_p95`,
    /// `rounds_p50`/`rounds_p95`).
    pub const CSV_HEADER: &'static [&'static str] = &[
        "protocol",
        "graph",
        "family",
        "partitioner",
        "n",
        "trials",
        "valid",
        "bits_mean",
        "bits_stddev",
        "bits_min",
        "bits_max",
        "bits_p50",
        "bits_p95",
        "rounds_mean",
        "rounds_stddev",
        "rounds_max",
        "rounds_p50",
        "rounds_p95",
        "bits_per_vertex_mean",
        "colors_mean",
    ];

    /// Renders one CSV row per cell under
    /// [`CampaignReport::CSV_HEADER`]. Fields containing commas (graph
    /// specs, partitioner labels) are RFC-4180-quoted.
    pub fn to_csv(&self) -> String {
        let mut csv = Csv::new(Self::CSV_HEADER);
        for cell in &self.cells {
            let s = cell.summary();
            csv.row(&[
                &cell.protocol,
                &cell.spec.to_string(),
                cell.spec.family(),
                &cell.partitioner_label(),
                &cell.spec.num_vertices().to_string(),
                &s.trials.to_string(),
                &s.valid.to_string(),
                &s.total_bits.mean.to_string(),
                &s.total_bits.stddev.to_string(),
                &s.total_bits.min.to_string(),
                &s.total_bits.max.to_string(),
                &s.total_bits.p50.to_string(),
                &s.total_bits.p95.to_string(),
                &s.rounds.mean.to_string(),
                &s.rounds.stddev.to_string(),
                &s.rounds.max.to_string(),
                &s.rounds.p50.to_string(),
                &s.rounds.p95.to_string(),
                &s.bits_per_vertex.mean.to_string(),
                &s.colors.mean.to_string(),
            ]);
        }
        csv.finish()
    }

    /// Encodes the whole grid — every cell with its full per-trial
    /// report — via the hand-written JSON writer.
    pub fn to_json(&self) -> String {
        let mut w = crate::json::Writer::object();
        match &self.baseline {
            Some(b) => w.field_str("baseline", b),
            None => w.field_null("baseline"),
        }
        w.field_u64("cells", self.cells.len() as u64);
        w.field_u64("trials", self.total_trials() as u64);
        w.field_u64("total_bits", self.total_bits());
        w.field_bool("all_valid", self.all_valid());
        let cells: Vec<String> = self
            .cells
            .iter()
            .map(|c| {
                let mut o = crate::json::Writer::object();
                o.field_str("protocol", &c.protocol);
                o.field_str("graph", &c.spec.to_string());
                o.field_str("family", c.spec.family());
                o.field_str("partitioner", &c.partitioner_label());
                o.field_u64("n", c.spec.num_vertices() as u64);
                o.field_raw("report", &c.report.to_json());
                o.finish()
            })
            .collect();
        w.field_raw("cells", &format!("[{}]", cells.join(",")));
        w.finish()
    }
}

/// Renders a baseline-relative comparison of the cells two reports
/// share: `a` is the baseline, ratios are `b / a`. Cells present on
/// only one side are listed under the table. Shared by `bichrome
/// diff` and the daemon's `diff` request.
pub fn diff_reports(
    a: &CampaignReport,
    b: &CampaignReport,
    label_a: &str,
    label_b: &str,
) -> String {
    use std::fmt::Write as _;
    let mut t = Table::new(&[
        "protocol",
        "graph",
        "partitioner",
        "bits a",
        "bits b",
        "bits b/a",
        "rounds b/a",
        "valid a",
        "valid b",
    ]);
    let mut shared = 0usize;
    let mut only_a = Vec::new();
    for cell in &a.cells {
        let Some(twin) = b.cells.iter().find(|c| {
            c.protocol == cell.protocol
                && c.spec == cell.spec
                && c.partitioner_label() == cell.partitioner_label()
        }) else {
            only_a.push(format!("{} on {}", cell.protocol, cell.spec));
            continue;
        };
        shared += 1;
        let (sa, sb) = (cell.summary(), twin.summary());
        t.row(&[
            &cell.protocol,
            &cell.spec.to_string(),
            &cell.partitioner_label(),
            &format!("{:.1}", sa.total_bits.mean),
            &format!("{:.1}", sb.total_bits.mean),
            &ratio_label(sb.total_bits.mean, sa.total_bits.mean),
            &ratio_label(sb.rounds.mean, sa.rounds.mean),
            &format!("{}/{}", sa.valid, sa.trials),
            &format!("{}/{}", sb.valid, sb.trials),
        ]);
    }
    let only_b: Vec<String> = b
        .cells
        .iter()
        .filter(|c| {
            !a.cells.iter().any(|d| {
                d.protocol == c.protocol
                    && d.spec == c.spec
                    && d.partitioner_label() == c.partitioner_label()
            })
        })
        .map(|c| format!("{} on {}", c.protocol, c.spec))
        .collect();
    let mut out = String::new();
    writeln!(
        out,
        "diff {label_a} (a) vs {label_b} (b): {shared} shared cell(s)"
    )
    .expect("string write");
    if shared > 0 {
        out.push_str(&t.render());
        out.push('\n');
    }
    for (label, cells) in [("only in a", only_a), ("only in b", only_b)] {
        if !cells.is_empty() {
            writeln!(out, "{label}: {}", cells.join(", ")).expect("string write");
        }
    }
    out
}

/// A `x.xx×` ratio cell: `1.00x` when both sides are zero-mean, `∞`
/// when only the baseline side is.
fn ratio_label(b: f64, a: f64) -> String {
    if a == 0.0 && b == 0.0 {
        "1.00x".to_string()
    } else if a == 0.0 {
        "∞".to_string()
    } else {
        format!("{:.2}x", b / a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::Instance;

    fn small_grid() -> Campaign {
        Campaign::new()
            .protocol_keys(["edge/theorem2", "baseline/send-everything"])
            .graphs([
                GraphSpec::NearRegular { n: 30, d: 4 },
                GraphSpec::Gnp { n: 30, p: 0.15 },
            ])
            .seeds(0..3)
    }

    #[test]
    fn grid_shape_and_order() {
        let c = small_grid();
        assert_eq!(c.cell_count(), 4);
        let report = c.run();
        assert_eq!(report.cells.len(), 4);
        assert_eq!(report.total_trials(), 12);
        assert!(report.all_valid(), "{}", report.render_table());
        // Protocol-major order.
        assert_eq!(report.cells[0].protocol, "edge/theorem2");
        assert_eq!(report.cells[1].protocol, "edge/theorem2");
        assert_eq!(report.cells[2].protocol, "baseline/send-everything");
        assert_eq!(report.cells[0].spec, GraphSpec::NearRegular { n: 30, d: 4 });
        assert_eq!(report.cells[1].spec, GraphSpec::Gnp { n: 30, p: 0.15 });
    }

    #[test]
    fn sizes_axis_rescales_every_family() {
        let report = Campaign::new()
            .protocol_keys(["edge/theorem3-zero-comm"])
            .graphs([GraphSpec::NearRegular { n: 8, d: 4 }])
            .sizes([16, 32])
            .seeds(0..2)
            .run();
        assert_eq!(report.cells.len(), 2);
        assert_eq!(report.cells[0].spec.num_vertices(), 16);
        assert_eq!(report.cells[1].spec.num_vertices(), 32);
        assert!(report.all_valid());
    }

    #[test]
    fn campaign_cells_equal_the_hand_built_reference() {
        // The reference a cell must reproduce, trial by trial: build
        // the instance eagerly from the spec, run the protocol, and
        // flatten the outcome. Checked under the default per-seed
        // partitioner and under a fixed one.
        let spec = GraphSpec::NearRegular { n: 40, d: 5 };
        for (key, part) in [
            ("vertex/theorem1", None),
            ("edge/theorem2", Some(Partitioner::Alternating)),
        ] {
            let report = Campaign::new()
                .protocol_keys([key])
                .graphs([spec])
                .partitioners(part)
                .seeds(0..4)
                .run();
            assert_eq!(report.cells.len(), 1);
            let proto = registry().get(key).expect("registered");
            let reference: Vec<TrialRecord> = (0..4)
                .map(|seed| {
                    let partitioner =
                        part.unwrap_or(Partitioner::Random(seeds::partition_seed(seed)));
                    let inst = Instance::from_spec(&spec, partitioner, seed);
                    TrialRecord::from_outcome(&inst, proto.run(&inst))
                })
                .collect();
            assert_eq!(report.cells[0].report.trials, reference, "{key}");
        }
    }

    #[test]
    fn group_by_pivots_partition_the_trials() {
        let report = small_grid().partitioners(Partitioner::family(3)).run();
        assert_eq!(report.cells.len(), 2 * 2 * 6);
        for axis in [
            GroupBy::Protocol,
            GroupBy::Family,
            GroupBy::Size,
            GroupBy::Partitioner,
        ] {
            let groups = report.group_by(axis);
            let total: usize = groups.iter().map(|(_, s)| s.trials).sum();
            assert_eq!(total, report.total_trials(), "{axis:?} must partition");
        }
        assert_eq!(report.group_by(GroupBy::Protocol).len(), 2);
        assert_eq!(report.group_by(GroupBy::Family).len(), 2);
        assert_eq!(report.group_by(GroupBy::Size).len(), 1);
        assert_eq!(report.group_by(GroupBy::Partitioner).len(), 6);
    }

    #[test]
    fn baseline_deltas_compare_matching_cells() {
        let report = small_grid().baseline("baseline/send-everything").run();
        let deltas = report.baseline_deltas();
        // One delta per non-baseline cell.
        assert_eq!(deltas.len(), 2);
        for d in &deltas {
            assert_eq!(d.protocol, "edge/theorem2");
            assert!(d.bits_ratio.is_finite() && d.bits_ratio > 0.0);
            // Theorem 2's O(n) bits undercut send-the-graph.
            assert!(d.bits_ratio < 1.0, "expected savings, got {}", d.bits_ratio);
        }
        let table = report.render_table();
        assert!(table.contains("bits vs baseline"));
        assert!(table.contains("—"));
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(3.0, 0.0), f64::INFINITY);
        assert_eq!(ratio(3.0, 2.0), 1.5);
    }

    #[test]
    fn csv_and_json_cover_every_cell() {
        let report = small_grid().run();
        let csv = report.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + report.cells.len());
        assert_eq!(lines[0], CampaignReport::CSV_HEADER.join(","));
        // Graph-spec labels contain commas, so they must be quoted.
        assert!(lines[1].contains("\"near-regular(n=30,d=4)\""));

        use crate::json::Value;
        let json = Value::parse(&report.to_json()).expect("parses");
        let obj = json.as_object().expect("object");
        let Value::Array(cells) = &obj["cells"] else {
            panic!("cells not an array: {:?}", obj["cells"]);
        };
        assert_eq!(cells.len(), 4);
        assert_eq!(obj["all_valid"], Value::Bool(true));
        // Each cell nests its full report: the protocol and one trial
        // entry per seed.
        for (cell, json) in report.cells.iter().zip(cells) {
            let nested = json.as_object().expect("cell object")["report"]
                .as_object()
                .expect("report object");
            assert_eq!(nested["protocol"].as_str(), Some(cell.protocol.as_str()));
            let Value::Array(trials) = &nested["trials"] else {
                panic!("trials not an array: {:?}", nested["trials"]);
            };
            assert_eq!(trials.len(), 3, "one trial per seed");
        }
    }

    #[test]
    #[should_panic(expected = "unknown protocol key")]
    fn unknown_protocol_key_panics_with_the_key_list() {
        let _ = Campaign::new().protocol_keys(["no/such/protocol"]);
    }

    #[test]
    #[should_panic(expected = "no seeds")]
    fn empty_seed_axis_panics() {
        let _ = Campaign::new()
            .protocol_keys(["edge/theorem2"])
            .graphs([GraphSpec::Path { n: 4 }])
            .run();
    }

    #[test]
    #[should_panic(expected = "not on the protocol axis")]
    fn misspelled_baseline_panics_instead_of_silently_disabling_deltas() {
        let _ = small_grid().baseline("send-everything").run();
    }

    /// A unique scratch directory (removed on drop).
    struct TempDir(std::path::PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            TempDir(std::env::temp_dir().join(format!(
                "bichrome-campaign-test-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            )))
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn warm_store_skips_everything_and_reports_identically() {
        let tmp = TempDir::new("warm");
        let fresh = small_grid().run();
        let (cold, cold_stats) = small_grid().with_store(&tmp.0).run_with_stats();
        assert_eq!(cold, fresh, "a cold store must not change results");
        assert_eq!(cold_stats.trials_computed, 12);
        assert_eq!(cold_stats.trials_skipped, 0);

        let (warm, warm_stats) = small_grid().with_store(&tmp.0).run_with_stats();
        assert_eq!(warm, fresh, "a warm store must reproduce bit-identically");
        assert_eq!(warm_stats.trials_computed, 0, "everything came from disk");
        assert_eq!(warm_stats.trials_skipped, 12);
        assert_eq!(warm_stats.graphs_requested, 0, "no instance was built");
    }

    #[test]
    fn extending_the_seed_axis_computes_only_the_new_suffix() {
        let tmp = TempDir::new("extend");
        let (_, stats) = small_grid().with_store(&tmp.0).run_with_stats();
        assert_eq!(stats.trials_computed, 12);

        let extended = || small_grid().seeds(3..5); // 0..3 ∪ 3..5
        let (report, stats) = extended().with_store(&tmp.0).run_with_stats();
        assert_eq!(stats.trials_skipped, 12, "the original half is on disk");
        assert_eq!(stats.trials_computed, 4 * 2, "only the two new seeds run");
        assert_eq!(report, extended().run(), "and the merge is bit-identical");
    }

    #[test]
    fn report_from_store_reaggregates_the_same_summaries() {
        let tmp = TempDir::new("fromstore");
        let (ran, _) = small_grid()
            .partitioners([Partitioner::Alternating])
            .with_store(&tmp.0)
            .run_with_stats();
        let store = bichrome_store::Store::open_existing(&tmp.0).expect("store exists");
        let rebuilt = CampaignReport::from_store(&store).expect("decodes");
        assert_eq!(rebuilt.cells.len(), ran.cells.len());
        assert_eq!(rebuilt.total_trials(), ran.total_trials());
        // Cells come back in canonical sorted order; match them up.
        for cell in &ran.cells {
            let twin = rebuilt
                .cells
                .iter()
                .find(|c| {
                    c.protocol == cell.protocol
                        && c.spec == cell.spec
                        && c.partitioner == cell.partitioner
                })
                .expect("every executed cell is in the store");
            assert_eq!(twin.report, cell.report, "bit-identical re-aggregation");
        }
    }

    #[test]
    fn store_key_uses_the_axis_label_for_the_default_partitioner() {
        // The default adversary derives from the trial seed, so the
        // stored key keeps the axis label and two different seeds
        // must produce two different store entries.
        let tmp = TempDir::new("defaultpart");
        let campaign = || {
            Campaign::new()
                .protocol_keys(["edge/theorem3-zero-comm"])
                .graphs([GraphSpec::Cycle { n: 8 }])
                .seeds(0..2)
        };
        let (_, stats) = campaign().with_store(&tmp.0).run_with_stats();
        assert_eq!(stats.trials_computed, 2);
        let store = bichrome_store::Store::open_existing(&tmp.0).expect("store");
        assert_eq!(store.len(), 2);
        for entry in store.iter() {
            assert_eq!(entry.key.partitioner, DEFAULT_PARTITIONER_LABEL);
        }
        let (_, stats) = campaign().with_store(&tmp.0).run_with_stats();
        assert_eq!(stats.trials_skipped, 2);
    }

    #[test]
    fn campaign_reports_are_bit_identical_across_transports() {
        // The acceptance invariant of the transport axis: the same
        // multi-protocol grid, run over in-process channels, OS
        // pipes, and loopback TCP, produces the same report record
        // for record — bits, rounds, phases, colors, everything.
        let grid = |t: TransportKind| {
            Campaign::new()
                .protocol_keys(["edge/theorem2", "vertex/theorem1", "streaming/greedy-w"])
                .graphs([GraphSpec::NearRegular { n: 24, d: 4 }])
                .seeds(0..2)
                .transport(t)
                .run()
        };
        let baseline = grid(TransportKind::InProc);
        assert!(baseline.all_valid());
        for kind in [TransportKind::Pipe, TransportKind::Tcp] {
            assert_eq!(grid(kind), baseline, "{kind}");
        }
    }

    #[test]
    fn campaign_reports_are_bit_identical_under_any_recoverable_fault_plan() {
        // The acceptance invariant of the chaos layer: any fault plan
        // that eventually lets traffic through (every FaultPlan is
        // recoverable by construction) leaves the campaign report
        // byte-identical to the fault-free run, on every transport.
        // Metering happens above the faulty link and recovery below
        // it, so severs, corruptions, delays, and short I/O are all
        // invisible to the recorded bits, rounds, and colorings.
        let grid = |t: TransportKind, fault: FaultPlan| {
            Campaign::new()
                .protocol_keys(["edge/theorem2", "vertex/theorem1"])
                .graphs([GraphSpec::NearRegular { n: 20, d: 4 }])
                .seeds(0..2)
                .transport(t)
                .fault(fault)
                .run()
        };
        let baseline = grid(TransportKind::InProc, FaultPlan::new());
        assert!(baseline.all_valid());
        let plans = [
            FaultPlan::new().sever_at(1),
            FaultPlan::new().corrupt_at(2),
            FaultPlan::new().sever_at(2).corrupt_at(1).delay_ms(1),
            FaultPlan::new().short(3).sever_at(3),
        ];
        for plan in plans {
            for kind in TransportKind::ALL {
                let spec = plan.to_string();
                assert_eq!(grid(kind, plan.clone()), baseline, "{spec} over {kind}");
            }
        }
        // Byte-identical, not merely structurally equal.
        assert_eq!(
            grid(TransportKind::Tcp, FaultPlan::new().sever_at(1).delay_ms(1)).to_json(),
            baseline.to_json(),
        );
    }

    #[test]
    fn compute_trial_matches_the_prepared_run_for_the_same_key() {
        // The remote-worker path: reconstructing a trial from its
        // TrialKey alone must reproduce run_pending bit for bit,
        // including under the default per-seed partitioner and over a
        // different transport than the daemon would use locally.
        let campaigns = [
            Campaign::new()
                .protocol_keys(["edge/theorem2", "edge/theorem3-zero-comm"])
                .graphs([GraphSpec::NearRegular { n: 24, d: 4 }])
                .seeds(0..2),
            Campaign::new()
                .protocol_keys(["vertex/theorem1"])
                .graphs([GraphSpec::Gnp { n: 20, p: 0.2 }])
                .partitioners([Partitioner::Alternating])
                .seeds(5..7),
        ];
        for campaign in campaigns {
            let prepared = campaign.prepare().expect("no store attached");
            let cache = InstanceCache::new();
            for i in 0..prepared.pending() {
                let local = prepared.run_pending(i, &cache);
                let key = prepared.pending_key(i);
                for kind in TransportKind::ALL {
                    let remote = compute_trial(key, kind, &FaultPlan::new(), &InstanceCache::new())
                        .expect("key resolves");
                    assert_eq!(remote, local, "{key:?} over {kind}");
                }
            }
        }
    }

    #[test]
    fn compute_trial_reports_unresolvable_descriptors() {
        let cache = InstanceCache::new();
        let bad_protocol = TrialKey {
            protocol: "no/such/protocol".into(),
            graph: "path(n=4)".into(),
            partitioner: DEFAULT_PARTITIONER_LABEL.into(),
            seed: 0,
        };
        let no_fault = FaultPlan::new();
        let err = compute_trial(&bad_protocol, TransportKind::InProc, &no_fault, &cache)
            .expect_err("bad");
        assert!(err.contains("unknown protocol key"), "{err}");
        let bad_graph = TrialKey {
            protocol: "edge/theorem2".into(),
            graph: "klein-bottle(n=4)".into(),
            ..bad_protocol.clone()
        };
        let err =
            compute_trial(&bad_graph, TransportKind::InProc, &no_fault, &cache).expect_err("bad");
        assert!(err.contains("bad graph spec"), "{err}");
        let bad_partitioner = TrialKey {
            graph: "path(n=4)".into(),
            partitioner: "coin-flip".into(),
            ..bad_graph
        };
        let err = compute_trial(&bad_partitioner, TransportKind::InProc, &no_fault, &cache)
            .expect_err("bad");
        assert!(err.contains("bad partitioner"), "{err}");
    }
}
