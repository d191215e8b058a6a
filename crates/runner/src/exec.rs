//! The trial executor behind [`crate::Campaign`].
//!
//! A campaign flattens its cross-product of cells × seeds into a
//! *flat* queue of [`WorkItem`]s, so one `par_iter` fans the entire
//! grid across worker threads; the `bichrome` daemon instead feeds
//! every in-flight job's items to one shared pool. Either way each
//! item runs through [`run_item`]. Every item's randomness derives
//! only from its own cell and seed, so the parallel and serial
//! schedules produce bit-identical records.
//!
//! # Lazy, shared instance materialization
//!
//! A work item does not carry a pre-built [`Instance`]; it *is* a
//! lazy descriptor (`spec` + `partitioner` + trial seed) that the
//! worker resolves right before running the protocol, through a
//! sharded concurrent cache:
//!
//! ```text
//! (spec, graph_seed)              → Arc<Graph>
//! (spec, graph_seed, partitioner) → Arc<EdgePartition>
//! ```
//!
//! This fixes three problems of eager construction at once: setup
//! work happens *on* the worker threads instead of serially before
//! them; at most one materialized graph/partition exists per distinct
//! key instead of one per trial (a P-protocol grid runs all P
//! protocols on the *same* `Arc`s, which is also the campaign's
//! apples-to-apples contract); and memory is bounded by the number of
//! distinct instances, not the number of trials.
//!
//! Cache hits are bit-identical to fresh builds — generators are
//! deterministic per seed and every build happens exactly once per
//! key (a per-key [`OnceLock`]), so lazy/cached execution equals an
//! eager uncached build record for record. [`ExecStats`] reports the
//! dedup win (`graphs_built` vs `graphs_requested`) and the
//! setup-vs-execute worker-time split (cumulative across threads, so
//! it can exceed wall time under parallelism).

use crate::instance::{GraphSpec, Instance};
use crate::plan::TrialRecord;
use crate::protocol::Protocol;
use crate::seeds;
use bichrome_graph::partition::{EdgePartition, Partitioner};
use bichrome_graph::Graph;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// One unit of work: run `protocol` on the instance the lazy
/// descriptor `(spec, partitioner, trial_seed)` names. The instance
/// is resolved inside the worker through the shared
/// [`InstanceCache`]; graph, partition, and protocol sub-seeds derive
/// from `trial_seed` via [`crate::seeds`].
pub(crate) struct WorkItem {
    /// The protocol to execute.
    pub protocol: Arc<dyn Protocol>,
    /// The graph family to build.
    pub spec: GraphSpec,
    /// The edge partitioner to split it with.
    pub partitioner: Partitioner,
    /// The trial seed every sub-stream derives from.
    pub trial_seed: u64,
}

/// Counters and timings from one executor run — how much instance
/// materialization was deduplicated by the cache, how the wall time
/// split between building instances and running protocols, and (when
/// a campaign ran against a persistent store) how many trials were
/// served from disk instead of being recomputed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExecStats {
    /// Trials actually executed by this run.
    pub trials_computed: u64,
    /// Trials skipped because the campaign's persistent store already
    /// held their record (0 when no store is attached).
    pub trials_skipped: u64,
    /// Trials that needed a graph (one per executed work item).
    pub graphs_requested: u64,
    /// Graphs actually built — exactly one per distinct
    /// `(spec, graph_seed)` key.
    pub graphs_built: u64,
    /// Trials that needed an edge partition.
    pub partitions_requested: u64,
    /// Partitions actually built — exactly one per distinct
    /// `(spec, graph_seed, partitioner)` key.
    pub partitions_built: u64,
    /// Cumulative nanoseconds spent *building* graphs and partitions
    /// (cache misses only), summed across threads. Waiting on another
    /// worker's in-flight build is deliberately not counted, so a
    /// build shared by many trials contributes its cost once, not
    /// once per waiter.
    pub setup_nanos: u64,
    /// Cumulative nanoseconds workers spent inside `Protocol::run`,
    /// summed across threads.
    pub run_nanos: u64,
}

impl ExecStats {
    /// Fraction of graph requests served from cache (0 when nothing
    /// was requested).
    pub fn graph_cache_hit_rate(&self) -> f64 {
        if self.graphs_requested == 0 {
            0.0
        } else {
            1.0 - self.graphs_built as f64 / self.graphs_requested as f64
        }
    }

    /// Fraction of partition requests served from cache (0 when
    /// nothing was requested).
    pub fn partition_cache_hit_rate(&self) -> f64 {
        if self.partitions_requested == 0 {
            0.0
        } else {
            1.0 - self.partitions_built as f64 / self.partitions_requested as f64
        }
    }
}

/// The human-readable one-liner the experiment binaries and the CLI
/// print after a run. The phrase `computed N trials` is load-bearing:
/// CI greps for `computed 0 trials` to assert a warm-store run did no
/// work.
impl std::fmt::Display for ExecStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "exec: computed {} trials ({} skipped via store) · graphs built {}/{} \
             ({:.0}% cache hits) · partitions built {}/{} ({:.0}% cache hits) · \
             setup {:.3}s vs execute {:.3}s worker time",
            self.trials_computed,
            self.trials_skipped,
            self.graphs_built,
            self.graphs_requested,
            100.0 * self.graph_cache_hit_rate(),
            self.partitions_built,
            self.partitions_requested,
            100.0 * self.partition_cache_hit_rate(),
            self.setup_nanos as f64 / 1e9,
            self.run_nanos as f64 / 1e9,
        )
    }
}

/// Shard count of the concurrent caches (a small power of two; keys
/// hash-distribute across shards to keep lock contention low).
const SHARDS: usize = 16;

/// A sharded `key → value` cache with exactly-once construction:
/// the shard lock is held only to look up the per-key cell, and the
/// build itself runs under the cell's [`OnceLock`], so concurrent
/// builds of *different* keys in the same shard do not serialize and
/// the same key is never built twice.
struct Sharded<K, V> {
    shards: Vec<Mutex<HashMap<K, Arc<OnceLock<V>>>>>,
    requested: AtomicU64,
    built: AtomicU64,
    build_nanos: AtomicU64,
}

impl<K: Eq + Hash, V: Clone> Sharded<K, V> {
    fn new() -> Self {
        Sharded {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            requested: AtomicU64::new(0),
            built: AtomicU64::new(0),
            build_nanos: AtomicU64::new(0),
        }
    }

    fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> V {
        self.requested.fetch_add(1, Ordering::Relaxed);
        let mut hasher = DefaultHasher::new();
        key.hash(&mut hasher);
        let shard = &self.shards[hasher.finish() as usize % SHARDS];
        let cell = {
            let mut map = shard.lock().expect("cache shard poisoned");
            Arc::clone(map.entry(key).or_default())
        };
        cell.get_or_init(|| {
            // Time only the build itself: workers blocked here on
            // another thread's in-flight build must not re-bill it.
            let started = Instant::now();
            self.built.fetch_add(1, Ordering::Relaxed);
            let value = build();
            self.build_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            value
        })
        .clone()
    }
}

/// Cache key of a materialized graph. The spec is keyed by its
/// canonical `Display` form (which round-trips every parameter,
/// including `p`).
#[derive(PartialEq, Eq, Hash)]
struct GraphKey {
    spec: String,
    graph_seed: u64,
}

/// Cache key of a materialized edge partition.
#[derive(PartialEq, Eq, Hash)]
struct PartitionKey {
    spec: String,
    graph_seed: u64,
    partitioner: Partitioner,
}

/// Cumulative counters of one [`InstanceCache`]: how much instance
/// materialization was deduplicated, and the time spent on actual
/// builds (cache misses only, summed across threads).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Trials that needed a graph.
    pub graphs_requested: u64,
    /// Graphs actually built — exactly one per distinct
    /// `(spec, graph_seed)` key.
    pub graphs_built: u64,
    /// Trials that needed an edge partition.
    pub partitions_requested: u64,
    /// Partitions actually built — exactly one per distinct
    /// `(spec, graph_seed, partitioner)` key.
    pub partitions_built: u64,
    /// Cumulative nanoseconds spent building (cache misses only).
    pub setup_nanos: u64,
}

/// The shared `(spec, seed) → Arc<Graph>` / partition cache trials
/// resolve their instances through. One is created per
/// [`crate::Campaign::run`] for one-shot runs; a long-lived service
/// (the `bichrome` daemon) keeps a single cache at process scope so
/// concurrent overlapping campaigns build each distinct instance
/// exactly once between them.
pub struct InstanceCache {
    graphs: Sharded<GraphKey, Arc<Graph>>,
    partitions: Sharded<PartitionKey, Arc<EdgePartition>>,
}

impl Default for InstanceCache {
    fn default() -> Self {
        InstanceCache::new()
    }
}

impl InstanceCache {
    /// An empty cache.
    pub fn new() -> Self {
        InstanceCache {
            graphs: Sharded::new(),
            partitions: Sharded::new(),
        }
    }

    /// A snapshot of the cache's cumulative request/build counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            graphs_requested: self.graphs.requested.load(Ordering::Relaxed),
            graphs_built: self.graphs.built.load(Ordering::Relaxed),
            partitions_requested: self.partitions.requested.load(Ordering::Relaxed),
            partitions_built: self.partitions.built.load(Ordering::Relaxed),
            setup_nanos: self.graphs.build_nanos.load(Ordering::Relaxed)
                + self.partitions.build_nanos.load(Ordering::Relaxed),
        }
    }

    /// Resolves one lazy descriptor to an [`Instance`], building the
    /// graph and partition at most once per distinct key. The result
    /// is bit-identical to [`Instance::from_spec`] on the same
    /// arguments.
    fn instance(&self, spec: &GraphSpec, partitioner: Partitioner, trial_seed: u64) -> Instance {
        let label = spec.to_string();
        let graph_seed = seeds::graph_seed(trial_seed);
        let graph = self.graphs.get_or_build(
            GraphKey {
                spec: label.clone(),
                graph_seed,
            },
            || Arc::new(spec.build(graph_seed)),
        );
        let partition = self.partitions.get_or_build(
            PartitionKey {
                spec: label.clone(),
                graph_seed,
                partitioner,
            },
            || Arc::new(partitioner.split(&graph)),
        );
        Instance {
            label,
            partition,
            trial_seed,
            seed: seeds::protocol_seed(trial_seed),
        }
    }
}

/// Runs one work item against `cache`, returning the record and the
/// nanoseconds spent inside `Protocol::run`. This is the one unit of
/// trial execution: a campaign run, the daemon's multiplexed pool and
/// a remote worker's [`crate::compute_trial`] all schedule it.
pub(crate) fn run_item(item: &WorkItem, cache: &InstanceCache) -> (TrialRecord, u64) {
    let _trial_span = bichrome_obs::span("trial/run");
    let instance = {
        let _setup_span = bichrome_obs::span("trial/setup");
        cache.instance(&item.spec, item.partitioner, item.trial_seed)
    };
    let run_started = Instant::now();
    let outcome = {
        let _execute_span = bichrome_obs::span("trial/execute");
        item.protocol.run(&instance)
    };
    let record = TrialRecord::from_outcome(&instance, outcome);
    let nanos = run_started.elapsed().as_nanos() as u64;
    trial_metrics().observe(nanos);
    (record, nanos)
}

/// The cached process-registry handle for per-trial execution time
/// (`bichrome_exec_trials_total` rides along as the histogram's
/// count; a separate counter keeps the family greppable on its own).
fn trial_metrics() -> &'static TrialMetrics {
    static METRICS: OnceLock<TrialMetrics> = OnceLock::new();
    METRICS.get_or_init(|| TrialMetrics {
        trials: bichrome_obs::counter("bichrome_exec_trials_total"),
        trial_nanos: bichrome_obs::histogram("bichrome_exec_trial_nanos"),
    })
}

struct TrialMetrics {
    trials: bichrome_obs::Counter,
    trial_nanos: bichrome_obs::Histogram,
}

impl TrialMetrics {
    fn observe(&self, nanos: u64) {
        self.trials.inc();
        self.trial_nanos.observe(nanos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    /// A queue repeating the same (spec, seed) column across several
    /// protocols — the shape whose redundancy the cache removes.
    fn shared_column_queue(protocols: &[&str], seeds: std::ops::Range<u64>) -> Vec<WorkItem> {
        let reg = registry();
        let mut queue = Vec::new();
        for key in protocols {
            for seed in seeds.clone() {
                queue.push(WorkItem {
                    protocol: reg.get(key).expect("registered"),
                    spec: GraphSpec::NearRegular { n: 24, d: 4 },
                    partitioner: Partitioner::Alternating,
                    trial_seed: seed,
                });
            }
        }
        queue
    }

    /// Runs the queue in order over one cache, returning the records
    /// and the summed protocol-run nanoseconds.
    fn run_all(queue: &[WorkItem], cache: &InstanceCache) -> (Vec<TrialRecord>, u64) {
        let mut run_nanos = 0;
        let records = queue
            .iter()
            .map(|item| {
                let (record, nanos) = run_item(item, cache);
                run_nanos += nanos;
                record
            })
            .collect();
        (records, run_nanos)
    }

    #[test]
    fn each_distinct_graph_is_built_exactly_once() {
        let queue = shared_column_queue(
            &[
                "vertex/theorem1",
                "edge/theorem2",
                "baseline/send-everything",
            ],
            0..4,
        );
        let cache = InstanceCache::new();
        let (records, _) = run_all(&queue, &cache);
        assert_eq!(records.len(), 12);
        let stats = cache.stats();
        assert_eq!(stats.graphs_requested, 12);
        assert_eq!(stats.graphs_built, 4, "one graph per seed");
        assert_eq!(stats.partitions_requested, 12);
        assert_eq!(stats.partitions_built, 4, "one partition per seed");
    }

    #[test]
    fn cached_resolution_is_bit_identical_to_eager_from_spec() {
        let queue = shared_column_queue(&["edge/theorem2", "vertex/theorem1"], 0..3);
        let (records, _) = run_all(&queue, &InstanceCache::new());
        let reg = registry();
        let spec = GraphSpec::NearRegular { n: 24, d: 4 };
        let mut i = 0;
        for key in ["edge/theorem2", "vertex/theorem1"] {
            let proto = reg.get(key).expect("registered");
            for seed in 0..3 {
                let inst = Instance::from_spec(&spec, Partitioner::Alternating, seed);
                let expected = TrialRecord::from_outcome(&inst, proto.run(&inst));
                assert_eq!(records[i], expected, "{key} seed {seed}");
                i += 1;
            }
        }
    }

    #[test]
    fn stats_time_split_covers_the_run() {
        let queue = shared_column_queue(&["vertex/theorem1"], 0..2);
        let cache = InstanceCache::new();
        let (_, run_nanos) = run_all(&queue, &cache);
        assert!(run_nanos > 0, "protocol runs take measurable time");
        assert!(
            cache.stats().setup_nanos > 0,
            "two graphs were actually built"
        );
    }

    #[test]
    fn validator_scratch_is_reused_across_trials() {
        // Zero per-trial allocation in the validator pass: after a
        // warm-up run, re-executing the whole queue must not grow the
        // per-worker ColorMarks scratch at all. Every trial (and
        // therefore every validation) runs on this thread, so this
        // thread's scratch counter is the whole story.
        let queue = shared_column_queue(
            &[
                "edge/theorem2",
                "edge/theorem3-zero-comm",
                "edge/lemma5.1-bounded",
            ],
            0..4,
        );
        run_all(&queue, &InstanceCache::new());
        let warm = crate::scratch::with_scratch(|s| s.marks.allocations());
        let (records, _) = run_all(&queue, &InstanceCache::new());
        assert_eq!(records.len(), 12);
        let after = crate::scratch::with_scratch(|s| s.marks.allocations());
        assert_eq!(
            after, warm,
            "a warm worker scratch must validate trial after trial without allocating"
        );
    }
}
