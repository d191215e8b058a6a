//! The in-process workloads. An untraced repetition runs a campaign
//! declaration exactly as `bichrome run` does: `CampaignFile::parse`,
//! then `Campaign::try_run_with_stats`, against a results store opened
//! beforehand and handed over with `Campaign::with_shared_store`. A
//! traced repetition drives the same trials through the public call
//! of each layer, wrapped in benchmark-side spans, and must reproduce
//! the untraced records exactly.

use crate::layers::{self, Attribution};
use crate::report::{median, percentile, Ledger, Metrics};
use crate::sys;
use bichrome_comm::{with_intra_budget, with_session_faults, with_session_transport};
use bichrome_graph::coloring::{
    validate_edge_coloring, validate_edge_coloring_with_palette, validate_vertex_coloring,
    validate_vertex_coloring_with_palette,
};
use bichrome_graph::partition::{EdgePartition, Partitioner};
use bichrome_runner::campaign::DEFAULT_PARTITIONER_LABEL;
use bichrome_runner::{
    registry, seeds, Artifact, Campaign, CampaignFile, CampaignReport, GraphSpec, Instance,
    PreparedRun, Protocol, TrialRecord,
};
use bichrome_store::json::{self, Value, Writer};
use bichrome_store::{Store, TrialKey};
use rayon::prelude::*;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Where a run keeps its stores, and how big its fixture is.
pub struct Env {
    /// The pristine fixture store every repetition copies.
    pub fixture: PathBuf,
    /// Records in the fixture.
    pub fixture_records: usize,
    /// Scratch space for per-repetition store copies.
    pub work: PathBuf,
}

impl Env {
    /// A fresh copy of the fixture store named `tag`.
    pub fn fresh_store(&self, tag: &str) -> Result<PathBuf, String> {
        let dir = self.work.join(tag);
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clearing {dir:?}: {e}"))?;
        }
        sys::copy_dir(&self.fixture, &dir).map_err(|e| format!("copying the fixture: {e}"))?;
        Ok(dir)
    }
}

/// When a measuring loop stops: after at least `min` repetitions,
/// once the deadline has passed.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// No repetition beyond the first `min` starts after this instant.
    pub deadline: Instant,
    /// Repetitions that always run.
    pub min: usize,
}

impl Budget {
    /// Whether a loop that has run `reps` repetitions stops.
    pub fn done(&self, reps: usize) -> bool {
        reps >= self.min && Instant::now() >= self.deadline
    }
}

/// Records of one run, by trial identity.
pub type Records = HashMap<TrialKey, TrialRecord>;

/// Every trial record of `report`, keyed as the store keys it.
pub fn keyed(report: &CampaignReport) -> Records {
    report
        .cells
        .iter()
        .flat_map(|cell| {
            cell.report.trials.iter().map(move |r| {
                let key = TrialKey {
                    protocol: cell.protocol.clone(),
                    graph: cell.spec.to_string(),
                    partitioner: cell.partitioner_label(),
                    seed: r.seed,
                };
                (key, r.clone())
            })
        })
        .collect()
}

/// Counts every record as an attempted trial and fails the bad ones:
/// rejected by the validator, over the palette budget, or a Theorem 3
/// trial that sent a bit.
pub fn check_records(ledger: &mut Ledger, records: &Records) {
    ledger.attempt(records.len() as u64);
    for (key, r) in records {
        let within_budget = r.palette_budget.is_none_or(|b| r.colors_used <= b);
        let silent = key.protocol != "edge/theorem3-zero-comm" || r.total_bits() == 0;
        if !(r.valid && within_budget && silent) {
            ledger.fail(format!(
                "{} on {} seed {}: valid={} colors {}/{:?} bits {} {}",
                key.protocol,
                key.graph,
                key.seed,
                r.valid,
                r.colors_used,
                r.palette_budget,
                r.total_bits(),
                r.error.as_deref().unwrap_or("")
            ));
        }
    }
}

/// A workload's jobs parsed and its store opened: the set-up phase.
struct Setup {
    /// Each job's declarations, run back to back.
    jobs: Vec<Vec<CampaignFile>>,
    store: Arc<Mutex<Store>>,
    setup_s: f64,
    open_s: f64,
}

fn setup(jobs: &[Vec<String>], store_dir: &Path) -> Result<Setup, String> {
    let started = Instant::now();
    let jobs = jobs
        .iter()
        .map(|tomls| tomls.iter().map(|t| CampaignFile::parse(t)).collect())
        .collect::<Result<Vec<Vec<_>>, _>>()?;
    let opened = Instant::now();
    let store = Store::open_or_create(store_dir).map_err(|e| format!("opening the store: {e}"))?;
    let open_s = opened.elapsed().as_secs_f64();
    Ok(Setup {
        jobs,
        store: Arc::new(Mutex::new(store)),
        setup_s: started.elapsed().as_secs_f64(),
        open_s,
    })
}

impl Setup {
    /// Job `j`'s campaigns, on the shared open store.
    fn campaigns(&self, j: usize) -> Vec<Campaign> {
        self.jobs[j]
            .iter()
            .map(|f| {
                f.to_campaign(None)
                    .with_shared_store(Arc::clone(&self.store))
            })
            .collect()
    }

    /// Trials in all declared grids.
    fn grid(&self) -> usize {
        self.jobs
            .iter()
            .flatten()
            .map(|f| f.to_campaign(None).cell_count() * f.seeds.len())
            .sum()
    }

    /// Checks the store holds the fixture plus every grid trial.
    fn check_store(&self, env: &Env, ledger: &mut Ledger) {
        let grid = self.grid();
        let stored = self.store.lock().expect("store poisoned").len();
        ledger.check(stored == env.fixture_records + grid, || {
            format!("the store holds {stored} records, not the fixture plus {grid}")
        });
    }
}

/// One untraced repetition's measurements.
pub struct Rep {
    /// Parse plus store open.
    pub setup_s: f64,
    /// `Store::open_or_create` alone.
    pub open_s: f64,
    /// Per job: wall of its `try_run_with_stats` calls.
    pub job_wall_s: Vec<f64>,
    /// Per job: process CPU during those calls.
    pub job_cpu_s: Vec<f64>,
    /// Process context switches during the calls.
    pub ctx_switches: u64,
    /// Graphs the executor built, and graphs trials requested.
    pub graphs: (u64, u64),
    /// Every trial record.
    pub records: Records,
}

impl Rep {
    /// Wall of every job.
    pub fn wall_s(&self) -> f64 {
        self.job_wall_s.iter().sum()
    }

    /// Process CPU of every job.
    pub fn cpu_s(&self) -> f64 {
        self.job_cpu_s.iter().sum()
    }
}

/// Runs the workload's jobs once, one after another on one fresh
/// fixture copy, each job's declarations back to back through
/// `Campaign::try_run_with_stats`, checking their outputs into
/// `ledger`.
pub fn untraced_rep(
    env: &Env,
    jobs: &[Vec<String>],
    tag: &str,
    ledger: &mut Ledger,
) -> Result<Rep, String> {
    let dir = env.fresh_store(tag)?;
    let s = setup(jobs, &dir)?;
    let (mut job_wall_s, mut job_cpu_s, mut ctx_switches) = (Vec::new(), Vec::new(), 0);
    let mut runs = Vec::new();
    for j in 0..s.jobs.len() {
        let campaigns = s.campaigns(j);
        let before = sys::self_usage();
        let started = Instant::now();
        for campaign in campaigns {
            runs.push(
                campaign
                    .try_run_with_stats()
                    .map_err(|e| format!("campaign store: {e}"))?,
            );
        }
        job_wall_s.push(started.elapsed().as_secs_f64());
        let after = sys::self_usage();
        job_cpu_s.push(after.cpu_s - before.cpu_s);
        ctx_switches += after.ctx_switches - before.ctx_switches;
    }
    let records: Records = runs.iter().flat_map(|(report, _)| keyed(report)).collect();
    check_records(ledger, &records);
    let grid = s.grid();
    let accounted: u64 = runs
        .iter()
        .map(|(_, st)| st.trials_computed + st.trials_skipped)
        .sum();
    ledger.check(accounted as usize == grid && records.len() == grid, || {
        format!(
            "{accounted} computed + skipped trials and {} records for a {grid}-trial grid",
            records.len()
        )
    });
    s.check_store(env, ledger);
    let rep = Rep {
        setup_s: s.setup_s,
        open_s: s.open_s,
        job_wall_s,
        job_cpu_s,
        ctx_switches,
        graphs: runs.iter().fold((0, 0), |(b, r), (_, st)| {
            (b + st.graphs_built, r + st.graphs_requested)
        }),
        records,
    };
    drop(s);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    Ok(rep)
}

/// The benchmark's instance cache for traced repetitions: each
/// distinct `(spec, trial seed, partitioner)` instance is built once
/// with `GraphSpec::build` and `Partitioner::split` and shared by
/// every protocol that runs on it, as the executor's cache shares it.
#[derive(Default)]
struct Instances {
    cells: Mutex<InstanceMap>,
    built: AtomicU64,
    build_nanos: AtomicU64,
}

type InstanceMap = HashMap<(String, u64, Partitioner), Arc<OnceLock<Arc<EdgePartition>>>>;

impl Instances {
    /// `Instance::from_spec(spec, partitioner, trial_seed)`, built at
    /// most once.
    fn instance(&self, spec: &GraphSpec, partitioner: Partitioner, trial_seed: u64) -> Instance {
        let label = spec.to_string();
        let cell = {
            let mut cells = self.cells.lock().expect("instance cache poisoned");
            Arc::clone(
                cells
                    .entry((label.clone(), trial_seed, partitioner))
                    .or_default(),
            )
        };
        let partition = cell.get_or_init(|| {
            let _span = bichrome_obs::span("graph/build");
            let started = Instant::now();
            let graph = spec.build(seeds::graph_seed(trial_seed));
            let partition = Arc::new(partitioner.split(&graph));
            self.built.fetch_add(1, Ordering::Relaxed);
            self.build_nanos
                .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
            partition
        });
        Instance {
            label,
            partition: Arc::clone(partition),
            trial_seed,
            seed: seeds::protocol_seed(trial_seed),
        }
    }
}

/// The span name of `Protocol::run` for registry key `key`.
fn core_span(key: &str) -> &'static str {
    static NAMES: OnceLock<HashMap<String, &'static str>> = OnceLock::new();
    NAMES
        .get_or_init(|| {
            registry()
                .names()
                .into_iter()
                .map(|k| {
                    let name: &'static str = Box::leak(format!("core/run/{k}").into_boxed_str());
                    (k.to_string(), name)
                })
                .collect()
        })
        .get(key)
        .copied()
        .unwrap_or("core/run/other")
}

/// One trial of a traced repetition.
struct TracedTrial {
    key: TrialKey,
    record: TrialRecord,
    artifact: Artifact,
    instance: Instance,
    trial_s: f64,
    run_s: f64,
    append_s: f64,
}

/// The per-trial calls into each layer, in the executor's order:
/// instance, `Protocol::run` under the campaign's transport, fault
/// plan and intra-trial budget, `TrialRecord::from_outcome`, then
/// `Store::append`.
fn traced_trial(
    prepared: &PreparedRun,
    i: usize,
    budget: usize,
    ctx: &TrialCtx<'_>,
) -> Result<TracedTrial, String> {
    let key = prepared.pending_key(i).clone();
    let _trial_span = bichrome_obs::span("runner/trial");
    let started = Instant::now();
    let protocol = ctx
        .protocols
        .get(&key.protocol)
        .ok_or_else(|| format!("unknown protocol {:?}", key.protocol))?;
    let spec: GraphSpec = key
        .graph
        .parse()
        .map_err(|e| format!("graph {:?}: {e}", key.graph))?;
    let partitioner = if key.partitioner == DEFAULT_PARTITIONER_LABEL {
        Partitioner::Random(seeds::partition_seed(key.seed))
    } else {
        key.partitioner
            .parse()
            .map_err(|e| format!("partitioner {:?}: {e}", key.partitioner))?
    };
    let instance = ctx.instances.instance(&spec, partitioner, key.seed);
    let ran = Instant::now();
    let outcome = {
        let _run_span = bichrome_obs::span(core_span(&key.protocol));
        with_session_transport(prepared.transport(), || {
            with_session_faults(prepared.fault(), || {
                with_intra_budget(budget, || protocol.run(&instance))
            })
        })
    };
    let run_s = ran.elapsed().as_secs_f64();
    // Kept for the validator re-run after the traced timeline.
    let artifact = outcome.artifact.clone();
    let record = {
        let _record_span = bichrome_obs::span("runner/record");
        TrialRecord::from_outcome(&instance, outcome)
    };
    let trial_s = started.elapsed().as_secs_f64();
    let appended = Instant::now();
    {
        let _append_span = bichrome_obs::span("store/append");
        ctx.store
            .lock()
            .expect("store poisoned")
            .append(key.clone(), record.to_json())
            .map_err(|e| format!("store append: {e}"))?;
    }
    Ok(TracedTrial {
        key,
        record,
        artifact,
        instance,
        trial_s,
        run_s,
        append_s: appended.elapsed().as_secs_f64(),
    })
}

/// What every traced trial shares.
struct TrialCtx<'a> {
    protocols: HashMap<String, Arc<dyn Protocol>>,
    instances: Instances,
    store: &'a Mutex<Store>,
}

/// One traced repetition's per-layer measurements.
pub struct TracedRep {
    /// Root span: prepare plus every trial.
    pub wall_s: f64,
    /// `Store::open_or_create` alone.
    pub open_s: f64,
    /// `Campaign::prepare`.
    pub prepare_s: f64,
    /// Instance builds, summed over threads.
    pub build_s: f64,
    /// Distinct instances built.
    pub builds: u64,
    /// The validator re-run over every artifact.
    pub validate_s: f64,
    /// Per trial: instance, run, record.
    pub trial_s: Vec<f64>,
    /// `Protocol::run` seconds by registry key, summed over threads.
    pub run_s: HashMap<String, f64>,
    /// `Store::append` seconds, summed over threads.
    pub append_s: f64,
    /// `Store::append` calls.
    pub appends: u64,
    /// Span self times by layer.
    pub attribution: Attribution,
    /// Every trial record.
    pub records: Records,
}

/// Clears tracing on every exit path of a traced repetition.
struct TracingOn;

impl TracingOn {
    fn start() -> TracingOn {
        bichrome_obs::clear_spans();
        bichrome_obs::set_tracing(true);
        TracingOn
    }
}

impl Drop for TracingOn {
    fn drop(&mut self) {
        bichrome_obs::set_tracing(false);
    }
}

/// Runs the workload's jobs once, every declaration back to back, with
/// benchmark-side spans around each layer's public calls, on a fresh
/// fixture copy. The spans stay in the obs ring buffer until the next
/// traced repetition.
pub fn traced_rep(
    env: &Env,
    jobs: &[Vec<String>],
    tag: &str,
    ledger: &mut Ledger,
) -> Result<TracedRep, String> {
    let dir = env.fresh_store(tag)?;
    let s = setup(jobs, &dir)?;
    let campaigns: Vec<Campaign> = (0..s.jobs.len()).flat_map(|j| s.campaigns(j)).collect();
    let ctx = TrialCtx {
        protocols: registry()
            .iter()
            .map(|p| (p.name().to_string(), Arc::clone(p)))
            .collect(),
        instances: Instances::default(),
        store: &s.store,
    };
    let workers = rayon::current_num_threads();
    let tracing = TracingOn::start();
    let started = Instant::now();
    let root = bichrome_obs::span(layers::ROOT);
    let mut prepare_s = 0.0;
    let mut trials = Vec::new();
    for campaign in campaigns {
        let prepared_at = Instant::now();
        let prepared = {
            let _span = bichrome_obs::span("runner/prepare");
            campaign.prepare().map_err(|e| format!("prepare: {e}"))?
        };
        prepare_s += prepared_at.elapsed().as_secs_f64();
        let pending = prepared.pending();
        // The executor's intra-trial budget: the worker pool divided
        // over the queue when parallel, the whole pool per trial when
        // serial.
        let budget = if prepared.parallel() {
            workers.checked_div(pending).unwrap_or(workers).max(1)
        } else {
            workers.max(1)
        };
        let indices: Vec<usize> = (0..pending).collect();
        let run = |&i: &usize| traced_trial(&prepared, i, budget, &ctx);
        let done: Vec<Result<TracedTrial, String>> = if prepared.parallel() {
            indices.par_iter().map(run).collect()
        } else {
            indices.iter().map(run).collect()
        };
        trials.extend(done);
    }
    drop(root);
    let wall_s = started.elapsed().as_secs_f64();
    drop(tracing);
    let trials = trials.into_iter().collect::<Result<Vec<_>, _>>()?;
    let attribution = layers::attribute(&bichrome_obs::span_events());

    // Outside the traced timeline: the public validators again, on
    // every artifact, which must agree with each record's verdict.
    let validated = Instant::now();
    let disagreements = trials.iter().filter(|t| !revalidates(t)).count();
    let validate_s = validated.elapsed().as_secs_f64();
    ledger.check(disagreements == 0, || {
        format!("{disagreements} trial verdicts differ from the validator re-run")
    });

    let records: Records = trials
        .iter()
        .map(|t| (t.key.clone(), t.record.clone()))
        .collect();
    check_records(ledger, &records);
    s.check_store(env, ledger);
    let mut run_s: HashMap<String, f64> = HashMap::new();
    for t in &trials {
        *run_s.entry(t.key.protocol.clone()).or_default() += t.run_s;
    }
    let rep = TracedRep {
        wall_s,
        open_s: s.open_s,
        prepare_s,
        build_s: ctx.instances.build_nanos.load(Ordering::Relaxed) as f64 / 1e9,
        builds: ctx.instances.built.load(Ordering::Relaxed),
        validate_s,
        trial_s: trials.iter().map(|t| t.trial_s).collect(),
        run_s,
        append_s: trials.iter().map(|t| t.append_s).sum(),
        appends: trials.len() as u64,
        attribution,
        records,
    };
    drop(s);
    std::fs::remove_dir_all(&dir).map_err(|e| format!("removing {dir:?}: {e}"))?;
    Ok(rep)
}

/// Whether the public validators' verdict on a traced trial's
/// artifact matches the verdict its record carries.
fn revalidates(t: &TracedTrial) -> bool {
    let g = t.instance.graph();
    let ok = match (&t.artifact, t.record.palette_budget) {
        (Artifact::Vertex(c), Some(b)) => validate_vertex_coloring_with_palette(g, c, b).is_ok(),
        (Artifact::Vertex(c), None) => validate_vertex_coloring(g, c).is_ok(),
        (Artifact::Edge(c), Some(b)) => validate_edge_coloring_with_palette(g, c, b).is_ok(),
        (Artifact::Edge(c), None) => validate_edge_coloring(g, c).is_ok(),
        (Artifact::None, _) => return true,
    };
    ok == t.record.valid
}

/// What one untraced repetition reports from the process it ran in.
#[derive(Debug, Default)]
pub struct RepSummary {
    setup_s: f64,
    open_s: f64,
    job_wall_s: Vec<f64>,
    job_cpu_s: Vec<f64>,
    rss_peak_mb: f64,
    graphs_built: u64,
    graphs_requested: u64,
    /// Hash of every record, to compare repetitions.
    digest: u64,
    attempted: u64,
    failures: Vec<String>,
}

fn json_array(xs: &[f64]) -> String {
    let items: Vec<String> = xs.iter().map(|x| format!("{x:?}")).collect();
    format!("[{}]", items.join(","))
}

impl RepSummary {
    /// Runs one untraced repetition in this process and summarises it
    /// with the process's peak resident set.
    pub fn run(env: &Env, jobs: &[Vec<String>], tag: &str) -> Result<RepSummary, String> {
        let mut ledger = Ledger::default();
        let rep = untraced_rep(env, jobs, tag, &mut ledger)?;
        let mut lines: Vec<String> = rep
            .records
            .iter()
            .map(|(k, r)| format!("{k:?} {}", r.to_json()))
            .collect();
        lines.sort();
        let mut hasher = DefaultHasher::new();
        lines.hash(&mut hasher);
        Ok(RepSummary {
            setup_s: rep.setup_s,
            open_s: rep.open_s,
            job_wall_s: rep.job_wall_s,
            job_cpu_s: rep.job_cpu_s,
            rss_peak_mb: sys::self_usage().rss_peak_mb,
            graphs_built: rep.graphs.0,
            graphs_requested: rep.graphs.1,
            digest: hasher.finish(),
            attempted: ledger.attempted(),
            failures: ledger.failures().to_vec(),
        })
    }

    /// One JSON line.
    pub fn to_json(&self) -> String {
        let mut o = Writer::object();
        for (name, v) in [
            ("setup_s", self.setup_s),
            ("open_s", self.open_s),
            ("rss_peak_mb", self.rss_peak_mb),
        ] {
            o.field_f64(name, v);
        }
        o.field_raw("job_wall_s", &json_array(&self.job_wall_s));
        o.field_raw("job_cpu_s", &json_array(&self.job_cpu_s));
        o.field_u64("graphs_built", self.graphs_built);
        o.field_u64("graphs_requested", self.graphs_requested);
        o.field_str("digest", &self.digest.to_string());
        o.field_u64("attempted", self.attempted);
        let failures: Vec<String> = self
            .failures
            .iter()
            .map(|f| format!("\"{}\"", json::escape(f)))
            .collect();
        o.field_raw("failures", &format!("[{}]", failures.join(",")));
        o.finish()
    }

    /// Parses [`RepSummary::to_json`].
    pub fn from_json(line: &str) -> Result<RepSummary, String> {
        let v = Value::parse(line)?;
        let o = v.as_object().ok_or("repetition summary is not an object")?;
        let num = |k: &str| o.get(k).and_then(Value::as_f64).ok_or(format!("no {k}"));
        let count = |k: &str| o.get(k).and_then(Value::as_u64).ok_or(format!("no {k}"));
        let array = |k: &str| -> Result<Vec<f64>, String> {
            match o.get(k) {
                Some(Value::Array(items)) => items
                    .iter()
                    .map(|x| x.as_f64().ok_or(format!("{k} holds a non-number")))
                    .collect(),
                _ => Err(format!("no {k}")),
            }
        };
        let failures = match o.get("failures") {
            Some(Value::Array(items)) => items
                .iter()
                .map(|f| f.as_str().unwrap_or("?").to_string())
                .collect(),
            _ => return Err("no failures".to_string()),
        };
        Ok(RepSummary {
            setup_s: num("setup_s")?,
            open_s: num("open_s")?,
            job_wall_s: array("job_wall_s")?,
            job_cpu_s: array("job_cpu_s")?,
            rss_peak_mb: num("rss_peak_mb")?,
            graphs_built: count("graphs_built")?,
            graphs_requested: count("graphs_requested")?,
            digest: o
                .get("digest")
                .and_then(Value::as_str)
                .and_then(|d| d.parse().ok())
                .ok_or("no digest")?,
            attempted: count("attempted")?,
            failures,
        })
    }
}

/// The untraced measuring loop: repetitions until the budget is
/// spent, each run by `run_rep` in a fresh process (as each `bichrome
/// run` is) and checked there, all required to produce identical
/// records. Sets the end-to-end metrics.
pub fn measure(
    budget: Budget,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
    mut run_rep: impl FnMut(usize) -> Result<RepSummary, String>,
) -> Result<(), String> {
    let mut reps: Vec<RepSummary> = Vec::new();
    while !budget.done(reps.len()) {
        let steal = sys::StealMeter::start();
        let rep = run_rep(reps.len())?;
        ledger.attempt(rep.attempted);
        for failure in &rep.failures {
            ledger.fail(failure.clone());
        }
        if let Some(first) = reps.first() {
            ledger.check(first.digest == rep.digest, || {
                format!("repetition {} records differ from the first", reps.len())
            });
        }
        let fmt = |xs: &[f64]| -> String {
            let items: Vec<String> = xs.iter().map(|x| format!("{x:.4}")).collect();
            items.join(" ")
        };
        println!(
            "rep {}: setup {:.4} s (store open {:.4} s) · job wall {} s · cpu {} s · \
             rss peak {:.1} MB · host steal {:.3} · graphs built {}/{}",
            reps.len(),
            rep.setup_s,
            rep.open_s,
            fmt(&rep.job_wall_s),
            fmt(&rep.job_cpu_s),
            rep.rss_peak_mb,
            steal.fraction(),
            rep.graphs_built,
            rep.graphs_requested
        );
        reps.push(rep);
    }
    let jobs = |f: fn(&RepSummary) -> &Vec<f64>| -> Vec<f64> {
        reps.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let col = |f: fn(&RepSummary) -> f64| reps.iter().map(f).collect::<Vec<f64>>();
    let wall_s = jobs(|r| &r.job_wall_s);
    // Medians over the whole run: the host's speed drifts by a fifth
    // over tens of seconds, and the median of a run moves less with it
    // than its fastest jobs do.
    let wall = median(&wall_s);
    metrics.set("wall_s", wall, "s");
    metrics.set("setup_s", median(&col(|r| r.setup_s)), "s");
    metrics.set("cpu_s", median(&jobs(|r| &r.job_cpu_s)), "s");
    metrics.set("rss_peak_mb", median(&col(|r| r.rss_peak_mb)), "MB");
    // In process a job is one seed window's declarations run back to
    // back; a run holds too few for a p90 with ten jobs beyond it, so
    // both job percentiles are the median job wall.
    metrics.set("job_s_p50", wall, "s");
    metrics.set("job_s_p90", wall, "s");
    println!(
        "samples: {} repetitions, {} jobs; wall and cpu are the median over jobs, \
         setup and rss over repetitions",
        reps.len(),
        wall_s.len()
    );
    Ok(())
}

/// The traced measuring loop: untraced and traced repetitions in
/// pairs until the budget is spent; each traced repetition must
/// reproduce its partner's records. Sets the per-layer metrics of the
/// runner, graph, core, comm, store and obs layers.
pub fn measure_traced(
    env: &Env,
    jobs: &[Vec<String>],
    budget: Budget,
    ledger: &mut Ledger,
    metrics: &mut Metrics,
) -> Result<(), String> {
    let nproc = rayon::current_num_threads() as f64;
    let mut plain: Vec<Rep> = Vec::new();
    let mut traced: Vec<TracedRep> = Vec::new();
    while !budget.done(traced.len()) {
        let i = traced.len();
        let steal = sys::StealMeter::start();
        let u = untraced_rep(env, jobs, &format!("pair-{i}-untraced"), ledger)?;
        let t = traced_rep(env, jobs, &format!("pair-{i}-traced"), ledger)?;
        ledger.check(t.records == u.records, || {
            format!("traced repetition {i} records differ from the untraced ones")
        });
        println!(
            "pair {i}: untraced wall {:.4} s · traced wall {:.4} s · layer coverage {:.3} · \
             host steal {:.3}",
            u.wall_s(),
            t.wall_s,
            t.attribution.coverage(),
            steal.fraction()
        );
        plain.push(u);
        traced.push(t);
    }
    let med_t = |f: &dyn Fn(&TracedRep) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    let med_u = |f: &dyn Fn(&Rep) -> f64| median(&plain.iter().map(f).collect::<Vec<_>>());
    let first = &plain[0];
    let rounds: u64 = first.records.values().map(|r| r.rounds).sum();
    let bits: u64 = first.records.values().map(|r| r.total_bits()).sum();
    let sessions = first.records.values().filter(|r| r.rounds > 0).count();
    let trial_s: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.trial_s.iter().copied())
        .collect();

    metrics.set("runner.prepare_s", med_t(&|t| t.prepare_s), "s");
    metrics.set(
        "runner.utilization",
        med_u(&|u| u.cpu_s() / (nproc * u.wall_s())),
        "ratio",
    );
    metrics.set("runner.trial_s_p50", median(&trial_s), "s");
    metrics.set("runner.trial_s_p99", percentile(&trial_s, 99.0), "s");
    metrics.set("runner.graphs_built", first.graphs.0 as f64, "count");
    metrics.set("runner.graphs_requested", first.graphs.1 as f64, "count");
    metrics.set("graph.build_s", med_t(&|t| t.build_s), "s");
    metrics.set("graph.validate_s", med_t(&|t| t.validate_s), "s");
    for key in registry().names() {
        metrics.set(
            format!("core.run_s.{}", key.replace('/', ".")),
            med_t(&|t| t.run_s.get(key).copied().unwrap_or(0.0)),
            "s",
        );
    }
    metrics.set("comm.rounds", rounds as f64, "count");
    metrics.set("comm.bits", bits as f64, "bit");
    metrics.set("comm.sessions", sessions as f64, "count");
    metrics.set(
        "comm.ctx_switches_per_round",
        med_u(&|u| u.ctx_switches as f64 / rounds.max(1) as f64),
        "count/round",
    );
    let opens: Vec<f64> = plain
        .iter()
        .map(|u| u.open_s)
        .chain(traced.iter().map(|t| t.open_s))
        .collect();
    metrics.set("store.open_s", median(&opens), "s");
    metrics.set("store.append_s", med_t(&|t| t.append_s), "s");
    metrics.set("store.appends", traced[0].appends as f64, "count");
    let traced_wall = median(&traced.iter().map(|t| t.wall_s).collect::<Vec<_>>());
    let plain_wall = median(&plain.iter().map(Rep::wall_s).collect::<Vec<_>>());
    metrics.set(
        "obs.trace_overhead_frac",
        traced_wall / plain_wall - 1.0,
        "ratio",
    );
    metrics.set(
        "obs.layer_coverage",
        med_t(&|t| t.attribution.coverage()),
        "ratio",
    );
    for layer in ["runner", "graph", "core", "store"] {
        metrics.set(
            format!("obs.self_s.{layer}"),
            med_t(&|t| t.attribution.self_s(layer)),
            "s",
        );
    }

    let last = traced.last().expect("at least one traced repetition");
    let a = &last.attribution;
    println!(
        "layer self time, last traced repetition (base: traced wall {:.4} s x {nproc} \
         threads; layer spans open during {:.1}% of the wall):",
        a.wall_s,
        100.0 * a.coverage()
    );
    for (layer, (self_s, spans)) in &a.layers {
        println!(
            "  {layer:<8} {self_s:>10.4} s  {spans:>7} spans  {:>6.1}% of base",
            100.0 * self_s / (a.wall_s * nproc)
        );
    }
    println!(
        "runner.utilization base: {nproc} threads x untraced wall; \
         obs.trace_overhead_frac base: untraced wall {plain_wall:.4} s (median)"
    );
    println!(
        "samples: {} pairs · {} trial timings · graphs built {}/{} requested · \
         {} distinct instances built when traced · comm {} rounds over {} sessions",
        traced.len(),
        trial_s.len(),
        first.graphs.0,
        first.graphs.1,
        last.builds,
        rounds,
        sessions
    );
    Ok(())
}
