//! The daemon: one shared store, one process-wide instance cache, one
//! worker pool — every submitted campaign's pending trials multiplex
//! onto the same queue.
//!
//! # Architecture
//!
//! A [`Daemon`] owns the process-scoped resources:
//!
//! * the persistent [`Store`] (every job reads and appends through
//!   one `Arc<Mutex<Store>>`, so concurrent jobs share warm results
//!   the moment they commit);
//! * one [`InstanceCache`] — when two in-flight jobs touch the same
//!   `(spec, seed)` graph, it is built exactly once, *across* jobs,
//!   not once per job as `Campaign::run` would;
//! * a fixed pool of worker threads feeding off one FIFO of
//!   `Task`s (`(job, pending-trial-index)` pairs).
//!
//! `submit` parses an inline campaign declaration, consults the store
//! ([`Campaign::prepare`](bichrome_runner::Campaign::prepare)) and
//! enqueues only the cold trials; a fully
//! warm submission finalizes immediately with `computed 0 trials`.
//! Jobs finish when their last task commits — whichever worker that
//! is runs the aggregation and wakes the job's watchers.
//!
//! # Durability
//!
//! Appends are group-flushed (`StoreConfig::flush_every`), flushed
//! again when each job finalizes, and the graceful `shutdown` request
//! drains all in-flight jobs then checkpoints (roll + atomic meta).
//! A hard kill at *any* point loses at most the unflushed tail of the
//! active segment: the next open salvages everything durable and a
//! re-submit recomputes only what was lost (`tests/daemon.rs` kills a
//! store mid-write at a random byte and proves resume convergence).

use crate::net::{read_line_capped, write_line, Addr, Line, Listener, Stream};
use crate::proto::{error_line, error_line_kind, Format, Request, MAX_REQUEST_LINE};
use bichrome_runner::{
    diff_reports, CacheStats, CampaignFile, CampaignReport, ExecStats, InstanceCache, PreparedRun,
    TrialRecord,
};
use bichrome_store::json;
use bichrome_store::{Store, StoreConfig};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Worker threads (0 = one per available core).
    pub workers: usize,
    /// Whether to run the local worker pool at all. `false` turns the
    /// daemon into a pure scheduler: every trial waits for a remote
    /// worker's `lease` — the configuration the distributed e2e test
    /// uses to prove the workers did all the computing.
    pub local_pool: bool,
    /// How long a leased trial may stay outstanding before the reaper
    /// assumes its worker died and re-queues it. Re-issuing is always
    /// safe — a trial is a pure function of its key, so whichever copy
    /// commits first wins and a late duplicate is discarded.
    pub lease_timeout: Duration,
    /// Per-connection socket read/write timeout. A worker that dials
    /// in and then hangs (or a connection severed without a FIN)
    /// would otherwise pin its handler thread forever; with the
    /// timeout the read errors out and the thread retires. A kept
    /// connection idle this long closes the same way; the worker's
    /// next `lease` or `complete` re-dials. Zero disables the
    /// timeouts.
    pub io_timeout: Duration,
    /// Store tuning; the default batches appends (`flush_every: 64`)
    /// since the daemon re-flushes at every job boundary anyway.
    pub store: StoreConfig,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            workers: 0,
            local_pool: true,
            lease_timeout: Duration::from_secs(30),
            io_timeout: Duration::from_secs(30),
            store: StoreConfig {
                flush_every: 64,
                ..StoreConfig::default()
            },
        }
    }
}

/// The drain-rejection message — compared against in the connection
/// handler to tag the error line `kind:"draining"` (retryable).
const DRAINING_MSG: &str = "daemon is shutting down";

/// How long a `lease` that finds the queue empty waits for work
/// before answering `idle`. Work queued during the hold goes out at
/// once, so an idle worker never sleeps; the bound hands control back
/// to the worker once a second, and lets the handler of a worker that
/// died while held notice within that second.
const LEASE_HOLD: Duration = Duration::from_secs(1);

/// One schedulable unit: pending trial `idx` of `job`.
struct Task {
    job: Arc<Job>,
    idx: usize,
    /// When the task (re-)entered the queue — queue-latency histograms
    /// measure from here to the pop.
    enqueued: Instant,
}

impl Task {
    fn new(job: Arc<Job>, idx: usize) -> Task {
        Task {
            job,
            idx,
            enqueued: Instant::now(),
        }
    }
}

/// One outstanding remote-worker lease: trial `idx` of `job` is out
/// with some worker until `deadline`.
struct Lease {
    job: Arc<Job>,
    idx: usize,
    deadline: Instant,
    /// When the lease was issued — service-latency histograms measure
    /// from here to the worker's `complete`.
    issued: Instant,
}

/// What a `lease` request found on the queue.
enum Pop {
    /// A trial to hand out.
    Task(Task),
    /// Nothing arrived within the hold, or the daemon is draining.
    Empty,
    /// The worker of a held lease hung up; the queue is untouched.
    PeerGone,
}

/// Terminal and non-terminal job states.
enum JobState {
    Running,
    Done(Box<CampaignReport>, ExecStats),
    Cancelled,
    Failed(String),
}

impl JobState {
    fn label(&self) -> &'static str {
        match self {
            JobState::Running => "running",
            JobState::Done(..) => "done",
            JobState::Cancelled => "cancelled",
            JobState::Failed(_) => "failed",
        }
    }
}

/// State guarded by one mutex so watcher registration and job
/// finalization cannot interleave (a watcher is either in the list
/// when the end event fans out, or sees the terminal state directly).
struct JobInner {
    state: JobState,
    watchers: Vec<mpsc::Sender<String>>,
}

/// One submitted campaign.
struct Job {
    id: u64,
    prepared: PreparedRun,
    remaining: AtomicUsize,
    computed: AtomicU64,
    cancel: AtomicBool,
    inner: Mutex<JobInner>,
}

impl Job {
    /// The CLI-pinned accounting phrase.
    fn summary_phrase(&self) -> String {
        format!(
            "computed {} trials ({} skipped via store)",
            self.computed.load(Ordering::SeqCst),
            self.prepared.skipped()
        )
    }

    /// Marks the job failed (first failure wins) and stops its
    /// remaining tasks cooperatively.
    fn fail(&self, msg: String) {
        let mut inner = self.inner.lock().expect("job poisoned");
        if matches!(inner.state, JobState::Running) {
            inner.state = JobState::Failed(msg);
        }
        drop(inner);
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Fans one per-trial progress event out to the watchers.
    fn emit_trial(&self, idx: usize, computed_so_far: u64) {
        let key = self.prepared.pending_key(idx);
        let mut w = json::Writer::object();
        w.field_str("event", "trial");
        w.field_u64("job", self.id);
        w.field_str("protocol", &key.protocol);
        w.field_str("graph", &key.graph);
        w.field_str("partitioner", &key.partitioner);
        w.field_str("seed", &key.seed.to_string());
        w.field_u64("computed", computed_so_far);
        w.field_u64("pending", self.prepared.pending() as u64);
        let line = w.finish();
        let mut inner = self.inner.lock().expect("job poisoned");
        inner.watchers.retain(|tx| tx.send(line.clone()).is_ok());
    }

    /// The closing event for `state` (not necessarily terminal yet —
    /// callers pass the post-finalize state).
    fn end_event_line(&self, state: &JobState) -> String {
        let mut w = json::Writer::object();
        w.field_str("event", "end");
        w.field_u64("job", self.id);
        w.field_str("state", state.label());
        w.field_u64("computed", self.computed.load(Ordering::SeqCst));
        w.field_u64("skipped", self.prepared.skipped());
        w.field_str("summary", &self.summary_phrase());
        if let JobState::Failed(msg) = state {
            w.field_str("error", msg);
        }
        w.finish()
    }

    /// One `{"ok":true,...}` status snapshot.
    fn status_line(&self) -> String {
        let inner = self.inner.lock().expect("job poisoned");
        let mut w = json::Writer::object();
        w.field_bool("ok", true);
        w.field_u64("job", self.id);
        w.field_str("state", inner.state.label());
        w.field_u64("total", self.prepared.total_trials() as u64);
        w.field_u64("pending", self.prepared.pending() as u64);
        w.field_u64("computed", self.computed.load(Ordering::SeqCst));
        w.field_u64("skipped", self.prepared.skipped());
        w.field_u64("remaining", self.remaining.load(Ordering::SeqCst) as u64);
        w.field_str("summary", &self.summary_phrase());
        if let JobState::Failed(msg) = &inner.state {
            w.field_str("error", msg);
        }
        w.finish()
    }
}

/// The campaign daemon. See the [module docs](self) for the
/// architecture; construct with [`Daemon::start`], talk to it
/// in-process through the `submit`/`status`/… methods or over a
/// socket via [`Daemon::serve`] + [`crate::Client`].
pub struct Daemon {
    store: Arc<Mutex<Store>>,
    cache: InstanceCache,
    jobs: Mutex<BTreeMap<u64, Arc<Job>>>,
    next_job: AtomicU64,
    queue: Mutex<VecDeque<Task>>,
    queue_cv: Condvar,
    /// Jobs submitted but not yet finalized.
    active: Mutex<usize>,
    idle_cv: Condvar,
    /// Set by `shutdown`: refuse new submissions.
    draining: AtomicBool,
    /// Set after the drain: workers exit once the queue empties.
    stopping: AtomicBool,
    /// Set once the shutdown response is on the wire: the accept
    /// loop's cue to exit on its next (self-)connection.
    done_serving: AtomicBool,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    /// Outstanding remote-worker leases by token. A `complete` must
    /// find its token here to commit; the reaper removes expired
    /// entries and re-queues their tasks, which is what makes the
    /// remove an exactly-once retirement arbiter — whichever of
    /// {completion, expiry} takes the token owns the trial.
    leases: Mutex<HashMap<u64, Lease>>,
    next_lease: AtomicU64,
    lease_timeout: Duration,
    io_timeout: Duration,
    /// The reaper parks on this between scans; shutdown pokes it.
    reaper_mx: Mutex<()>,
    reaper_cv: Condvar,
    leases_issued: AtomicU64,
    leases_completed: AtomicU64,
    leases_expired: AtomicU64,
    /// `lease` requests waiting on an empty queue right now.
    leases_held: AtomicU64,
}

impl Daemon {
    /// Opens (or creates) the store at `dir` and starts the worker
    /// pool. The returned daemon accepts work immediately, with or
    /// without a listening socket.
    ///
    /// # Errors
    ///
    /// Propagates the store open failure as its rendered message.
    pub fn start(dir: impl Into<PathBuf>, config: DaemonConfig) -> Result<Arc<Daemon>, String> {
        let store = Store::open_or_create_with(dir, config.store)
            .map_err(|e| format!("opening store: {e}"))?;
        let daemon = Arc::new(Daemon {
            store: Arc::new(Mutex::new(store)),
            cache: InstanceCache::new(),
            jobs: Mutex::new(BTreeMap::new()),
            next_job: AtomicU64::new(0),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            active: Mutex::new(0),
            idle_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            stopping: AtomicBool::new(false),
            done_serving: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            leases: Mutex::new(HashMap::new()),
            next_lease: AtomicU64::new(0),
            lease_timeout: config.lease_timeout,
            io_timeout: config.io_timeout,
            reaper_mx: Mutex::new(()),
            reaper_cv: Condvar::new(),
            leases_issued: AtomicU64::new(0),
            leases_completed: AtomicU64::new(0),
            leases_expired: AtomicU64::new(0),
            leases_held: AtomicU64::new(0),
        });
        let n = match (config.local_pool, config.workers) {
            (false, _) => 0,
            (true, 0) => thread::available_parallelism().map_or(1, |n| n.get()),
            (true, n) => n,
        };
        let mut handles = daemon.workers.lock().expect("workers poisoned");
        for _ in 0..n {
            let d = Arc::clone(&daemon);
            handles.push(thread::spawn(move || d.worker_loop()));
        }
        // The lease reaper runs even (especially) without a local
        // pool: a dead worker's trials must come back to the queue.
        let d = Arc::clone(&daemon);
        handles.push(thread::spawn(move || d.reaper_loop()));
        drop(handles);
        Ok(daemon)
    }

    /// Submits an inline campaign declaration (TOML text). The file's
    /// own `store` key is ignored — every job runs against the
    /// daemon's store. Returns the job id; a fully warm submission is
    /// already `done` when this returns.
    ///
    /// # Errors
    ///
    /// Rejects malformed declarations and submissions during
    /// shutdown.
    pub fn submit(&self, campaign_toml: &str) -> Result<u64, String> {
        if self.draining.load(Ordering::SeqCst) {
            return Err(DRAINING_MSG.to_string());
        }
        let file = CampaignFile::parse(campaign_toml)?;
        let prepared = file
            .to_campaign(None)
            .with_shared_store(Arc::clone(&self.store))
            .prepare()
            .map_err(|e| format!("store: {e}"))?;
        let id = self.next_job.fetch_add(1, Ordering::SeqCst) + 1;
        let pending = prepared.pending();
        let job = Arc::new(Job {
            id,
            prepared,
            remaining: AtomicUsize::new(pending),
            computed: AtomicU64::new(0),
            cancel: AtomicBool::new(false),
            inner: Mutex::new(JobInner {
                state: JobState::Running,
                watchers: Vec::new(),
            }),
        });
        self.jobs
            .lock()
            .expect("jobs poisoned")
            .insert(id, Arc::clone(&job));
        *self.active.lock().expect("active poisoned") += 1;
        if pending == 0 {
            self.finalize(&job);
        } else {
            let mut q = self.queue.lock().expect("queue poisoned");
            for idx in 0..pending {
                q.push_back(Task::new(Arc::clone(&job), idx));
            }
            drop(q);
            self.queue_cv.notify_all();
        }
        Ok(id)
    }

    fn job(&self, id: u64) -> Result<Arc<Job>, String> {
        self.jobs
            .lock()
            .expect("jobs poisoned")
            .get(&id)
            .cloned()
            .ok_or(format!("no such job {id}"))
    }

    /// One status snapshot line for `job`.
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn status(&self, id: u64) -> Result<String, String> {
        Ok(self.job(id)?.status_line())
    }

    /// `{"ok":true,"jobs":[...]}` — every job, oldest first.
    pub fn jobs_line(&self) -> String {
        let jobs = self.jobs.lock().expect("jobs poisoned");
        let items: Vec<String> = jobs.values().map(|j| j.status_line()).collect();
        let mut w = json::Writer::object();
        w.field_bool("ok", true);
        w.field_raw("jobs", &format!("[{}]", items.join(",")));
        w.finish()
    }

    /// Subscribes to a job's progress. Returns the acknowledgement
    /// line and a receiver of event lines (ending with the `end`
    /// event); a job that already finished yields the `end` event
    /// immediately.
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn watch(&self, id: u64) -> Result<(String, mpsc::Receiver<String>), String> {
        let job = self.job(id)?;
        let (tx, rx) = mpsc::channel();
        let mut inner = job.inner.lock().expect("job poisoned");
        if matches!(inner.state, JobState::Running) {
            inner.watchers.push(tx);
        } else {
            // Terminal already: replay the closing event; dropping
            // `tx` here ends the stream after it.
            let _ = tx.send(job.end_event_line(&inner.state));
        }
        drop(inner);
        let mut w = json::Writer::object();
        w.field_bool("ok", true);
        w.field_u64("job", id);
        Ok((w.finish(), rx))
    }

    /// Cooperative cancel: queued tasks drain as no-ops, in-flight
    /// trials finish (and still commit). No-op on finished jobs.
    ///
    /// # Errors
    ///
    /// Unknown job id.
    pub fn cancel(&self, id: u64) -> Result<String, String> {
        let job = self.job(id)?;
        job.cancel.store(true, Ordering::SeqCst);
        let mut w = json::Writer::object();
        w.field_bool("ok", true);
        w.field_u64("job", id);
        w.field_bool("cancelling", true);
        Ok(w.finish())
    }

    /// Renders a report: of one finished job, or of the whole store.
    ///
    /// # Errors
    ///
    /// Unknown / unfinished job, or an undecodable store record.
    pub fn report(&self, job: Option<u64>, format: Format) -> Result<String, String> {
        let render = |report: &CampaignReport, trailer: Option<String>| match format {
            Format::Json => report.to_json(),
            Format::Csv => report.to_csv(),
            Format::Text => {
                let mut out = report.render_table();
                if let Some(t) = trailer {
                    out.push_str(&t);
                    out.push('\n');
                }
                out
            }
        };
        match job {
            Some(id) => {
                let job = self.job(id)?;
                let inner = job.inner.lock().expect("job poisoned");
                match &inner.state {
                    JobState::Done(report, stats) => Ok(render(
                        report,
                        Some(format!(
                            "{} · {:.3}s worker time",
                            job.summary_phrase(),
                            stats.run_nanos as f64 / 1e9
                        )),
                    )),
                    other => Err(format!("job {id} is {}, not done", other.label())),
                }
            }
            None => {
                let store = self.store.lock().expect("store poisoned");
                let report = CampaignReport::from_store(&store)?;
                Ok(render(&report, None))
            }
        }
    }

    /// Baseline-relative diff of two finished jobs (`a` is baseline).
    ///
    /// # Errors
    ///
    /// Unknown / unfinished job ids.
    pub fn diff(&self, a: u64, b: u64) -> Result<String, String> {
        let report_of = |id: u64| -> Result<Box<CampaignReport>, String> {
            let job = self.job(id)?;
            let inner = job.inner.lock().expect("job poisoned");
            match &inner.state {
                JobState::Done(report, _) => Ok(report.clone()),
                other => Err(format!("job {id} is {}, not done", other.label())),
            }
        };
        let (ra, rb) = (report_of(a)?, report_of(b)?);
        Ok(diff_reports(
            &ra,
            &rb,
            &format!("job {a}"),
            &format!("job {b}"),
        ))
    }

    /// The daemon-wide instance-cache counters — across *all* jobs,
    /// which is what proves cross-job dedup (two overlapping grids,
    /// `graphs_built` counts each distinct graph once).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// `{"ok":true,...}` daemon counters: cache, store, jobs, leases.
    pub fn stats_line(&self) -> String {
        let cs = self.cache_stats();
        let (records, dead) = {
            let store = self.store.lock().expect("store poisoned");
            (store.len() as u64, store.dead_records() as u64)
        };
        let (outstanding, ages) = {
            let leases = self.leases.lock().expect("leases poisoned");
            let now = Instant::now();
            let mut ages: Vec<u64> = leases
                .values()
                .map(|l| now.saturating_duration_since(l.issued).as_nanos() as u64)
                .collect();
            ages.sort_unstable();
            (leases.len() as u64, ages)
        };
        // Nearest-rank over the *currently outstanding* leases — how
        // long today's in-flight work has been out, exactly (the
        // histograms below cover completed lifecycles, to within a
        // log₂ bucket).
        let age_pct = |p: f64| -> u64 {
            if ages.is_empty() {
                return 0;
            }
            let rank = ((p / 100.0 * ages.len() as f64).ceil() as usize).clamp(1, ages.len());
            ages[rank - 1]
        };
        let queue = bichrome_obs::histogram("bichrome_lease_queue_nanos");
        let service = bichrome_obs::histogram("bichrome_lease_service_nanos");
        let backoff = bichrome_obs::histogram("bichrome_worker_backoff_nanos");
        let mut w = json::Writer::object();
        w.field_bool("ok", true);
        w.field_u64("graphs_requested", cs.graphs_requested);
        w.field_u64("graphs_built", cs.graphs_built);
        w.field_u64("partitions_requested", cs.partitions_requested);
        w.field_u64("partitions_built", cs.partitions_built);
        w.field_u64(
            "jobs",
            self.jobs.lock().expect("jobs poisoned").len() as u64,
        );
        w.field_u64("records", records);
        w.field_u64("dead_records", dead);
        w.field_u64("leases_outstanding", outstanding);
        w.field_u64("leases_issued", self.leases_issued.load(Ordering::SeqCst));
        w.field_u64(
            "leases_completed",
            self.leases_completed.load(Ordering::SeqCst),
        );
        w.field_u64("leases_expired", self.leases_expired.load(Ordering::SeqCst));
        w.field_u64("leases_held", self.leases_held.load(Ordering::SeqCst));
        // The chaos ledger: how often trials bounced back to the
        // queue, how many late answers were dropped, and how hard the
        // worker fleet had to fight to stay connected.
        w.field_u64(
            "lease_requeues",
            bichrome_obs::counter("bichrome_lease_requeues_total").get(),
        );
        w.field_u64(
            "completes_discarded",
            bichrome_obs::counter("bichrome_completes_discarded_total").get(),
        );
        w.field_u64(
            "worker_reconnects",
            bichrome_obs::counter("bichrome_worker_reconnects_total").get(),
        );
        w.field_f64("worker_backoff_ns_p50", backoff.percentile(50.0));
        w.field_f64("worker_backoff_ns_p95", backoff.percentile(95.0));
        w.field_f64("worker_backoff_ns_p99", backoff.percentile(99.0));
        w.field_u64("lease_age_ns_p50", age_pct(50.0));
        w.field_u64("lease_age_ns_p95", age_pct(95.0));
        w.field_u64("lease_age_ns_p99", age_pct(99.0));
        w.field_f64("lease_queue_ns_p50", queue.percentile(50.0));
        w.field_f64("lease_queue_ns_p95", queue.percentile(95.0));
        w.field_f64("lease_queue_ns_p99", queue.percentile(99.0));
        w.field_f64("lease_service_ns_p50", service.percentile(50.0));
        w.field_f64("lease_service_ns_p95", service.percentile(95.0));
        w.field_f64("lease_service_ns_p99", service.percentile(99.0));
        w.finish()
    }

    /// `{"ok":true,"metrics":{...}}` — the process-wide observability
    /// registry ([`bichrome_obs::render_json`]): every counter, gauge,
    /// and histogram, the same registry `GET /metrics` serves in
    /// Prometheus text form.
    pub fn metrics_line(&self) -> String {
        let mut w = json::Writer::object();
        w.field_bool("ok", true);
        w.field_raw("metrics", &bichrome_obs::render_json());
        w.finish()
    }

    /// Graceful shutdown: refuse new submissions, drain every
    /// in-flight job, stop the workers, and checkpoint the store
    /// (flush + segment roll + atomic meta rewrite).
    ///
    /// # Errors
    ///
    /// Propagates the checkpoint failure as its rendered message.
    pub fn shutdown(&self) -> Result<(), String> {
        self.draining.store(true, Ordering::SeqCst);
        // Held leases answer `stop` now if the queue is empty. Taking
        // the queue lock first means no held lease is between its
        // `draining` check and its wait, where the wake-up would be
        // lost.
        drop(self.queue.lock().expect("queue poisoned"));
        self.queue_cv.notify_all();
        let mut active = self.active.lock().expect("active poisoned");
        while *active > 0 {
            active = self.idle_cv.wait(active).expect("active poisoned");
        }
        drop(active);
        // The same for the pool and the reaper: with each one's lock
        // taken after the store, no worker or reaper is between its
        // `stopping` check and its wait. A worker's wait has no
        // timeout, so a lost wake-up would hang the join below.
        self.stopping.store(true, Ordering::SeqCst);
        drop(self.queue.lock().expect("queue poisoned"));
        self.queue_cv.notify_all();
        drop(self.reaper_mx.lock().expect("reaper poisoned"));
        self.reaper_cv.notify_all();
        let handles = std::mem::take(&mut *self.workers.lock().expect("workers poisoned"));
        for h in handles {
            let _ = h.join();
        }
        self.store
            .lock()
            .expect("store poisoned")
            .checkpoint()
            .map_err(|e| format!("store checkpoint: {e}"))
    }

    // ----- the worker pool ------------------------------------------------

    fn worker_loop(&self) {
        loop {
            let task = {
                let mut q = self.queue.lock().expect("queue poisoned");
                loop {
                    if let Some(t) = q.pop_front() {
                        break Some(t);
                    }
                    if self.stopping.load(Ordering::SeqCst) {
                        break None;
                    }
                    q = self.queue_cv.wait(q).expect("queue poisoned");
                }
            };
            match task {
                Some(task) => self.process(task),
                None => return,
            }
        }
    }

    fn process(&self, task: Task) {
        bichrome_obs::histogram("bichrome_task_queue_nanos")
            .observe(task.enqueued.elapsed().as_nanos() as u64);
        let job = &task.job;
        if !job.cancel.load(Ordering::SeqCst) {
            // A panicking protocol poisons only its own job, not the
            // daemon: the job turns `failed` and its queue drains.
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                job.prepared.run_pending(task.idx, &self.cache)
            }));
            match outcome {
                Ok(record) => match job.prepared.commit(task.idx, record) {
                    Ok(()) => {
                        let done = job.computed.fetch_add(1, Ordering::SeqCst) + 1;
                        job.emit_trial(task.idx, done);
                    }
                    Err(e) => job.fail(format!("store append: {e}")),
                },
                Err(panic) => job.fail(panic_message(panic.as_ref())),
            }
        }
        self.retire(job);
    }

    /// Retires one pending trial of `job` — the last retirement (by
    /// local worker, remote completion, or cancelled-task drain)
    /// finalizes the job.
    fn retire(&self, job: &Arc<Job>) {
        if job.remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.finalize(job);
        }
    }

    /// Runs exactly once per job, by whichever worker (or `submit`,
    /// for warm jobs) retires its last pending trial.
    fn finalize(&self, job: &Arc<Job>) {
        let mut inner = job.inner.lock().expect("job poisoned");
        if matches!(inner.state, JobState::Running) {
            if job.cancel.load(Ordering::SeqCst) {
                inner.state = JobState::Cancelled;
            } else {
                let (report, stats) = job.prepared.finish();
                inner.state = JobState::Done(Box::new(report), stats);
            }
        }
        let end = job.end_event_line(&inner.state);
        for tx in inner.watchers.drain(..) {
            let _ = tx.send(end.clone());
        }
        drop(inner);
        // Job boundaries are durability boundaries: whatever the
        // group-flush batching left buffered lands now.
        let _ = self.store.lock().expect("store poisoned").flush();
        let mut active = self.active.lock().expect("active poisoned");
        *active -= 1;
        drop(active);
        self.idle_cv.notify_all();
    }

    // ----- remote workers: lease / complete / reaper ----------------------

    /// Pops the next task for a `lease`, waiting up to [`LEASE_HOLD`]
    /// while the queue is empty. Cancelled jobs' queued tasks retire
    /// as no-ops on the way past, exactly as the local pool would have
    /// drained them. A lease that had to wait asks `peer_alive` before
    /// it takes a task: a worker that hung up while held must not
    /// strand a trial until its lease expires.
    fn await_task(&self, peer_alive: &mut dyn FnMut() -> bool) -> Pop {
        let deadline = Instant::now() + LEASE_HOLD;
        let mut held = false;
        let mut q = self.queue.lock().expect("queue poisoned");
        let pop = loop {
            match q.front() {
                Some(t) if t.job.cancel.load(Ordering::SeqCst) => {
                    let t = q.pop_front().expect("front exists");
                    drop(q);
                    self.retire(&t.job);
                    q = self.queue.lock().expect("queue poisoned");
                }
                Some(_) if held && !peer_alive() => break Pop::PeerGone,
                Some(_) => break Pop::Task(q.pop_front().expect("front exists")),
                None => {
                    let now = Instant::now();
                    if self.draining.load(Ordering::SeqCst) || now >= deadline {
                        break Pop::Empty;
                    }
                    if !held {
                        held = true;
                        self.leases_held.fetch_add(1, Ordering::SeqCst);
                    }
                    q = self
                        .queue_cv
                        .wait_timeout(q, deadline - now)
                        .expect("queue poisoned")
                        .0;
                }
            }
        };
        if held {
            self.leases_held.fetch_sub(1, Ordering::SeqCst);
        }
        pop
    }

    /// Answers a remote worker's `lease` request: a trial descriptor
    /// plus token as soon as one is queued, `{"idle":true}` when the
    /// queue stays empty for the whole hold, or `{"stop":true}` once
    /// the daemon is draining *and* the queue is empty (the worker's
    /// cue to exit). Queued trials are still handed out during a drain
    /// — with no local pool they are the only way the drain can
    /// finish.
    ///
    /// `reconnects` / `backoff_ns` are the worker's piggybacked
    /// self-healing telemetry (outages survived and backoff slept
    /// since its last accepted request); the daemon folds them into
    /// the process registry so `bichrome stats` sees the whole
    /// fleet's reconnect behaviour.
    pub fn lease_line(&self, reconnects: u64, backoff_ns: u64) -> String {
        self.lease_reply(reconnects, backoff_ns, &mut || true)
            .expect("an in-process caller never hangs up")
    }

    /// [`Daemon::lease_line`] for a socket peer: `None` when the
    /// worker hung up while its lease was held, so the connection
    /// should close.
    fn lease_reply(
        &self,
        reconnects: u64,
        backoff_ns: u64,
        peer_alive: &mut dyn FnMut() -> bool,
    ) -> Option<String> {
        if reconnects > 0 {
            bichrome_obs::counter("bichrome_worker_reconnects_total").add(reconnects);
        }
        if backoff_ns > 0 {
            bichrome_obs::histogram("bichrome_worker_backoff_nanos").observe(backoff_ns);
        }
        let task = match self.await_task(peer_alive) {
            Pop::Task(task) => task,
            Pop::PeerGone => return None,
            Pop::Empty => {
                let mut w = json::Writer::object();
                w.field_bool("ok", true);
                if self.draining.load(Ordering::SeqCst) {
                    w.field_bool("stop", true);
                } else {
                    w.field_bool("idle", true);
                }
                return Some(w.finish());
            }
        };
        let token = self.next_lease.fetch_add(1, Ordering::SeqCst) + 1;
        bichrome_obs::histogram("bichrome_lease_queue_nanos")
            .observe(task.enqueued.elapsed().as_nanos() as u64);
        let key = task.job.prepared.pending_key(task.idx);
        let mut w = json::Writer::object();
        w.field_bool("ok", true);
        w.field_u64("lease", token);
        w.field_u64("job", task.job.id);
        w.field_str("protocol", &key.protocol);
        w.field_str("graph", &key.graph);
        w.field_str("partitioner", &key.partitioner);
        // Seeds are full-range u64; strings dodge the f64 wire format.
        w.field_str("seed", &key.seed.to_string());
        w.field_str("transport", task.job.prepared.transport().name());
        // Chaos campaigns ship their fault plan so the worker injects
        // the daemon's exact faults (recovered below the meter — the
        // record comes back bit-identical regardless).
        let fault = task.job.prepared.fault();
        if !fault.is_noop() {
            w.field_str("fault", &fault.to_string());
        }
        let line = w.finish();
        self.leases.lock().expect("leases poisoned").insert(
            token,
            Lease {
                job: task.job,
                idx: task.idx,
                deadline: Instant::now() + self.lease_timeout,
                issued: Instant::now(),
            },
        );
        self.leases_issued.fetch_add(1, Ordering::SeqCst);
        Some(line)
    }

    /// Accepts a leased trial's computed record. The token removal is
    /// the exactly-once arbiter: a token the reaper already expired
    /// (or one never issued) gets `{"accepted":false}` and the record
    /// is discarded — the re-queued copy is bit-identical anyway. A
    /// record that does not decode (or answers the wrong trial) sends
    /// the trial back to the queue and reports the error.
    pub fn complete_line(&self, token: u64, record_json: &str) -> String {
        let lease = self.leases.lock().expect("leases poisoned").remove(&token);
        let Some(lease) = lease else {
            // A worker presumed dead limped back with its answer
            // after the reaper re-queued its trial: the bit-identical
            // replacement is (or will be) committed by someone else.
            bichrome_obs::counter("bichrome_completes_discarded_total").inc();
            let mut w = json::Writer::object();
            w.field_bool("ok", true);
            w.field_bool("accepted", false);
            return w.finish();
        };
        bichrome_obs::histogram("bichrome_lease_service_nanos")
            .observe(lease.issued.elapsed().as_nanos() as u64);
        let job = lease.job;
        if job.cancel.load(Ordering::SeqCst) {
            // Mirrors the local pool on a cancelled job: the result is
            // dropped, the task retires.
            self.retire(&job);
            let mut w = json::Writer::object();
            w.field_bool("ok", true);
            w.field_bool("accepted", false);
            return w.finish();
        }
        let leased_seed = job.prepared.pending_key(lease.idx).seed;
        let requeue = |job: Arc<Job>, msg: String| -> String {
            bichrome_obs::counter("bichrome_lease_requeues_total").inc();
            let mut q = self.queue.lock().expect("queue poisoned");
            q.push_back(Task::new(job, lease.idx));
            drop(q);
            self.queue_cv.notify_all();
            error_line(&format!("{msg} — trial re-queued"))
        };
        let record = match TrialRecord::from_json(record_json) {
            Ok(r) => r,
            Err(e) => return requeue(job, format!("bad record: {e}")),
        };
        if record.seed != leased_seed {
            return requeue(
                job,
                format!(
                    "record answers seed {}, lease is seed {leased_seed}",
                    record.seed
                ),
            );
        }
        match job.prepared.commit(lease.idx, record) {
            Ok(()) => {
                let done = job.computed.fetch_add(1, Ordering::SeqCst) + 1;
                job.emit_trial(lease.idx, done);
                self.leases_completed.fetch_add(1, Ordering::SeqCst);
                self.retire(&job);
                let mut w = json::Writer::object();
                w.field_bool("ok", true);
                w.field_bool("accepted", true);
                w.finish()
            }
            Err(e) => {
                let msg = format!("store append: {e}");
                job.fail(msg.clone());
                self.retire(&job);
                error_line(&msg)
            }
        }
    }

    /// Scans for expired leases every quarter-timeout and sends their
    /// trials back to the queue; `shutdown` pokes `reaper_cv` so the
    /// thread exits promptly.
    fn reaper_loop(&self) {
        let tick = std::cmp::max(self.lease_timeout / 4, Duration::from_millis(10));
        let mut guard = self.reaper_mx.lock().expect("reaper poisoned");
        while !self.stopping.load(Ordering::SeqCst) {
            guard = self
                .reaper_cv
                .wait_timeout(guard, tick)
                .expect("reaper poisoned")
                .0;
            self.reap_expired();
        }
    }

    fn reap_expired(&self) {
        let now = Instant::now();
        let expired: Vec<Lease> = {
            let mut leases = self.leases.lock().expect("leases poisoned");
            let tokens: Vec<u64> = leases
                .iter()
                .filter(|(_, l)| l.deadline <= now)
                .map(|(&t, _)| t)
                .collect();
            tokens
                .into_iter()
                .map(|t| leases.remove(&t).expect("token just listed"))
                .collect()
        };
        if expired.is_empty() {
            return;
        }
        self.leases_expired
            .fetch_add(expired.len() as u64, Ordering::SeqCst);
        bichrome_obs::counter("bichrome_lease_requeues_total").add(expired.len() as u64);
        let mut q = self.queue.lock().expect("queue poisoned");
        for l in expired {
            q.push_back(Task::new(l.job, l.idx));
        }
        drop(q);
        self.queue_cv.notify_all();
    }

    // ----- the socket front-end -------------------------------------------

    /// Serves connections on `listener` until a `shutdown` request
    /// completes. One thread per connection; a connection carries
    /// requests in turn until the client closes it, it sits idle past
    /// [`DaemonConfig::io_timeout`], or it carries `shutdown`. A
    /// remote worker keeps one connection for its `lease` and
    /// `complete` requests.
    ///
    /// # Errors
    ///
    /// Propagates accept failures.
    pub fn serve(self: &Arc<Self>, listener: Listener) -> io::Result<()> {
        let addr = listener.local_addr();
        loop {
            let conn = listener.accept()?;
            if self.done_serving.load(Ordering::SeqCst) {
                return Ok(());
            }
            // Bound every accepted connection's blocking reads and
            // writes: a client that dials in and goes silent (or a
            // connection severed without a FIN) must not pin this
            // handler thread forever. Failure to arm the timeout is
            // not fatal — the handler just runs unbounded.
            if !self.io_timeout.is_zero() {
                let _ = conn.set_timeouts(Some(self.io_timeout));
            }
            let daemon = Arc::clone(self);
            let wake = addr.clone();
            thread::spawn(move || daemon.handle_connection(conn, &wake));
        }
    }

    fn handle_connection(&self, conn: Stream, wake: &Addr) {
        let Ok(read_half) = conn.try_clone() else {
            return;
        };
        let mut reader = BufReader::new(read_half);
        let mut writer = conn;
        let mut line = String::new();
        loop {
            match read_line_capped(&mut reader, MAX_REQUEST_LINE, &mut line) {
                Ok(Line::Complete) => {}
                // EOF (a bare connect included: liveness probe,
                // shutdown wake), the io timeout, or a broken socket.
                Ok(Line::Eof) | Err(_) => return,
                Ok(Line::TooLong) => {
                    // Skip the rest of the line without buffering it,
                    // so a client still sending it reads the refusal
                    // instead of a reset.
                    let _ = reader.skip_until(b'\n');
                    let msg = format!("request line longer than {MAX_REQUEST_LINE} bytes");
                    let _ = write_line(&mut writer, &error_line(&msg));
                    return;
                }
            }
            if !self.answer(&line, &mut reader, &mut writer, wake) {
                return;
            }
        }
    }

    /// Answers one request line; `false` closes the connection.
    fn answer(
        &self,
        line: &str,
        reader: &mut BufReader<Stream>,
        writer: &mut Stream,
        wake: &Addr,
    ) -> bool {
        let reply = |writer: &mut Stream, line: &str| {
            let _ = write_line(writer, line);
        };
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err(e) => {
                reply(writer, &error_line(&e));
                return true;
            }
        };
        let verb = req.verb();
        bichrome_obs::counter_labeled("bichrome_daemon_requests_total", &[("verb", verb)]).inc();
        // Observes on drop — for `watch` that spans the whole stream,
        // which is the request's actual service time.
        let _request_timer =
            bichrome_obs::histogram_labeled("bichrome_daemon_request_nanos", &[("verb", verb)])
                .start_timer();
        match req {
            Request::Submit { campaign } => match self.submit(&campaign) {
                Ok(id) => {
                    let mut w = json::Writer::object();
                    w.field_bool("ok", true);
                    w.field_u64("job", id);
                    reply(writer, &w.finish());
                }
                // Tag the drain rejection so clients classify it as
                // retryable without matching the human-readable text.
                Err(e) if e == DRAINING_MSG => {
                    reply(writer, &error_line_kind(&e, "draining"));
                }
                Err(e) => reply(writer, &error_line(&e)),
            },
            Request::Status { job } => match self.status(job) {
                Ok(line) => reply(writer, &line),
                Err(e) => reply(writer, &error_line(&e)),
            },
            Request::Jobs => reply(writer, &self.jobs_line()),
            Request::Watch { job } => match self.watch(job) {
                Ok((ack, rx)) => {
                    reply(writer, &ack);
                    for event in rx {
                        if write_line(writer, &event).is_err() {
                            break; // client hung up; sender side prunes us
                        }
                    }
                }
                Err(e) => reply(writer, &error_line(&e)),
            },
            Request::Report { job, format } => match self.report(job, format) {
                Ok(output) => {
                    let mut w = json::Writer::object();
                    w.field_bool("ok", true);
                    w.field_str("output", &output);
                    reply(writer, &w.finish());
                }
                Err(e) => reply(writer, &error_line(&e)),
            },
            Request::Diff { a, b } => match self.diff(a, b) {
                Ok(output) => {
                    let mut w = json::Writer::object();
                    w.field_bool("ok", true);
                    w.field_str("output", &output);
                    reply(writer, &w.finish());
                }
                Err(e) => reply(writer, &error_line(&e)),
            },
            Request::Cancel { job } => match self.cancel(job) {
                Ok(line) => reply(writer, &line),
                Err(e) => reply(writer, &error_line(&e)),
            },
            Request::Stats => reply(writer, &self.stats_line()),
            Request::Metrics => reply(writer, &self.metrics_line()),
            Request::Lease {
                reconnects,
                backoff_ns,
            } => match self.lease_reply(reconnects, backoff_ns, &mut || peer_alive(reader)) {
                Some(line) => reply(writer, &line),
                None => return false,
            },
            Request::Complete { lease, record } => {
                reply(writer, &self.complete_line(lease, &record));
            }
            Request::Ping => {
                let mut w = json::Writer::object();
                w.field_bool("ok", true);
                w.field_bool("pong", true);
                reply(writer, &w.finish());
            }
            Request::Shutdown => {
                match self.shutdown() {
                    Ok(()) => {
                        let mut w = json::Writer::object();
                        w.field_bool("ok", true);
                        w.field_bool("drained", true);
                        reply(writer, &w.finish());
                    }
                    Err(e) => reply(writer, &error_line(&e)),
                }
                self.done_serving.store(true, Ordering::SeqCst);
                // Unblock the accept loop so `serve` can return.
                let _ = Stream::connect(wake);
                return false;
            }
        }
        true
    }
}

/// Whether the worker behind a held `lease` is still connected,
/// consuming nothing: one non-blocking read into the handler's buffer.
/// EOF or a reset means it hung up while held; `WouldBlock`, or bytes
/// already buffered, mean it is still there.
fn peer_alive(reader: &mut BufReader<Stream>) -> bool {
    if !reader.buffer().is_empty() || reader.get_ref().set_nonblocking(true).is_err() {
        return true;
    }
    let alive = match reader.fill_buf() {
        Ok(bytes) => !bytes.is_empty(),
        Err(e) => matches!(
            e.kind(),
            io::ErrorKind::WouldBlock | io::ErrorKind::Interrupted
        ),
    };
    // Should this fail, the next blocking read errors out and the
    // connection closes, as for a peer that is gone.
    let _ = reader.get_ref().set_nonblocking(false);
    alive
}

/// Renders a caught panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("trial panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("trial panicked: {s}")
    } else {
        "trial panicked".to_string()
    }
}
