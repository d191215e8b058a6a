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
//! * a fixed pool of worker threads pulling one FIFO of `Task`s
//!   (`(job, pending-trial-index)` pairs) through [`pull_loop`],
//!   shared with the remote workers' leases.
//!
//! `submit` parses an inline campaign declaration, consults the store
//! ([`Campaign::prepare`](bichrome_runner::Campaign::prepare)) and
//! enqueues only the cold trials; a fully
//! warm submission finalizes immediately with `computed 0 trials`.
//! Jobs finish when their last task commits — whichever worker that
//! is runs the aggregation and wakes the job's watchers.
//!
//! # Scheduling
//!
//! The job table, the task queue, the leases, the unfinished-job
//! count and the drain flags sit behind one mutex, and one condition
//! variable wakes every waiter (pool threads, held leases, the
//! reaper, `shutdown`) to re-check its own condition under it, so no
//! wake-up falls between a check and its wait. `submit` counts a job
//! under the lock `shutdown` drains on: a submission racing shutdown
//! is refused or drained. Local and remote trials end in one `settle`.
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
    diff_reports, pull_loop, CacheStats, CampaignFile, CampaignReport, ExecStats, InstanceCache,
    PreparedRun, TrialRecord,
};
use bichrome_store::json;
use bichrome_store::{Store, StoreConfig};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{self, BufRead, BufReader};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread;
use std::time::{Duration, Instant};

/// Tuning knobs for [`Daemon::start`].
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Local pool threads (default: one per core). 0 makes the daemon
    /// a pure scheduler: every trial waits for a remote worker's
    /// `lease` — how the distributed e2e test proves the workers did
    /// all the computing.
    pub workers: usize,
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
            workers: thread::available_parallelism().map_or(1, |n| n.get()),
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

/// The accept loop's pause after a failed `accept` (a full descriptor
/// table, say), so that a lasting failure does not spin a core.
const ACCEPT_PAUSE: Duration = Duration::from_millis(5);

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
    /// A trial, leased out under this token.
    Leased(u64, Task),
    /// Nothing queued: `stop` once the daemon is draining, otherwise
    /// nothing arrived within the hold.
    Empty { stop: bool },
    /// The worker of a held lease hung up; the queue is untouched.
    PeerGone,
}

/// The scheduling state behind `Daemon::sched` (see the module docs).
#[derive(Default)]
struct Sched {
    /// Every job ever submitted; none leaves, so ids count up from 1.
    jobs: BTreeMap<u64, Arc<Job>>,
    /// The one FIFO the local pool and remote leases both pull from.
    queue: VecDeque<Task>,
    /// Outstanding remote-worker leases by token. A `complete` must
    /// find its token here to commit; the reaper removes expired
    /// entries and re-queues their tasks, which is what makes the
    /// remove an exactly-once retirement arbiter — whichever of
    /// {completion, expiry} takes the token owns the trial.
    leases: HashMap<u64, Lease>,
    /// Leases issued so far; also the newest lease's token.
    leases_issued: u64,
    leases_completed: u64,
    leases_expired: u64,
    /// `lease` requests waiting on an empty queue right now.
    leases_held: u64,
    /// Jobs submitted but not yet finalized.
    unfinished: usize,
    /// Set by `shutdown`: refuse new submissions.
    draining: bool,
    /// Set after the drain: the pool and the reaper exit.
    stopping: bool,
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
    sched: Mutex<Sched>,
    /// Notified whenever `sched` changes in a way someone may be
    /// waiting for: work queued, a job finalized, draining or
    /// stopping set. Every waiter re-checks its own condition.
    wake: Condvar,
    /// Set once the shutdown response is on the wire: the accept
    /// loop's cue to exit on its next (self-)connection.
    done_serving: AtomicBool,
    workers: Mutex<Vec<thread::JoinHandle<()>>>,
    lease_timeout: Duration,
    io_timeout: Duration,
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
            sched: Mutex::new(Sched::default()),
            wake: Condvar::new(),
            done_serving: AtomicBool::new(false),
            workers: Mutex::new(Vec::new()),
            lease_timeout: config.lease_timeout,
            io_timeout: config.io_timeout,
        });
        let mut handles = daemon.workers.lock().expect("workers poisoned");
        if config.workers > 0 {
            let d = Arc::clone(&daemon);
            handles.push(thread::spawn(move || {
                pull_loop(
                    config.workers,
                    || d.next_task(),
                    |task| {
                        bichrome_obs::histogram("bichrome_task_queue_nanos")
                            .observe(task.enqueued.elapsed().as_nanos() as u64);
                        let result = task.job.prepared.run_pending(task.idx, &d.cache);
                        let _ = d.settle(&task.job, task.idx, result, false);
                    },
                );
            }));
        }
        // The lease reaper runs even (especially) without a local
        // pool: a dead worker's trials must come back to the queue.
        let d = Arc::clone(&daemon);
        handles.push(thread::spawn(move || d.reap()));
        drop(handles);
        Ok(daemon)
    }

    /// The scheduler lock.
    fn sched(&self) -> MutexGuard<'_, Sched> {
        self.sched.lock().expect("scheduler poisoned")
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
        if self.sched().draining {
            return Err(DRAINING_MSG.to_string());
        }
        let file = CampaignFile::parse(campaign_toml)?;
        let prepared = file
            .to_campaign(None)
            .with_shared_store(Arc::clone(&self.store))
            .prepare()
            .map_err(|e| format!("store: {e}"))?;
        let pending = prepared.pending();
        // Refused or counted under the lock `shutdown` drains on: a
        // job accepted here is one `shutdown` waits for.
        let mut s = self.sched();
        if s.draining {
            return Err(DRAINING_MSG.to_string());
        }
        let id = s.jobs.len() as u64 + 1;
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
        s.jobs.insert(id, Arc::clone(&job));
        s.unfinished += 1;
        s.queue
            .extend((0..pending).map(|idx| Task::new(Arc::clone(&job), idx)));
        drop(s);
        if pending == 0 {
            self.finalize(&job);
        } else {
            self.wake.notify_all();
        }
        Ok(id)
    }

    fn job(&self, id: u64) -> Result<Arc<Job>, String> {
        self.sched()
            .jobs
            .get(&id)
            .cloned()
            .ok_or(format!("no such job {id}"))
    }

    /// A `done` job with its report and worker-time stats.
    fn finished(&self, id: u64) -> Result<(Arc<Job>, CampaignReport, ExecStats), String> {
        let job = self.job(id)?;
        let done = match &job.inner.lock().expect("job poisoned").state {
            JobState::Done(report, stats) => Ok(((**report).clone(), *stats)),
            other => Err(format!("job {id} is {}, not done", other.label())),
        };
        let (report, stats) = done?;
        Ok((job, report, stats))
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
        let jobs: Vec<Arc<Job>> = self.sched().jobs.values().cloned().collect();
        let items: Vec<String> = jobs.iter().map(|j| j.status_line()).collect();
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
                let (job, report, stats) = self.finished(id)?;
                let worker_s = stats.run_nanos as f64 / 1e9;
                let trailer = format!("{} · {worker_s:.3}s worker time", job.summary_phrase());
                Ok(render(&report, Some(trailer)))
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
        let ((_, ra, _), (_, rb, _)) = (self.finished(a)?, self.finished(b)?);
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
        let s = self.sched();
        let now = Instant::now();
        let mut ages: Vec<u64> = s
            .leases
            .values()
            .map(|l| now.saturating_duration_since(l.issued).as_nanos() as u64)
            .collect();
        ages.sort_unstable();
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
        w.field_u64("jobs", s.jobs.len() as u64);
        w.field_u64("records", records);
        w.field_u64("dead_records", dead);
        w.field_u64("leases_outstanding", s.leases.len() as u64);
        w.field_u64("leases_issued", s.leases_issued);
        w.field_u64("leases_completed", s.leases_completed);
        w.field_u64("leases_expired", s.leases_expired);
        w.field_u64("leases_held", s.leases_held);
        drop(s);
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
    /// registry ([`bichrome_obs::render_json`]): every counter and
    /// histogram, the same registry `GET /metrics` serves in
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
        let mut s = self.sched();
        s.draining = true;
        // Held leases answer `stop` now if the queue is empty.
        self.wake.notify_all();
        while s.unfinished > 0 {
            s = self.wake.wait(s).expect("scheduler poisoned");
        }
        s.stopping = true;
        drop(s);
        self.wake.notify_all();
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

    // ----- scheduling -----------------------------------------------------

    /// Pops the first queued task of a live job. A cancelled job's
    /// tasks retire as no-ops on the way past, unlocked, since the
    /// last retirement finalizes the job.
    fn pop_live<'a>(
        &'a self,
        mut s: MutexGuard<'a, Sched>,
    ) -> (MutexGuard<'a, Sched>, Option<Task>) {
        while let Some(task) = s.queue.pop_front() {
            if !task.job.cancel.load(Ordering::SeqCst) {
                return (s, Some(task));
            }
            drop(s);
            self.retire(&task.job);
            s = self.sched();
        }
        (s, None)
    }

    /// The next task for a pool thread, waiting while the queue is
    /// empty; `None` once the daemon is stopping and the queue is
    /// drained.
    fn next_task(&self) -> Option<Task> {
        let mut s = self.sched();
        loop {
            let task;
            (s, task) = self.pop_live(s);
            if task.is_some() || s.stopping {
                return task;
            }
            s = self.wake.wait(s).expect("scheduler poisoned");
        }
    }

    /// Ends pending trial `idx` of `job`, wherever it ran: commits its
    /// record or fails the job with the error (after the trial's key),
    /// then retires the trial.
    /// A `leased` trial counts as a completed lease either way before
    /// the job can finalize, so whoever sees the job end sees the count.
    fn settle(
        &self,
        job: &Arc<Job>,
        idx: usize,
        result: Result<TrialRecord, String>,
        leased: bool,
    ) -> Result<(), String> {
        let settled = result.and_then(|record| {
            job.prepared
                .commit(idx, record)
                .map_err(|e| format!("store append: {e}"))
        });
        match &settled {
            Ok(()) => {
                let done = job.computed.fetch_add(1, Ordering::SeqCst) + 1;
                job.emit_trial(idx, done);
            }
            Err(msg) => job.fail(format!("{}: {msg}", job.prepared.pending_key(idx))),
        }
        if leased {
            self.sched().leases_completed += 1;
        }
        self.retire(job);
        settled
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
        self.sched().unfinished -= 1;
        self.wake.notify_all();
    }

    // ----- remote workers: lease / complete / reaper ----------------------

    /// Pops the next task for a `lease` and files its lease, waiting
    /// up to [`LEASE_HOLD`] while the queue is empty. A lease that had
    /// to wait asks `peer_alive` before it takes a task: a worker that
    /// hung up while held must not strand a trial until its lease
    /// expires.
    fn await_task(&self, peer_alive: &mut dyn FnMut() -> bool) -> Pop {
        let deadline = Instant::now() + LEASE_HOLD;
        let mut held = false;
        let mut s = self.sched();
        let pop = loop {
            let task;
            (s, task) = self.pop_live(s);
            match task {
                Some(task) if held && !peer_alive() => {
                    s.queue.push_front(task);
                    break Pop::PeerGone;
                }
                Some(task) => {
                    s.leases_issued += 1;
                    let token = s.leases_issued;
                    let now = Instant::now();
                    let lease = Lease {
                        job: Arc::clone(&task.job),
                        idx: task.idx,
                        deadline: now + self.lease_timeout,
                        issued: now,
                    };
                    s.leases.insert(token, lease);
                    break Pop::Leased(token, task);
                }
                None if s.draining => break Pop::Empty { stop: true },
                None => {
                    let now = Instant::now();
                    if now >= deadline {
                        break Pop::Empty { stop: false };
                    }
                    if !held {
                        held = true;
                        s.leases_held += 1;
                    }
                    s = self
                        .wake
                        .wait_timeout(s, deadline - now)
                        .expect("scheduler poisoned")
                        .0;
                }
            }
        };
        if held {
            s.leases_held -= 1;
        }
        pop
    }

    /// Answers a remote worker's `lease` request: a trial descriptor
    /// plus token as soon as one is queued, `{"idle":true}` when the
    /// queue stays empty for the whole hold, or `{"stop":true}` once
    /// the daemon is draining *and* the queue is empty (the worker's
    /// cue to exit). Queued trials are still handed out during a drain
    /// — with no local pool they are the only way the drain can
    /// finish. `None` when the worker hung up while its lease was
    /// held, so the connection should close.
    ///
    /// `reconnects` / `backoff_ns` are the worker's piggybacked
    /// self-healing telemetry (outages survived and backoff slept
    /// since its last accepted request); the daemon folds them into
    /// the process registry so `bichrome stats` sees the whole
    /// fleet's reconnect behaviour.
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
        let (token, task) = match self.await_task(peer_alive) {
            Pop::Leased(token, task) => (token, task),
            Pop::PeerGone => return None,
            Pop::Empty { stop } => return Some(ok_with(if stop { "stop" } else { "idle" }, true)),
        };
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
        Some(w.finish())
    }

    /// Accepts a leased trial's result: its computed record, or the
    /// error it failed with on the worker. The token removal is the
    /// exactly-once arbiter: a token the reaper already expired (or one
    /// never issued) gets `{"accepted":false}` and the result is
    /// discarded — the re-queued copy is bit-identical anyway. A
    /// reported failure fails the job, as one on the local pool does. A
    /// record that does not decode (or answers the wrong trial) sends
    /// the trial back to the queue and reports the error.
    pub fn complete_line(&self, token: u64, result: Result<&str, &str>) -> String {
        let lease = self.sched().leases.remove(&token);
        let Some(lease) = lease else {
            // A worker presumed dead limped back with its answer
            // after the reaper re-queued its trial: the bit-identical
            // replacement is (or will be) committed by someone else.
            bichrome_obs::counter("bichrome_completes_discarded_total").inc();
            return ok_with("accepted", false);
        };
        bichrome_obs::histogram("bichrome_lease_service_nanos")
            .observe(lease.issued.elapsed().as_nanos() as u64);
        let (job, idx) = (lease.job, lease.idx);
        if job.cancel.load(Ordering::SeqCst) {
            // Mirrors the local pool on a cancelled job: the result is
            // dropped, the task retires.
            self.retire(&job);
            return ok_with("accepted", false);
        }
        let record_json = match result {
            Ok(record_json) => record_json,
            Err(error) => {
                let _ = self.settle(&job, idx, Err(error.to_string()), true);
                return ok_with("accepted", true);
            }
        };
        let leased_seed = job.prepared.pending_key(idx).seed;
        let record = TrialRecord::from_json(record_json)
            .map_err(|e| format!("bad record: {e}"))
            .and_then(|r| match r.seed {
                seed if seed == leased_seed => Ok(r),
                seed => Err(format!(
                    "record answers seed {seed}, lease is seed {leased_seed}"
                )),
            });
        match record {
            Ok(record) => match self.settle(&job, idx, Ok(record), true) {
                Ok(()) => ok_with("accepted", true),
                Err(msg) => error_line(&msg),
            },
            Err(msg) => {
                bichrome_obs::counter("bichrome_lease_requeues_total").inc();
                self.sched().queue.push_back(Task::new(job, idx));
                self.wake.notify_all();
                error_line(&format!("{msg} — trial re-queued"))
            }
        }
    }

    /// Sends the trials of expired leases back to the queue, checking
    /// every quarter-timeout (and on every wake) until the daemon
    /// stops.
    fn reap(&self) {
        let tick = std::cmp::max(self.lease_timeout / 4, Duration::from_millis(10));
        let mut s = self.sched();
        while !s.stopping {
            s = self
                .wake
                .wait_timeout(s, tick)
                .expect("scheduler poisoned")
                .0;
            let now = Instant::now();
            let Sched { leases, queue, .. } = &mut *s;
            let queued = queue.len();
            queue.extend(
                leases
                    .extract_if(|_, l| l.deadline <= now)
                    .map(|(_, l)| Task::new(l.job, l.idx)),
            );
            let expired = (queue.len() - queued) as u64;
            if expired > 0 {
                s.leases_expired += expired;
                bichrome_obs::counter("bichrome_lease_requeues_total").add(expired);
                self.wake.notify_all();
            }
        }
    }

    // ----- the socket front-end -------------------------------------------

    /// Serves connections on `listener` until a `shutdown` request
    /// completes. One thread per connection; a connection carries
    /// requests in turn until the client closes it, it sits idle past
    /// [`DaemonConfig::io_timeout`], or it carries `shutdown`. A
    /// remote worker keeps one connection for its `lease` and
    /// `complete` requests.
    ///
    /// A failed `accept` (a full file-descriptor table, say) is counted
    /// in `bichrome_daemon_accept_errors_total`, and the loop pauses
    /// 5 ms and accepts again.
    ///
    /// # Errors
    ///
    /// None: accept failures are survived, and the loop returns
    /// `Ok` once `shutdown` has completed.
    pub fn serve(self: &Arc<Self>, listener: Listener) -> io::Result<()> {
        let addr = listener.local_addr();
        loop {
            let accepted = listener.accept();
            if self.done_serving.load(Ordering::SeqCst) {
                return Ok(());
            }
            let Ok(conn) = accepted else {
                bichrome_obs::counter("bichrome_daemon_accept_errors_total").inc();
                thread::sleep(ACCEPT_PAUSE);
                continue;
            };
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
        let or_error = |r: Result<String, String>| r.unwrap_or_else(|e| error_line(&e));
        let output = |r: Result<String, String>| {
            or_error(r.map(|output| {
                let mut w = json::Writer::object();
                w.field_bool("ok", true);
                w.field_str("output", &output);
                w.finish()
            }))
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
            Request::Status { job } => reply(writer, &or_error(self.status(job))),
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
            Request::Report { job, format } => reply(writer, &output(self.report(job, format))),
            Request::Diff { a, b } => reply(writer, &output(self.diff(a, b))),
            Request::Cancel { job } => reply(writer, &or_error(self.cancel(job))),
            Request::Stats => reply(writer, &self.stats_line()),
            Request::Metrics => reply(writer, &self.metrics_line()),
            Request::Lease {
                reconnects,
                backoff_ns,
            } => match self.lease_reply(reconnects, backoff_ns, &mut || peer_alive(reader)) {
                Some(line) => reply(writer, &line),
                None => return false,
            },
            Request::Complete { lease, result } => {
                let result = result.as_deref().map_err(String::as_str);
                reply(writer, &self.complete_line(lease, result));
            }
            Request::Ping => reply(writer, &ok_with("pong", true)),
            Request::Shutdown => {
                let drained = self.shutdown().map(|()| ok_with("drained", true));
                reply(writer, &or_error(drained));
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

/// `{"ok":true,"<flag>":<value>}`.
fn ok_with(flag: &str, value: bool) -> String {
    let mut w = json::Writer::object();
    w.field_bool("ok", true);
    w.field_bool(flag, value);
    w.finish()
}
