//! The `daemon-remote` workload: the real `bichrome serve
//! --no-local-workers` on an ephemeral loopback TCP port, two real
//! `bichrome work` processes, and one closed-loop client that submits
//! a job, watches it to its end event, then submits the next.
//!
//! A run is a series of rounds, each on a fresh copy of the store
//! fixture: spawn and wait until the daemon answers and both workers
//! have leased (set-up), run the round's jobs (timed), then shut the
//! daemon down and kill and reap every process it involved.

use crate::inproc::{self, check_records, Budget, Env, Records};
use crate::report::{median, percentile, Ledger, Metrics};
use crate::sys;
use crate::workloads::{daemon_job, DAEMON_JOBS_PER_ROUND};
use bichrome_runner::campaign::DEFAULT_PARTITIONER_LABEL;
use bichrome_runner::{CampaignFile, TrialRecord};
use bichrome_serve::json::Value;
use bichrome_serve::{Addr, Client, Format};
use bichrome_store::{Store, TrialKey};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a daemon may take to announce its address, and the
/// workers to make their first lease.
const STARTUP_TIMEOUT: Duration = Duration::from_secs(60);

/// The idle `bichrome work` poll interval.
const WORKER_POLL: Duration = Duration::from_millis(25);

/// The client's think time before job `j` of a round: a golden-ratio
/// sweep of one worker poll interval. Without it the closed loop locks
/// the submits to one phase of the idle workers' sleep for a whole
/// round, and that phase, not the program, sets the round's latencies.
fn think_time(j: usize) -> Duration {
    WORKER_POLL.mul_f64((j as f64 * 0.618_033_988_749_895).fract())
}

/// What the rounds share.
pub struct Daemon<'a> {
    /// Fixture and scratch space.
    pub env: &'a Env,
    /// The `bichrome` executable under test.
    pub bichrome: PathBuf,
    /// The benchmark seed (picks every job's trial seeds).
    pub seed: u64,
    /// Tiny sizes for the self-check.
    pub smoke: bool,
}

/// A spawned process, killed and reaped on drop so that no error path
/// leaks one, with the thread reading its stderr joined after it.
struct Spawned {
    child: Option<Child>,
    reader: Option<JoinHandle<()>>,
}

impl Spawned {
    fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// Waits up to `grace` for the process to exit by itself, then
    /// kills it; always reaps it and joins its stderr reader. Returns
    /// whether it exited by itself.
    fn finish(&mut self, grace: Duration) -> bool {
        let mut exited = true;
        if let Some(mut child) = self.child.take() {
            let deadline = Instant::now() + grace;
            exited = loop {
                match child.try_wait() {
                    Ok(Some(_)) => break true,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    _ => break false,
                }
            };
            if !exited {
                let _ = child.kill();
            }
            let _ = child.wait();
        }
        if let Some(reader) = self.reader.take() {
            let _ = reader.join();
        }
        exited
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        self.finish(Duration::ZERO);
    }
}

impl Daemon<'_> {
    fn spawn(&self, args: &[&str], stderr: Stdio) -> Result<Child, String> {
        Command::new(&self.bichrome)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(stderr)
            .spawn()
            .map_err(|e| format!("spawning {:?} {}: {e}", self.bichrome, args.join(" ")))
    }

    /// Starts `bichrome serve` on `store`, returning the process and
    /// the address it announces on stderr.
    fn serve(&self, store: &Path) -> Result<(Spawned, Addr), String> {
        let store = store.to_str().ok_or("store path is not UTF-8")?;
        let args = [
            "serve",
            store,
            "--addr",
            "tcp:127.0.0.1:0",
            "--no-local-workers",
        ];
        let mut child = self.spawn(&args, Stdio::piped())?;
        let stderr = child.stderr.take().ok_or("daemon stderr not captured")?;
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines().map_while(Result::ok) {
                match line.strip_prefix("daemon listening at ") {
                    Some(addr) => {
                        let _ = tx.send(addr.to_string());
                    }
                    None => eprintln!("daemon: {line}"),
                }
            }
        });
        let daemon = Spawned {
            child: Some(child),
            reader: Some(reader),
        };
        let announced = rx
            .recv_timeout(STARTUP_TIMEOUT)
            .map_err(|_| "the daemon never announced its address".to_string())?;
        Ok((daemon, Addr::parse(&announced)?))
    }

    fn work(&self, addr: &Addr) -> Result<Spawned, String> {
        let child = self.spawn(&["work", "--connect", &addr.to_string()], Stdio::inherit())?;
        Ok(Spawned {
            child: Some(child),
            reader: None,
        })
    }
}

/// Lease requests the daemon has answered, from its `metrics` verb.
fn lease_requests(metrics: &Value) -> u64 {
    metrics
        .as_object()
        .and_then(|m| m.get("counters"))
        .and_then(Value::as_object)
        .and_then(|counters| {
            counters
                .iter()
                .find(|(name, _)| {
                    name.starts_with("bichrome_daemon_requests_total") && name.contains("\"lease\"")
                })
                .and_then(|(_, v)| v.as_u64())
        })
        .unwrap_or(0)
}

fn field_u64(v: &Value, name: &str) -> u64 {
    v.as_object()
        .and_then(|o| o.get(name))
        .and_then(Value::as_u64)
        .unwrap_or(0)
}

/// Mean lease-to-complete seconds from the daemon's
/// `bichrome_lease_service_nanos` histogram (its percentiles are log₂
/// bucket bounds; sum over count is exact).
fn lease_service_mean_s(metrics: &Value) -> f64 {
    let histogram = metrics
        .as_object()
        .and_then(|m| m.get("histograms"))
        .and_then(Value::as_object)
        .and_then(|h| h.get("bichrome_lease_service_nanos"));
    let count = histogram.map_or(0, |h| field_u64(h, "count"));
    let sum = histogram.map_or(0, |h| field_u64(h, "sum"));
    sum as f64 / count.max(1) as f64 / 1e9
}

/// The store keys of every trial a declaration holds.
fn keys_of(toml: &str) -> Result<Vec<TrialKey>, String> {
    let file = CampaignFile::parse(toml)?;
    let partitioners: Vec<String> = if file.partitioners.is_empty() {
        vec![DEFAULT_PARTITIONER_LABEL.to_string()]
    } else {
        file.partitioners.iter().map(ToString::to_string).collect()
    };
    let mut keys = Vec::new();
    for protocol in &file.protocols {
        for graph in &file.graphs {
            for partitioner in &partitioners {
                for &seed in &file.seeds {
                    keys.push(TrialKey {
                        protocol: protocol.clone(),
                        graph: graph.to_string(),
                        partitioner: partitioner.clone(),
                        seed,
                    });
                }
            }
        }
    }
    Ok(keys)
}

/// One round's measurements.
struct Round {
    setup_s: f64,
    wall_s: f64,
    cpu_s: f64,
    rss_peak_mb: f64,
    job_s: Vec<f64>,
    submit_s: Vec<f64>,
    first_trial_s: Vec<f64>,
    lease_hit_ratio: f64,
    lease_service_s_mean: f64,
}

impl Daemon<'_> {
    fn jobs_per_round(&self) -> usize {
        if self.smoke {
            4
        } else {
            DAEMON_JOBS_PER_ROUND
        }
    }

    /// One round: set up, run the jobs closed-loop, tear down, check.
    /// `compare_csv` also checks the first job's CSV report against an
    /// in-process run of the same declaration.
    fn round(&self, r: usize, compare_csv: bool, ledger: &mut Ledger) -> Result<Round, String> {
        let store = self.env.fresh_store(&format!("round-{r}"))?;
        let tomls: Vec<String> = (0..self.jobs_per_round())
            .map(|j| daemon_job(self.seed, j, self.smoke))
            .collect();

        let started = Instant::now();
        let (mut daemon, addr) = self.serve(&store)?;
        let mut workers = [self.work(&addr)?, self.work(&addr)?];
        let client = Client::new(addr);
        let ready_by = Instant::now() + STARTUP_TIMEOUT;
        while !(client.ping() && client.metrics().is_ok_and(|m| lease_requests(&m) >= 2)) {
            if Instant::now() > ready_by {
                return Err("the workers never leased".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let setup_s = started.elapsed().as_secs_f64();

        let pids = [daemon.pid(), workers[0].pid(), workers[1].pid()];
        let cpu = || pids.iter().filter_map(|&p| sys::proc_cpu_s(p)).sum::<f64>();
        let cpu_before = cpu();
        let (mut job_s, mut submit_s, mut first_trial_s, mut ids) =
            (vec![], vec![], vec![], vec![]);
        let timed = Instant::now();
        for (j, toml) in tomls.iter().enumerate() {
            std::thread::sleep(think_time(j));
            let submitted = Instant::now();
            let job = client.submit(toml).map_err(|e| format!("submit: {e}"))?;
            submit_s.push(submitted.elapsed().as_secs_f64());
            let mut first = None;
            let end = client
                .watch(job, |_| {
                    first.get_or_insert(submitted.elapsed().as_secs_f64());
                })
                .map_err(|e| format!("watch job {job}: {e}"))?;
            job_s.push(submitted.elapsed().as_secs_f64());
            first_trial_s.extend(first);
            let trials = keys_of(toml)?.len() as u64;
            let state = end
                .as_object()
                .and_then(|o| o.get("state"))
                .and_then(Value::as_str)
                .unwrap_or("?")
                .to_string();
            let computed = field_u64(&end, "computed");
            ledger.attempt(1);
            if state != "done" || computed != trials || field_u64(&end, "skipped") != 0 {
                ledger.fail(format!(
                    "job {job} ended {state} with {computed} of {trials} trials computed"
                ));
            }
            ids.push(job);
        }
        let wall_s = timed.elapsed().as_secs_f64();
        let cpu_s = cpu() - cpu_before;
        let rss_peak_mb = pids
            .iter()
            .filter_map(|&p| sys::proc_rss_peak_mb(p))
            .fold(0.0, f64::max);

        let stats = client.stats().map_err(|e| format!("stats: {e}"))?;
        let metrics = client.metrics().map_err(|e| format!("metrics: {e}"))?;
        let issued = field_u64(&stats, "leases_issued");
        let requests = lease_requests(&metrics);
        for counter in ["leases_expired", "worker_reconnects"] {
            let n = field_u64(&stats, counter);
            ledger.check(n == 0, || format!("round {r}: {counter} = {n}"));
        }
        let daemon_csv = if compare_csv {
            Some(
                client
                    .report(Some(ids[0]), Format::Csv)
                    .map_err(|e| format!("report: {e}"))?,
            )
        } else {
            None
        };

        client.shutdown().map_err(|e| format!("shutdown: {e}"))?;
        ledger.check(daemon.finish(Duration::from_secs(10)), || {
            format!("round {r}: the daemon did not exit after shutdown")
        });
        for w in &mut workers {
            // A worker that leased during the drain got `stop` and has
            // exited; one that missed it would retry the gone daemon for
            // minutes, so it is killed.
            w.finish(Duration::from_millis(100));
        }

        if let Some(daemon_csv) = daemon_csv {
            let file = CampaignFile::parse(&tomls[0])?;
            let local = file.to_campaign(None).run().to_csv();
            ledger.check(daemon_csv == local, || {
                format!("round {r}: the daemon's CSV report differs from an in-process run")
            });
        }
        self.check_store(&store, &tomls, ledger)?;
        std::fs::remove_dir_all(&store).map_err(|e| format!("removing {store:?}: {e}"))?;

        Ok(Round {
            setup_s,
            wall_s,
            cpu_s,
            rss_peak_mb,
            job_s,
            submit_s,
            first_trial_s,
            lease_hit_ratio: issued as f64 / requests.max(1) as f64,
            lease_service_s_mean: lease_service_mean_s(&metrics),
        })
    }

    /// Every job trial must be in the daemon's store, valid, and the
    /// store must hold nothing else beyond the fixture.
    fn check_store(&self, dir: &Path, tomls: &[String], ledger: &mut Ledger) -> Result<(), String> {
        let store = Store::open_existing(dir).map_err(|e| format!("reopening the store: {e}"))?;
        let mut records = Records::new();
        let mut missing = 0;
        for toml in tomls {
            for key in keys_of(toml)? {
                match store.get(&key).map(TrialRecord::from_json) {
                    Some(Ok(record)) => {
                        records.insert(key, record);
                    }
                    _ => missing += 1,
                }
            }
        }
        check_records(ledger, &records);
        ledger.check(missing == 0, || {
            format!("{missing} job trials missing from the store")
        });
        let extra = store
            .len()
            .saturating_sub(self.env.fixture_records + records.len());
        ledger.check(extra == 0, || {
            format!("{extra} unexpected records in the store")
        });
        Ok(())
    }

    /// Rounds until the budget is spent. Sets the end-to-end metrics,
    /// and with `traced` the serve-layer metrics plus the other
    /// layers' from the first job's declaration run in process.
    pub fn measure(
        &self,
        budget: Budget,
        traced: bool,
        ledger: &mut Ledger,
        metrics: &mut Metrics,
    ) -> Result<(), String> {
        let mut rounds: Vec<Round> = Vec::new();
        while !budget.done(rounds.len()) {
            let steal = sys::StealMeter::start();
            let round = self.round(rounds.len(), rounds.is_empty(), ledger)?;
            println!(
                "round {}: setup {:.4} s · {} jobs in {:.4} s · cpu {:.3} s · \
                 job p50 {:.4} s p90 {:.4} s · host steal {:.3}",
                rounds.len(),
                round.setup_s,
                round.job_s.len(),
                round.wall_s,
                round.cpu_s,
                median(&round.job_s),
                percentile(&round.job_s, 90.0),
                steal.fraction()
            );
            rounds.push(round);
        }
        let per_round = |f: fn(&Round) -> f64| median(&rounds.iter().map(f).collect::<Vec<_>>());
        let pooled = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
            rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
        };
        let jobs = pooled(|r| &r.job_s);
        if !traced {
            // Medians over the whole run: the host's speed drifts by a
            // fifth over tens of seconds, and the median of a run moves
            // less with it than its fastest rounds do.
            metrics.set("wall_s", per_round(|r| r.wall_s), "s");
            metrics.set("setup_s", per_round(|r| r.setup_s), "s");
            metrics.set("cpu_s", per_round(|r| r.cpu_s), "s");
            metrics.set("rss_peak_mb", per_round(|r| r.rss_peak_mb), "MB");
            metrics.set("job_s_p50", median(&jobs), "s");
            metrics.set("job_s_p90", percentile(&jobs, 90.0), "s");
            println!("wall, setup, cpu and rss are the median over rounds, job percentiles over all jobs");
        }
        let first_trials = pooled(|r| &r.first_trial_s);
        println!(
            "samples: {} rounds · {} jobs (closed loop, 1 client) · {} first-trial events",
            rounds.len(),
            jobs.len(),
            first_trials.len()
        );
        let orphans = sys::child_pids();
        let survivors = sys::pids_running(&self.bichrome);
        ledger.check(orphans.is_empty() && survivors.is_empty(), || {
            format!("processes outlived the run: children {orphans:?}, bichrome {survivors:?}")
        });
        if traced {
            metrics.set("serve.submit_s_p50", median(&pooled(|r| &r.submit_s)), "s");
            metrics.set("serve.first_trial_s_p50", median(&first_trials), "s");
            metrics.set(
                "serve.lease_hit_ratio",
                per_round(|r| r.lease_hit_ratio),
                "ratio",
            );
            metrics.set(
                "serve.lease_service_s_mean",
                per_round(|r| r.lease_service_s_mean),
                "s",
            );
            println!("in-process layers of job 0's declaration:");
            let reference = Budget {
                deadline: Instant::now(),
                min: 3,
            };
            inproc::measure_traced(
                self.env,
                &[vec![daemon_job(self.seed, 0, self.smoke)]],
                reference,
                ledger,
                metrics,
            )?;
        }
        Ok(())
    }
}
