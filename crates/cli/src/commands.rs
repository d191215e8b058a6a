//! The `bichrome` subcommands, implemented as pure
//! `args in → output text out` functions so every code path is unit
//! testable without spawning a process.

use bichrome_runner::table::Table;
use bichrome_runner::{
    compute_trial, diff_reports, registry, CampaignFile, CampaignReport, FaultPlan, InstanceCache,
    TransportKind,
};
use bichrome_serve::json::Value;
use bichrome_serve::{Addr, Client, Daemon, DaemonConfig, LeaseGrant, Listener, ProtoError};
use bichrome_store::{Store, TrialKey};
use std::fmt::Write as _;
use std::time::Duration;

/// The usage text (`bichrome help`).
pub const USAGE: &str = "\
bichrome — persistent, resumable campaign runs over every protocol in the registry

USAGE:
    bichrome run <campaign.toml> [--store <dir>] [--format text|json|csv] [--serial]
                 [--transport inproc|pipe|tcp] [--trace-out <file>]
        Run the declared grid. With a store (flag or `store = ...` in the
        file), already-computed trials are skipped and fresh records are
        flushed as workers finish. --transport overrides the file's
        session wire (results are bit-identical on every transport).
        --trace-out records per-trial spans and writes a Chrome
        trace-event JSON file (load it at chrome://tracing or Perfetto);
        results are bit-identical with and without it.
    bichrome resume <campaign.toml> [--store <dir>]
        Alias of `run` that *requires* a store — use after a killed run.
    bichrome report <store-dir> [--format text|json|csv]
        Re-aggregate a CampaignReport purely from a store (no execution).
    bichrome diff <store-a> <store-b>
        Compare mean bits/rounds of the cells two stores share.
    bichrome store merge <a> <b> <out>
        Union two stores into a new one; refuses conflicting records.
    bichrome registry
        List every protocol key and its guarantee.

  The daemon (many clients, one executor, one store):
    bichrome serve <store-dir> [--addr <addr>] [--workers <n>]
                   [--no-local-workers] [--lease-timeout <secs>]
                   [--http <host:port>]
        Run the campaign daemon until a `shutdown` request. The default
        address is unix:<store-dir>/daemon.sock; tcp:<host>:<port> works too
        (the effective address is printed to stderr at startup). With
        --no-local-workers the daemon only schedules: every trial waits
        for a remote worker's lease. --http additionally serves the
        process metrics registry as a Prometheus `GET /metrics`
        endpoint (the effective address is printed to stderr).
    bichrome work --connect <addr> [--max-retries <n>] [--backoff <ms>]
        Pull trials from a daemon, compute them locally, and stream the
        records back. Run any number of these wherever the daemon is
        reachable; one dying mid-trial costs only a lease timeout. A
        trial that fails on the worker (its protocol panics, or its
        session cannot open, say for want of file descriptors) goes
        back as an error: the daemon fails its job and the worker
        keeps leasing. An unreachable or restarting daemon is retried
        with capped exponential backoff (base --backoff ms, default
        100, doubling to 64x; deterministic jitter) for up to
        --max-retries consecutive failures (default 50) before the
        worker gives up.
    bichrome submit <campaign.toml> --addr <addr> [--watch]
        Submit the declaration (sent inline) as a job; --watch streams
        its progress and exits with the final accounting.
    bichrome watch <job-id> --addr <addr>
        Stream a job's per-trial progress until it ends.
    bichrome jobs --addr <addr>
        List every job the daemon knows.
    bichrome cancel <job-id> --addr <addr>
        Cooperatively cancel a running job (completed trials persist).
    bichrome ping --addr <addr>
        Exit 0 if a daemon answers at the address.
    bichrome stats --addr <addr>
        Print the daemon's counters (cache, store, jobs, leases) plus
        lease-age and lease-latency percentiles.
    bichrome metrics --addr <addr>
        Print the daemon's full metrics registry: every counter and
        histogram (with p50/p95/p99) — the same registry its
        `GET /metrics` endpoint exposes.
    bichrome shutdown --addr <addr>
        Drain in-flight jobs, checkpoint the store, stop the daemon.

    bichrome help
        Print this text.
";

/// Dispatches one invocation (argv without the program name).
///
/// # Errors
///
/// Returns the message to print to stderr (exit code 1).
pub fn dispatch(args: &[String]) -> Result<String, String> {
    let strs: Vec<&str> = args.iter().map(String::as_str).collect();
    match strs.split_first() {
        None | Some((&"help", _)) | Some((&"--help", _)) | Some((&"-h", _)) => {
            Ok(USAGE.to_string())
        }
        Some((&"run", rest)) => run(rest, false),
        Some((&"resume", rest)) => run(rest, true),
        Some((&"report", rest)) => report(rest),
        Some((&"diff", rest)) => diff(rest),
        Some((&"store", rest)) => store_cmd(rest),
        Some((&"serve", rest)) => serve(rest),
        Some((&"work", rest)) => work(rest),
        Some((&"submit", rest)) => submit(rest),
        Some((&"watch", rest)) => watch(rest),
        Some((&"jobs", rest)) => jobs(rest),
        Some((&"cancel", rest)) => cancel(rest),
        Some((&"ping", rest)) => ping(rest),
        Some((&"stats", rest)) => stats(rest),
        Some((&"metrics", rest)) => metrics(rest),
        Some((&"shutdown", rest)) => shutdown(rest),
        Some((&"registry", [])) => Ok(registry_listing()),
        Some((&"registry", _)) => Err("registry takes no arguments".to_string()),
        Some((cmd, _)) => Err(format!("unknown command {cmd:?}\n\n{USAGE}")),
    }
}

/// Output format of `run` / `report`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
enum Format {
    /// Human-readable table (plus `ExecStats` after a run).
    #[default]
    Text,
    /// The full `CampaignReport` JSON.
    Json,
    /// The pinned per-cell CSV.
    Csv,
}

/// The flags shared by the subcommands.
#[derive(Debug, Default)]
struct Flags<'a> {
    positional: Vec<&'a str>,
    store: Option<&'a str>,
    format: Format,
    serial: bool,
    addr: Option<&'a str>,
    watch: bool,
    workers: usize,
    transport: Option<TransportKind>,
    connect: Option<&'a str>,
    no_local_workers: bool,
    lease_timeout: Option<u64>,
    max_retries: Option<u32>,
    backoff_ms: Option<u64>,
    trace_out: Option<&'a str>,
    http: Option<&'a str>,
}

impl<'a> Flags<'a> {
    /// The `--addr` flag, parsed — required by the daemon-client
    /// subcommands.
    fn daemon_addr(&self) -> Result<Addr, String> {
        let spec = self
            .addr
            .ok_or("this command talks to a daemon: pass --addr <addr>")?;
        Addr::parse(spec)
    }
}

/// Splits `args` into positionals and recognized flags.
fn parse_flags<'a>(args: &[&'a str], allow: &[&str]) -> Result<Flags<'a>, String> {
    let mut flags = Flags::default();
    let mut it = args.iter();
    while let Some(&arg) = it.next() {
        let check = |flag: &str| -> Result<(), String> {
            if allow.contains(&flag) {
                Ok(())
            } else {
                Err(format!("flag {flag} is not valid for this command"))
            }
        };
        match arg {
            "--store" => {
                check("--store")?;
                flags.store = Some(*it.next().ok_or("--store needs a directory argument")?);
            }
            "--format" => {
                check("--format")?;
                flags.format = match *it.next().ok_or("--format needs text|json|csv")? {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    "csv" => Format::Csv,
                    other => return Err(format!("unknown format {other:?} (text|json|csv)")),
                };
            }
            "--serial" => {
                check("--serial")?;
                flags.serial = true;
            }
            "--addr" => {
                check("--addr")?;
                flags.addr = Some(*it.next().ok_or("--addr needs an address argument")?);
            }
            "--watch" => {
                check("--watch")?;
                flags.watch = true;
            }
            "--workers" => {
                check("--workers")?;
                let n = *it.next().ok_or("--workers needs a thread count")?;
                flags.workers = n
                    .parse()
                    .map_err(|_| format!("--workers {n:?} is not a number"))?;
            }
            "--transport" => {
                check("--transport")?;
                let name = *it.next().ok_or("--transport needs inproc|pipe|tcp")?;
                flags.transport = Some(name.parse()?);
            }
            "--connect" => {
                check("--connect")?;
                flags.connect = Some(*it.next().ok_or("--connect needs a daemon address")?);
            }
            "--no-local-workers" => {
                check("--no-local-workers")?;
                flags.no_local_workers = true;
            }
            "--lease-timeout" => {
                check("--lease-timeout")?;
                let secs = *it.next().ok_or("--lease-timeout needs seconds")?;
                flags.lease_timeout = Some(
                    secs.parse()
                        .map_err(|_| format!("--lease-timeout {secs:?} is not a number"))?,
                );
            }
            "--max-retries" => {
                check("--max-retries")?;
                let n = *it.next().ok_or("--max-retries needs a count")?;
                flags.max_retries = Some(
                    n.parse()
                        .map_err(|_| format!("--max-retries {n:?} is not a number"))?,
                );
            }
            "--backoff" => {
                check("--backoff")?;
                let ms = *it.next().ok_or("--backoff needs milliseconds")?;
                flags.backoff_ms = Some(
                    ms.parse()
                        .map_err(|_| format!("--backoff {ms:?} is not a number"))?,
                );
            }
            "--trace-out" => {
                check("--trace-out")?;
                flags.trace_out = Some(*it.next().ok_or("--trace-out needs a file argument")?);
            }
            "--http" => {
                check("--http")?;
                flags.http = Some(*it.next().ok_or("--http needs a host:port argument")?);
            }
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}")),
            pos => flags.positional.push(pos),
        }
    }
    Ok(flags)
}

/// `bichrome run` / `bichrome resume`.
fn run(args: &[&str], require_store: bool) -> Result<String, String> {
    let flags = parse_flags(
        args,
        &[
            "--store",
            "--format",
            "--serial",
            "--transport",
            "--trace-out",
        ],
    )?;
    let [path] = flags.positional.as_slice() else {
        return Err("expected exactly one campaign file argument".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let file = CampaignFile::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    if require_store && file.store_path(flags.store).is_none() {
        return Err(
            "resume needs a store: pass --store <dir> or set `store = ...` in the campaign file"
                .to_string(),
        );
    }
    let mut campaign = file.to_campaign(flags.store);
    if flags.serial {
        campaign = campaign.parallel(false);
    }
    if let Some(kind) = flags.transport {
        campaign = campaign.transport(kind);
    }
    if flags.trace_out.is_some() {
        bichrome_obs::clear_spans();
        bichrome_obs::set_tracing(true);
    }
    let (report, stats) = campaign
        .try_run_with_stats()
        .map_err(|e| format!("campaign failed: {e}"))?;
    if let Some(out) = flags.trace_out {
        write_trace(out)?;
    }
    match flags.format {
        Format::Json => Ok(report.to_json()),
        Format::Csv => Ok(report.to_csv()),
        Format::Text => {
            let mut out = report.render_table();
            writeln!(out, "{stats}").expect("string write");
            if let Some(store) = file.store_path(flags.store) {
                writeln!(out, "store: {store}").expect("string write");
            }
            Ok(out)
        }
    }
}

/// Exports the recorded spans as a Chrome trace-event file and
/// announces it on stderr (stdout stays the report — json/csv output
/// must remain byte-identical with tracing off).
fn write_trace(path: &str) -> Result<(), String> {
    let spans = bichrome_obs::span_events().len();
    std::fs::write(path, bichrome_obs::export_chrome_trace())
        .map_err(|e| format!("writing {path}: {e}"))?;
    eprintln!("trace: {spans} span(s) written to {path}");
    Ok(())
}

/// `bichrome report`.
fn report(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--format"])?;
    let [dir] = flags.positional.as_slice() else {
        return Err("expected exactly one store directory argument".to_string());
    };
    let store = Store::open_existing(*dir).map_err(|e| e.to_string())?;
    let report = CampaignReport::from_store(&store)?;
    match flags.format {
        Format::Json => Ok(report.to_json()),
        Format::Csv => Ok(report.to_csv()),
        Format::Text => {
            let mut out = report.render_table();
            if let Some(salvage) = store.salvage() {
                writeln!(out, "warning: {salvage}").expect("string write");
            }
            Ok(out)
        }
    }
}

/// `bichrome diff`: baseline-relative comparison of two stores — the
/// first store is the baseline, ratios are `b / a`.
fn diff(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &[])?;
    let [dir_a, dir_b] = flags.positional.as_slice() else {
        return Err("expected exactly two store directory arguments".to_string());
    };
    let load = |dir: &str| -> Result<CampaignReport, String> {
        let store = Store::open_existing(dir).map_err(|e| e.to_string())?;
        CampaignReport::from_store(&store).map_err(|e| format!("{dir}: {e}"))
    };
    let a = load(dir_a)?;
    let b = load(dir_b)?;
    Ok(diff_reports(&a, &b, dir_a, dir_b))
}

/// `bichrome store <subcommand>` — store maintenance. Currently:
/// `merge <a> <b> <out>`.
fn store_cmd(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &[])?;
    match flags.positional.as_slice() {
        ["merge", a, b, out] => {
            let open = |dir: &str| Store::open_existing(dir).map_err(|e| format!("{dir}: {e}"));
            let (sa, sb) = (open(a)?, open(b)?);
            let merged = Store::merge(&sa, &sb, out).map_err(|e| e.to_string())?;
            Ok(format!(
                "merged {} + {} records -> {} records into {out}\n",
                sa.len(),
                sb.len(),
                merged.len()
            ))
        }
        ["merge", ..] => Err("store merge takes exactly <a> <b> <out>".to_string()),
        [sub, ..] => Err(format!("unknown store subcommand {sub:?} (try: merge)")),
        [] => Err("store needs a subcommand (try: merge <a> <b> <out>)".to_string()),
    }
}

/// `bichrome serve`: run the daemon until a `shutdown` request.
fn serve(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(
        args,
        &[
            "--addr",
            "--workers",
            "--no-local-workers",
            "--lease-timeout",
            "--http",
        ],
    )?;
    let [dir] = flags.positional.as_slice() else {
        return Err("expected exactly one store directory argument".to_string());
    };
    let addr = match flags.addr {
        Some(spec) => Addr::parse(spec)?,
        None => Addr::Unix(std::path::Path::new(dir).join("daemon.sock")),
    };
    let mut config = DaemonConfig::default();
    if flags.no_local_workers {
        config.workers = 0;
    } else if flags.workers > 0 {
        config.workers = flags.workers;
    }
    if let Some(secs) = flags.lease_timeout {
        config.lease_timeout = Duration::from_secs(secs);
    }
    let daemon = Daemon::start(*dir, config)?;
    if let Some(http_addr) = flags.http {
        let bound = bichrome_serve::spawn_metrics_http(http_addr)
            .map_err(|e| format!("binding metrics endpoint {http_addr}: {e}"))?;
        // Same contract as the daemon address below: with port 0 this
        // line is where scrapers learn the effective port.
        eprintln!("metrics listening at {bound}");
    }
    let listener = Listener::bind(&addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let effective = listener.local_addr();
    // To stderr, *before* the accept loop blocks: with `--addr
    // tcp:host:0` this is where the kernel-chosen port is announced
    // (workers and tests parse it).
    eprintln!("daemon listening at {effective}");
    daemon
        .serve(listener)
        .map_err(|e| format!("serving {effective}: {e}"))?;
    Ok(format!(
        "daemon at {effective} stopped (store checkpointed)\n"
    ))
}

/// Capped exponential backoff with deterministic jitter: consecutive
/// failure `attempt` (1-based) sleeps `base · 2^min(attempt−1, 6)`
/// plus an attempt-hashed jitter of up to 25%, so successive retries
/// decorrelate from the daemon's own restart cadence while a given
/// attempt always sleeps the same amount — chaos runs replay exactly.
fn backoff_delay(base: Duration, attempt: u32) -> Duration {
    let exp = base.saturating_mul(1 << attempt.saturating_sub(1).min(6));
    // splitmix64-style finalizer over the attempt number.
    let mut h = (u64::from(attempt)).wrapping_add(0x9E37_79B9_7F4A_7C15);
    h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    h ^= h >> 31;
    let jitter_cap = (exp.as_nanos() as u64 / 4).max(1);
    exp + Duration::from_nanos(h % jitter_cap)
}

/// The self-healing worker's view of one daemon interaction: retry
/// transient failures ([`ProtoError::is_retryable`]) with capped
/// exponential backoff, give up on fatal ones or after `max_retries`
/// consecutive failures. Accumulates the outage telemetry the next
/// successful `lease` piggybacks to the daemon.
struct Reconnector {
    base: Duration,
    max_retries: u32,
    /// Consecutive failures (resets on any success).
    failures: u32,
    /// 1 after an outage until the next accepted lease reports it.
    pending_reconnects: u64,
    /// Backoff slept since the last accepted lease, in nanoseconds.
    pending_backoff_ns: u64,
}

impl Reconnector {
    fn new(base: Duration, max_retries: u32) -> Reconnector {
        Reconnector {
            base,
            max_retries,
            failures: 0,
            pending_reconnects: 0,
            pending_backoff_ns: 0,
        }
    }

    /// Records a failed interaction: sleeps the backoff and returns
    /// `Ok(())` to retry, or returns the rendered give-up error.
    fn on_error(&mut self, addr: &Addr, e: &ProtoError) -> Result<(), String> {
        if !e.is_retryable() {
            return Err(format!("daemon at {addr} refused the worker: {e}"));
        }
        self.failures += 1;
        if self.failures > self.max_retries {
            return Err(format!(
                "lost the daemon at {addr} after {} retries: {e}",
                self.max_retries
            ));
        }
        let delay = backoff_delay(self.base, self.failures);
        // The outage (however many failures long) counts as one
        // reconnect once the daemon accepts a request again.
        self.pending_reconnects = 1;
        self.pending_backoff_ns = self
            .pending_backoff_ns
            .saturating_add(delay.as_nanos() as u64);
        std::thread::sleep(delay);
        Ok(())
    }

    /// Records any successful interaction: the outage (if one was in
    /// progress) is over.
    fn on_contact(&mut self) {
        self.failures = 0;
    }

    /// Records a successful `lease` specifically — the one request
    /// that carried the pending telemetry to the daemon, so it is
    /// cleared here and only here.
    fn on_lease_accepted(&mut self) {
        self.failures = 0;
        self.pending_reconnects = 0;
        self.pending_backoff_ns = 0;
    }
}

/// `bichrome work`: a remote worker — pull leases from a daemon,
/// compute them with the ordinary prepared-run machinery, stream the
/// records back, all on one kept connection. A lease waits at the
/// daemon until work arrives, so the worker never sleeps between
/// trials. A trial that fails here (it panics, or its descriptor does
/// not resolve) goes back as its error, and the worker leases on.
/// Exits when the daemon says stop (drain), immediately on a fatal
/// protocol error, or once the daemon has stayed unreachable through
/// `--max-retries` consecutive backoffs.
///
/// Mid-trial disconnects are survived by construction: the lease is
/// re-acquired idempotently (a trial is a pure function of its key,
/// so the daemon accepts whichever copy commits first and discards
/// the rest), and `complete` itself is retried through the same
/// backoff — a token the daemon already retired just answers
/// `accepted: false`.
fn work(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--connect", "--max-retries", "--backoff"])?;
    if !flags.positional.is_empty() {
        return Err("work takes no positional arguments (pass --connect <addr>)".to_string());
    }
    let spec = flags
        .connect
        .ok_or("a worker needs a daemon: pass --connect <addr>")?;
    let addr = Addr::parse(spec)?;
    let client = Client::new(addr.clone());
    let cache = InstanceCache::new();
    let mut computed: u64 = 0;
    let mut retry = Reconnector::new(
        Duration::from_millis(flags.backoff_ms.unwrap_or(100)),
        flags.max_retries.unwrap_or(50),
    );
    loop {
        match client.lease_reporting(retry.pending_reconnects, retry.pending_backoff_ns) {
            Ok(LeaseGrant::Trial(t)) => {
                retry.on_lease_accepted();
                let key = TrialKey {
                    protocol: t.protocol.clone(),
                    graph: t.graph.clone(),
                    partitioner: t.partitioner.clone(),
                    seed: t.seed,
                };
                let result = t
                    .transport
                    .parse::<TransportKind>()
                    .map_err(|e| format!("daemon sent a bad transport: {e}"))
                    .and_then(|kind| {
                        let fault: FaultPlan = t
                            .fault
                            .parse()
                            .map_err(|e| format!("daemon sent a bad fault plan: {e}"))?;
                        compute_trial(&key, kind, &fault, &cache)
                    })
                    .map(|record| record.to_json());
                // Retry the return leg too: completes are idempotent
                // (the token removal arbitrates), so resending after
                // a mid-complete disconnect at worst earns a polite
                // `accepted: false`.
                loop {
                    match client.complete(t.lease, result.as_deref().map_err(String::as_str)) {
                        Ok(accepted) => {
                            retry.on_contact();
                            computed += u64::from(accepted && result.is_ok());
                            break;
                        }
                        Err(e) if !e.is_retryable() => {
                            eprintln!("record for seed {} rejected: {e}", key.seed);
                            break;
                        }
                        Err(e) => retry.on_error(&addr, &e)?,
                    }
                }
            }
            // The daemon held the lease for a while before saying
            // idle, so asking again at once is not a busy loop.
            Ok(LeaseGrant::Idle) => retry.on_lease_accepted(),
            Ok(LeaseGrant::Stop) => break,
            Err(e) => retry.on_error(&addr, &e)?,
        }
    }
    Ok(format!("worker done: computed {computed} trials\n"))
}

/// `bichrome submit`: send a campaign file's *contents* to the
/// daemon (the daemon need not share a filesystem with the client).
fn submit(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr", "--watch"])?;
    let [path] = flags.positional.as_slice() else {
        return Err("expected exactly one campaign file argument".to_string());
    };
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let client = Client::new(flags.daemon_addr()?);
    let job = client.submit(&text)?;
    if !flags.watch {
        return Ok(format!("job {job}\n"));
    }
    let mut out = format!("job {job}\n");
    out.push_str(&watch_to_end(&client, job)?);
    Ok(out)
}

/// `bichrome watch`.
fn watch(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr"])?;
    let [job] = flags.positional.as_slice() else {
        return Err("expected exactly one job-id argument".to_string());
    };
    let job: u64 = job
        .parse()
        .map_err(|_| format!("job id {job:?} is not a number"))?;
    watch_to_end(&Client::new(flags.daemon_addr()?), job)
}

/// Streams a job's events, rendering one line per trial and closing
/// with the `computed N trials (K skipped via store)` accounting.
fn watch_to_end(client: &Client, job: u64) -> Result<String, String> {
    let mut out = String::new();
    let end = client.watch(job, |event| {
        let Some(o) = event.as_object() else { return };
        let s = |f: &str| o.get(f).and_then(Value::as_str).unwrap_or("?").to_string();
        let n = |f: &str| o.get(f).and_then(Value::as_u64).unwrap_or(0);
        writeln!(
            out,
            "trial {}/{}: {} on {} · {} · seed {}",
            n("computed"),
            n("pending"),
            s("protocol"),
            s("graph"),
            s("partitioner"),
            s("seed"),
        )
        .expect("string write");
    })?;
    let o = end.as_object().ok_or("malformed end event")?;
    let state = o.get("state").and_then(Value::as_str).unwrap_or("?");
    let summary = o.get("summary").and_then(Value::as_str).unwrap_or("?");
    writeln!(out, "job {job} {state}: {summary}").expect("string write");
    if let Some(err) = o.get("error").and_then(Value::as_str) {
        writeln!(out, "error: {err}").expect("string write");
    }
    Ok(out)
}

/// `bichrome jobs`.
fn jobs(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr"])?;
    if !flags.positional.is_empty() {
        return Err("jobs takes no positional arguments".to_string());
    }
    let jobs = Client::new(flags.daemon_addr()?).jobs()?;
    let mut t = Table::new(&["job", "state", "computed", "skipped", "total"]);
    for job in &jobs {
        let Some(o) = job.as_object() else { continue };
        let s = |f: &str| o.get(f).and_then(Value::as_str).unwrap_or("?").to_string();
        let n = |f: &str| {
            o.get(f)
                .and_then(Value::as_u64)
                .map_or("?".to_string(), |x| x.to_string())
        };
        t.row(&[
            &n("job"),
            &s("state"),
            &n("computed"),
            &n("skipped"),
            &n("total"),
        ]);
    }
    Ok(format!("{}\n{} job(s)\n", t.render(), jobs.len()))
}

/// `bichrome cancel`.
fn cancel(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr"])?;
    let [job] = flags.positional.as_slice() else {
        return Err("expected exactly one job-id argument".to_string());
    };
    let job: u64 = job
        .parse()
        .map_err(|_| format!("job id {job:?} is not a number"))?;
    Client::new(flags.daemon_addr()?).cancel(job)?;
    Ok(format!("job {job} cancelling\n"))
}

/// `bichrome ping`.
fn ping(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr"])?;
    let addr = flags.daemon_addr()?;
    if Client::new(addr.clone()).ping() {
        Ok(format!("daemon at {addr} is up\n"))
    } else {
        Err(format!("no daemon answers at {addr}"))
    }
}

/// `bichrome stats`: one `name: value` line per daemon counter
/// (sorted by name — `Value` objects are BTreeMaps).
fn stats(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr"])?;
    if !flags.positional.is_empty() {
        return Err("stats takes no positional arguments".to_string());
    }
    let stats = Client::new(flags.daemon_addr()?).stats()?;
    let o = stats.as_object().ok_or("malformed stats reply")?;
    let mut out = String::new();
    for (name, value) in o {
        if name == "ok" {
            continue;
        }
        let rendered = value
            .as_u64()
            .map(|n| n.to_string())
            .or_else(|| value.as_f64().map(|x| format!("{x}")))
            .or_else(|| value.as_str().map(str::to_string))
            .unwrap_or_else(|| "?".to_string());
        writeln!(out, "{name}: {rendered}").expect("string write");
    }
    Ok(out)
}

/// `bichrome metrics`: the daemon's full obs registry, one line per
/// metric — counters as `name: value`, histograms as
/// `name: count=…  sum=… p50=… p95=… p99=…`.
fn metrics(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr"])?;
    if !flags.positional.is_empty() {
        return Err("metrics takes no positional arguments".to_string());
    }
    let v = Client::new(flags.daemon_addr()?).metrics()?;
    let o = v.as_object().ok_or("malformed metrics reply")?;
    let num = |v: &Value| {
        v.as_u64()
            .map(|n| n.to_string())
            .or_else(|| v.as_f64().map(|x| format!("{x}")))
            .unwrap_or_else(|| "?".to_string())
    };
    let mut out = String::new();
    if let Some(entries) = o.get("counters").and_then(Value::as_object) {
        for (name, value) in entries {
            writeln!(out, "{name}: {}", num(value)).expect("string write");
        }
    }
    if let Some(entries) = o.get("histograms").and_then(Value::as_object) {
        for (name, value) in entries {
            let Some(h) = value.as_object() else { continue };
            let f = |field: &str| h.get(field).map_or("?".to_string(), &num);
            writeln!(
                out,
                "{name}: count={} sum={} p50={} p95={} p99={}",
                f("count"),
                f("sum"),
                f("p50"),
                f("p95"),
                f("p99"),
            )
            .expect("string write");
        }
    }
    Ok(out)
}

/// `bichrome shutdown`.
fn shutdown(args: &[&str]) -> Result<String, String> {
    let flags = parse_flags(args, &["--addr"])?;
    let addr = flags.daemon_addr()?;
    Client::new(addr.clone()).shutdown()?;
    Ok(format!("daemon at {addr} drained and stopped\n"))
}

/// `bichrome registry`.
fn registry_listing() -> String {
    let reg = registry();
    let mut t = Table::new(&["key", "guarantee"]);
    for proto in reg.iter() {
        t.row(&[proto.name(), proto.describe()]);
    }
    format!(
        "{}\n{} protocols · use any key on a campaign's protocol axis\n",
        t.render(),
        reg.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dispatch_strs(args: &[&str]) -> Result<String, String> {
        dispatch(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn help_and_unknown_commands() {
        assert!(dispatch_strs(&[]).expect("usage").contains("USAGE"));
        assert!(dispatch_strs(&["help"]).expect("usage").contains("resume"));
        let err = dispatch_strs(&["frobnicate"]).expect_err("unknown");
        assert!(err.contains("unknown command"));
    }

    #[test]
    fn registry_lists_all_protocols() {
        let out = dispatch_strs(&["registry"]).expect("listing");
        for key in registry().names() {
            assert!(out.contains(key), "missing {key}");
        }
        assert!(out.contains("9 protocols"));
    }

    #[test]
    fn flag_validation() {
        assert!(dispatch_strs(&["run"]).is_err(), "missing file");
        assert!(
            dispatch_strs(&["report", "x", "--serial"]).is_err(),
            "--serial is not a report flag"
        );
        assert!(dispatch_strs(&["run", "x", "--format", "yaml"])
            .expect_err("bad format")
            .contains("yaml"),);
        assert!(dispatch_strs(&["diff", "only-one"]).is_err());
        assert!(dispatch_strs(&["report", "/no/such/store"])
            .expect_err("missing store")
            .contains("not a bichrome store"));
    }

    #[test]
    fn transport_and_worker_flags_validate() {
        assert!(
            dispatch_strs(&["run", "x", "--transport", "carrier-pigeon"])
                .expect_err("bad transport")
                .contains("inproc|pipe|tcp")
        );
        assert!(
            dispatch_strs(&["report", "x", "--transport", "tcp"]).is_err(),
            "--transport is not a report flag"
        );
        assert!(dispatch_strs(&["work"])
            .expect_err("worker without a daemon")
            .contains("--connect"));
        assert!(dispatch_strs(&["work", "stray"])
            .expect_err("worker with a positional")
            .contains("no positional"));
        assert!(dispatch_strs(&["serve", "x", "--lease-timeout", "soon"])
            .expect_err("bad timeout")
            .contains("not a number"));
        assert!(
            dispatch_strs(&["run", "x", "--no-local-workers"]).is_err(),
            "--no-local-workers is a serve flag"
        );
    }

    #[test]
    fn self_healing_flags_validate() {
        assert!(
            dispatch_strs(&["work", "--connect", "tcp:x:1", "--max-retries"])
                .expect_err("dangling --max-retries")
                .contains("count")
        );
        assert!(
            dispatch_strs(&["work", "--connect", "tcp:x:1", "--max-retries", "lots"])
                .expect_err("non-numeric retries")
                .contains("not a number")
        );
        assert!(
            dispatch_strs(&["work", "--connect", "tcp:x:1", "--backoff"])
                .expect_err("dangling --backoff")
                .contains("milliseconds")
        );
        assert!(
            dispatch_strs(&["work", "--connect", "tcp:x:1", "--backoff", "slowly"])
                .expect_err("non-numeric backoff")
                .contains("not a number")
        );
        assert!(
            dispatch_strs(&["run", "x", "--max-retries", "3"]).is_err(),
            "--max-retries is a work flag"
        );
        assert!(
            dispatch_strs(&["serve", "x", "--backoff", "10"]).is_err(),
            "--backoff is a work flag"
        );
    }

    #[test]
    fn observability_flags_validate() {
        assert!(
            dispatch_strs(&["report", "x", "--trace-out", "t.json"]).is_err(),
            "--trace-out is a run flag"
        );
        assert!(
            dispatch_strs(&["run", "x", "--http", "127.0.0.1:0"]).is_err(),
            "--http is a serve flag"
        );
        assert!(dispatch_strs(&["run", "x", "--trace-out"])
            .expect_err("dangling --trace-out")
            .contains("file argument"));
        assert!(dispatch_strs(&["metrics"])
            .expect_err("metrics without a daemon")
            .contains("--addr"));
        assert!(dispatch_strs(&["metrics", "stray", "--addr", "tcp:h:1"])
            .expect_err("metrics with a positional")
            .contains("no positional"));
    }
}
