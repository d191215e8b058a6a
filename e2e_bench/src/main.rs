//! `bichrome-e2e-bench`: the end-to-end and per-layer benchmark of the
//! bichrome campaign stack. `run.py` next to this crate builds it and
//! the `bichrome` binary, writes the store fixture with the `fixture`
//! subcommand in a process of its own, then runs one workload with
//! the `run` subcommand and passes its output through. Untraced
//! in-process repetitions each run in a fresh process of their own
//! (the `rep` subcommand), as each `bichrome run` does.
//!
//! ```text
//! bichrome-e2e-bench fixture --out DIR --seed N --records R
//! bichrome-e2e-bench run --workload NAME --seed N --seconds S --trace 0|1
//!     --fixture DIR --records R --work DIR --bichrome PATH
//!     [--trace-out FILE] [--source ID] [--smoke]
//! bichrome-e2e-bench rep --workload NAME --seed N --fixture DIR
//!     --records R --work DIR --tag NAME [--smoke]
//! ```
//!
//! The last line `run` prints is the result object: `correct`,
//! `attempted`, `failed` and `metrics`. It exits non-zero when any
//! operation or output check failed.

mod daemon;
mod inproc;
mod layers;
mod report;
mod sys;
mod workloads;

use bichrome_comm::session::run_two_party_ctx_on;
use bichrome_comm::{Message, TransportKind};
use bichrome_graph::coloring::validate_vertex_coloring;
use bichrome_graph::{gen, greedy};
use inproc::{Budget, Env};
use report::{median, Ledger, Metrics};
use std::collections::HashMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};
use workloads::Workload;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "fixture" => flags(rest).and_then(|f| fixture(&f)),
        Some((cmd, rest)) if cmd == "run" => flags(rest).and_then(|f| run(&f)),
        Some((cmd, rest)) if cmd == "rep" => flags(rest).and_then(|f| rep(&f)),
        _ => Err("usage: bichrome-e2e-bench fixture|run --flag value ...".to_string()),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("bichrome-e2e-bench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--name value` pairs (and the bare `--smoke` switch).
struct Flags(HashMap<String, String>);

fn flags(args: &[String]) -> Result<Flags, String> {
    let mut map = HashMap::new();
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = if name == "smoke" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))?
                .clone()
        };
        map.insert(name.to_string(), value);
    }
    Ok(Flags(map))
}

impl Flags {
    fn str(&self, name: &str) -> Result<&str, String> {
        self.0
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{name}"))
    }

    fn num(&self, name: &str) -> Result<u64, String> {
        let v = self.str(name)?;
        v.parse()
            .map_err(|_| format!("--{name} {v:?} is not a number"))
    }

    fn smoke(&self) -> bool {
        self.0.contains_key("smoke")
    }
}

fn fixture(f: &Flags) -> Result<ExitCode, String> {
    let out = PathBuf::from(f.str("out")?);
    let records = f.num("records")? as usize;
    let started = Instant::now();
    workloads::write_fixture(&out, f.num("seed")?, records)?;
    println!(
        "fixture: {records} records written to {} in {:.2} s",
        out.display(),
        started.elapsed().as_secs_f64()
    );
    Ok(ExitCode::SUCCESS)
}

/// The jobs of an in-process workload's repetition, each a list of
/// campaign declarations run back to back.
fn jobs(workload: Workload, seed: u64, smoke: bool) -> Vec<Vec<String>> {
    match workload {
        Workload::PaperGrid => {
            let jobs = if smoke { 2 } else { workloads::PAPER_GRID_JOBS };
            (0..jobs)
                .map(|j| workloads::paper_grid(seed, j, smoke))
                .collect()
        }
        _ => vec![workloads::giant_serial(seed, smoke)],
    }
}

fn env_of(f: &Flags) -> Result<Env, String> {
    Ok(Env {
        fixture: PathBuf::from(f.str("fixture")?),
        fixture_records: f.num("records")? as usize,
        work: PathBuf::from(f.str("work")?),
    })
}

fn workload_of(f: &Flags) -> Result<Workload, String> {
    let name = f.str("workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// `rep`: one untraced repetition of an in-process workload in this
/// fresh process; prints its summary line.
fn rep(f: &Flags) -> Result<ExitCode, String> {
    let jobs = jobs(workload_of(f)?, f.num("seed")?, f.smoke());
    let summary = inproc::RepSummary::run(&env_of(f)?, &jobs, f.str("tag")?)?;
    println!("{}", summary.to_json());
    Ok(ExitCode::SUCCESS)
}

fn run(f: &Flags) -> Result<ExitCode, String> {
    let name = f.str("workload")?;
    let workload = workload_of(f)?;
    let seed = f.num("seed")?;
    let traced = match f.str("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?} is neither 0 nor 1")),
    };
    let smoke = f.smoke();
    let env = env_of(f)?;
    let steal = sys::StealMeter::start();
    println!(
        "workload {name} · seed {seed} · trace {} · smoke {smoke}",
        u8::from(traced)
    );
    let edges_per_s = validator_edges_per_s(smoke);

    let mut ledger = Ledger::default();
    let mut metrics = Metrics::default();
    if traced {
        metrics.set(
            "comm.exchange_us.inproc",
            exchange_us(TransportKind::InProc, smoke),
            "us",
        );
        metrics.set(
            "comm.exchange_us.tcp",
            exchange_us(TransportKind::Tcp, smoke),
            "us",
        );
    }
    // Traced runs alternate an untraced and a traced repetition, so
    // each of their pairs costs twice a repetition.
    let budget = Budget {
        deadline: Instant::now() + Duration::from_secs(f.num("seconds")?),
        min: match (smoke, traced) {
            (true, _) => 1,
            (false, true) => 2,
            (false, false) => 3,
        },
    };
    match workload {
        Workload::PaperGrid | Workload::GiantSerial => {
            let jobs = jobs(workload, seed, smoke);
            println!(
                "{} jobs per repetition, each on the next seed window; job 0:",
                jobs.len()
            );
            for toml in &jobs[0] {
                print!("declaration:\n{toml}");
            }
            if traced {
                inproc::measure_traced(&env, &jobs, budget, &mut ledger, &mut metrics)?;
                for serve in [
                    "serve.submit_s_p50",
                    "serve.first_trial_s_p50",
                    "serve.lease_hit_ratio",
                    "serve.lease_service_s_mean",
                ] {
                    let unit = if serve.ends_with("ratio") {
                        "ratio"
                    } else {
                        "s"
                    };
                    // No daemon in this workload: the serve layer is idle.
                    metrics.set(serve, 0.0, unit);
                }
            } else {
                let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
                inproc::measure(budget, &mut ledger, &mut metrics, |i| {
                    let mut cmd = Command::new(&exe);
                    cmd.arg("rep");
                    for flag in ["workload", "seed", "fixture", "records", "work"] {
                        cmd.arg(format!("--{flag}")).arg(f.str(flag)?);
                    }
                    cmd.arg("--tag").arg(format!("rep-{i}"));
                    if smoke {
                        cmd.arg("--smoke");
                    }
                    let out = cmd
                        .stderr(Stdio::inherit())
                        .output()
                        .map_err(|e| format!("spawning repetition {i}: {e}"))?;
                    if !out.status.success() {
                        return Err(format!("repetition {i} failed: {}", out.status));
                    }
                    let stdout = String::from_utf8_lossy(&out.stdout);
                    inproc::RepSummary::from_json(stdout.lines().last().unwrap_or(""))
                })?;
            }
        }
        Workload::DaemonRemote => {
            let d = daemon::Daemon {
                env: &env,
                bichrome: PathBuf::from(f.str("bichrome")?),
                seed,
                smoke,
            };
            print!(
                "job 0 declaration:\n{}",
                workloads::daemon_job(seed, 0, smoke)
            );
            d.measure(budget, traced, &mut ledger, &mut metrics)?;
        }
    }
    if traced {
        if let Ok(path) = f.str("trace-out") {
            std::fs::write(path, bichrome_obs::export_chrome_trace())
                .map_err(|e| format!("writing {path}: {e}"))?;
            println!("chrome trace of the last traced repetition: {path}");
        }
    }
    for name in metrics.non_finite() {
        ledger.fail(format!("metric {name} is not finite"));
    }

    println!(
        "host: {{\"nproc\":{},\"cpus_online\":{},\"source\":\"{}\",\
         \"validator_edges_per_s\":{edges_per_s:.0},\"steal_frac\":{steal:.4}}}",
        rayon::current_num_threads(),
        sys::online_cpus(),
        f.str("source").unwrap_or("unknown"),
        steal = steal.fraction(),
    );
    print!("metrics:\n{}", metrics.render());
    print!("{}", ledger.render_failures());
    println!(
        "ledger: {} attempted · {} failed",
        ledger.attempted(),
        ledger.failed()
    );
    println!("{}", ledger.result_json(&metrics));
    Ok(if ledger.failed() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Host speed normaliser: edges per second the public vertex-coloring
/// validator checks on a fixed `gnm` graph (median of five passes).
fn validator_edges_per_s(smoke: bool) -> f64 {
    let (n, m) = if smoke {
        (10_000, 40_000)
    } else {
        (200_000, 800_000)
    };
    let g = gen::gnm_max_degree(n, m, 16, 7);
    let coloring = greedy::greedy_vertex_coloring(&g);
    let passes: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let ok = validate_vertex_coloring(&g, &coloring).is_ok();
            assert!(ok, "greedy coloring must validate");
            g.num_edges() as f64 / started.elapsed().as_secs_f64()
        })
        .collect();
    median(&passes)
}

/// Microseconds per round of an empty-message ping-pong through
/// `run_two_party_ctx_on` and `Endpoint::exchange` (median of five
/// sessions).
fn exchange_us(kind: TransportKind, smoke: bool) -> f64 {
    let rounds = if smoke { 200 } else { 2_000 };
    let party = move |ctx: bichrome_comm::session::PartyCtx| {
        for _ in 0..rounds {
            ctx.endpoint.exchange(Message::empty());
        }
    };
    let sessions: Vec<f64> = (0..5)
        .map(|_| {
            let started = Instant::now();
            let (_, _, stats) = run_two_party_ctx_on(kind, 0, party, party);
            assert_eq!(stats.rounds, rounds, "every exchange is one round");
            started.elapsed().as_secs_f64() * 1e6 / rounds as f64
        })
        .collect();
    median(&sessions)
}
