//! The three workloads as generated campaign declarations, and the
//! results-store fixture every workload opens.
//!
//! The benchmark seed picks the trial-seed window of every declaration
//! and the keys and values of the fixture; the program under test
//! only ever sees the generated TOML and the store directory.

use bichrome_runner::campaign::DEFAULT_PARTITIONER_LABEL;
use bichrome_runner::{registry, seeds, TrialRecord};
use bichrome_store::{Store, StoreConfig, TrialKey};
use std::collections::BTreeMap;
use std::path::Path;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// All registry protocols on three families at n≈1024, in parallel.
    PaperGrid,
    /// Three protocols on one ~10⁶-edge graph, serially.
    GiantSerial,
    /// Many small jobs through `bichrome serve` and two `bichrome work`.
    DaemonRemote,
}

impl Workload {
    /// Every workload (`paper-grid` runs by name only; it is not in
    /// `BENCHMARK.json`).
    pub const ALL: [Workload; 3] = [
        Workload::PaperGrid,
        Workload::GiantSerial,
        Workload::DaemonRemote,
    ];

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperGrid => "paper-grid",
            Workload::GiantSerial => "giant-serial",
            Workload::DaemonRemote => "daemon-remote",
        }
    }

    /// The workload named `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// First trial seed of the window benchmark seed `seed` selects.
fn window(seed: u64) -> u64 {
    (seed % 1_000_000) * 1_000_000 + 1
}

/// Trial seeds per protocol × family cell of one `paper-grid` job (27
/// cells, ~0.6 s): long enough that thread and page set-up costs, which
/// host steal inflates most, are a small share of it.
const PAPER_GRID_SEEDS: u64 = 16;

/// `paper-grid` jobs per repetition, each on the next seed window: the
/// first runs in a cold process, the others after it.
pub const PAPER_GRID_JOBS: usize = 4;

/// The registry protocols whose rounds grow with `n` (Θ(n) and
/// O(n log Δ)): each round is a thread hand-off, whose latency host
/// steal inflates far more than compute, so `paper-grid` runs them on
/// a sixteenth of the vertices to keep their share of its wall time
/// small.
const ROUND_BOUND: [&str; 2] = ["baseline/flin-mittal", "baseline/greedy-binary-search"];

/// Jobs per daemon round, and trial seeds per job.
pub const DAEMON_JOBS_PER_ROUND: usize = 20;
const DAEMON_SEEDS_PER_JOB: u64 = 8;

/// Job `j` of `paper-grid`: the paper's table shape, as two
/// declarations over one seed window: every registry protocol on three
/// families at n=1024, except the [`ROUND_BOUND`] ones, which run at
/// n=64.
pub fn paper_grid(seed: u64, j: usize, smoke: bool) -> Vec<String> {
    let (n, seeds) = if smoke {
        (64, 2)
    } else {
        (1024, PAPER_GRID_SEEDS)
    };
    let start = window(seed) + j as u64 * seeds;
    let declaration = |protocols: Vec<&str>, n: usize| {
        let protocols: Vec<String> = protocols.iter().map(|k| format!("{k:?}")).collect();
        format!(
            "[campaign]\n\
             protocols = [{}]\n\
             graphs = [\"near-regular(n={n},d=8)\", \"gnp(n={n},p={p})\", \"gnm(n={n},m={m},dmax=12)\"]\n\
             seeds = \"{start}..{end}\"\n",
            protocols.join(", "),
            p = 8.0 / n as f64,
            m = 4 * n,
            end = start + seeds,
        )
    };
    let reg = registry();
    let (round_bound, rest): (Vec<&str>, Vec<&str>) = reg
        .names()
        .into_iter()
        .partition(|k| ROUND_BOUND.contains(k));
    vec![
        declaration(rest, n),
        declaration(round_bound, (n / 16).max(32)),
    ]
}

/// `giant-serial`: one ~10⁶-edge instance, three protocols, serial.
pub fn giant_serial(seed: u64, smoke: bool) -> Vec<String> {
    let graph = if smoke {
        "gnp(n=3000,p=0.003)"
    } else {
        "gnp(n=100000,p=0.0002)"
    };
    let start = window(seed);
    vec![format!(
        "[campaign]\n\
         protocols = [\"vertex/theorem1\", \"edge/theorem2\", \"edge/theorem3-zero-comm\"]\n\
         graphs = [\"{graph}\"]\n\
         partitioners = [\"alternating\"]\n\
         seeds = \"{start}..{end}\"\n\
         parallel = false\n",
        end = start + 1,
    )]
}

/// Job `j` of `daemon-remote`: Theorems 1 and 2 on disjoint seeds
/// over loopback TCP.
pub fn daemon_job(seed: u64, j: usize, smoke: bool) -> String {
    let (n, per_job) = if smoke {
        (64, 2)
    } else {
        (512, DAEMON_SEEDS_PER_JOB)
    };
    let start = window(seed) + j as u64 * per_job;
    format!(
        "[campaign]\n\
         protocols = [\"vertex/theorem1\", \"edge/theorem2\"]\n\
         graphs = [\"near-regular(n={n},d=8)\"]\n\
         seeds = \"{start}..{end}\"\n\
         transport = \"tcp\"\n",
        end = start + per_job,
    )
}

/// Graph specs of the fixture's "earlier campaigns" — none of them is
/// used by a workload, so the fixture never turns a trial into a skip.
const FIXTURE_GRAPHS: [&str; 4] = [
    "near-regular(n=256,d=6)",
    "gnp(n=256,p=0.02)",
    "gnm(n=256,m=768,dmax=8)",
    "cycle(n=256)",
];

/// Writes a store of `records` earlier-campaign records into `dir`
/// through the public [`Store`] API: registry protocols × four small
/// families × a seed window picked by `seed`, with plausible record
/// bodies derived from the key.
///
/// # Errors
///
/// The first store failure.
pub fn write_fixture(dir: &Path, seed: u64, records: usize) -> Result<(), String> {
    let config = StoreConfig {
        flush_every: 4096,
        ..StoreConfig::default()
    };
    let mut store = Store::open_or_create_with(dir, config).map_err(|e| e.to_string())?;
    let reg = registry();
    let protocols = reg.names();
    let cells = protocols.len() * FIXTURE_GRAPHS.len();
    let start = window(seed) + 500_000;
    for i in 0..records {
        let protocol = protocols[i % protocols.len()];
        let graph = FIXTURE_GRAPHS[(i / protocols.len()) % FIXTURE_GRAPHS.len()];
        let trial_seed = start + (i / cells) as u64;
        let h = seeds::derive(trial_seed, i as u64);
        let delta = 6 + (h % 4) as usize;
        let bits = if protocol == "edge/theorem3-zero-comm" {
            0
        } else {
            2_000 + h % 30_000
        };
        let record = TrialRecord {
            label: graph.to_string(),
            seed: trial_seed,
            n: 256,
            m: 700 + (h >> 8) as usize % 200,
            delta,
            bits_alice_to_bob: bits / 2,
            bits_bob_to_alice: bits - bits / 2,
            rounds: u64::from(bits > 0) * (1 + (h >> 16) % 40),
            colors_used: delta + 1,
            palette_budget: Some(2 * delta),
            valid: true,
            error: None,
            metrics: BTreeMap::from([("phase_bits/main".to_string(), bits as f64)]),
        };
        let key = TrialKey {
            protocol: protocol.to_string(),
            graph: graph.to_string(),
            partitioner: DEFAULT_PARTITIONER_LABEL.to_string(),
            seed: trial_seed,
        };
        store
            .append(key, record.to_json())
            .map_err(|e| e.to_string())?;
    }
    store.checkpoint().map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_runner::CampaignFile;

    #[test]
    fn declarations_parse_and_seeds_shift_the_window() {
        for smoke in [true, false] {
            let mut texts = paper_grid(3, 1, smoke);
            texts.extend(giant_serial(3, smoke));
            texts.push(daemon_job(3, 5, smoke));
            for text in texts {
                let file = CampaignFile::parse(&text).expect("generated TOML parses");
                assert!(file.store.is_none(), "the store is the benchmark's");
            }
        }
        let parse = |seed, j| -> Vec<CampaignFile> {
            paper_grid(seed, j, false)
                .iter()
                .map(|t| CampaignFile::parse(t).expect("parses"))
                .collect()
        };
        let (a, b, a1) = (parse(1, 0), parse(2, 0), parse(1, 1));
        let protocols: usize = a.iter().map(|f| f.protocols.len()).sum();
        assert_eq!(protocols, 9, "every registry protocol, once");
        assert_eq!(a[0].seeds, a[1].seeds, "one seed window");
        assert!(a[0].seeds.iter().all(|s| !b[0].seeds.contains(s)));
        assert!(a[0].seeds.iter().all(|s| !a1[0].seeds.contains(s)));
        let j0 = CampaignFile::parse(&daemon_job(1, 0, false)).expect("parses");
        let j1 = CampaignFile::parse(&daemon_job(1, 1, false)).expect("parses");
        assert!(j0.seeds.iter().all(|s| !j1.seeds.contains(s)), "disjoint");
    }
}
