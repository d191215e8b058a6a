//! Declarative campaign files: a `[campaign]` TOML table parsed onto
//! the runner's existing `FromStr` surfaces (`GraphSpec`,
//! `Partitioner`, registry keys) and assembled into a
//! [`Campaign`].
//!
//! ```toml
//! [campaign]
//! protocols    = ["vertex/theorem1", "baseline/send-everything"]
//! graphs       = ["near-regular(n=64,d=6)", "gnp(n=64,p=0.1)"]
//! sizes        = [64, 128]           # optional: rescale every family
//! partitioners = ["alternating"]     # optional: default = per-seed random
//! seeds        = "0..8"              # or an explicit list: [0, 1, 2]
//! baseline     = "baseline/send-everything"   # optional
//! store        = "results/store"     # optional: persistent result store
//! parallel     = true                # optional: default true
//! transport    = "inproc"            # optional: inproc | pipe | tcp
//! fault        = "sever@3,delay:1"   # optional: deterministic link faults
//! ```

use crate::registry::registry;
use crate::toml::{self, TomlValue};
use crate::{Campaign, GraphSpec};
use bichrome_comm::fault::FaultPlan;
use bichrome_comm::transport::TransportKind;
use bichrome_graph::partition::Partitioner;

/// The most trials one campaign file may declare: protocols × graphs ×
/// sizes × partitioners × seeds, an omitted optional axis counting
/// once. Preparing a campaign allocates a result slot per trial, and
/// the daemon parses files it receives over the network, so a larger
/// declaration is refused before anything is allocated for it. The
/// largest declaration in this repository has a few hundred trials.
pub const MAX_DECLARED_TRIALS: u64 = 1 << 20;

/// A parsed, validated campaign declaration.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignFile {
    /// Registry keys on the protocol axis.
    pub protocols: Vec<String>,
    /// Graph-spec axis.
    pub graphs: Vec<GraphSpec>,
    /// Size axis (empty = each spec at its own size).
    pub sizes: Vec<usize>,
    /// Partitioner axis (empty = the per-seed random default).
    pub partitioners: Vec<Partitioner>,
    /// The trial seeds.
    pub seeds: Vec<u64>,
    /// Baseline protocol label, if declared.
    pub baseline: Option<String>,
    /// Persistent store directory, if declared.
    pub store: Option<String>,
    /// Whether to run the queue in parallel (default true).
    pub parallel: bool,
    /// The wire every trial's two-party session runs over (default
    /// in-process; the recorded bits and rounds are the same either
    /// way).
    pub transport: TransportKind,
    /// Deterministic link faults injected under every trial (default
    /// none; reports stay byte-identical because faults are recovered
    /// below the meter).
    pub fault: FaultPlan,
}

impl CampaignFile {
    /// Parses and validates a campaign file: every graph spec,
    /// partitioner, and protocol key is checked here, so a typo'd
    /// declaration errors up front instead of panicking mid-run.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first problem,
    /// including a declaration of more than [`MAX_DECLARED_TRIALS`]
    /// trials.
    pub fn parse(text: &str) -> Result<CampaignFile, String> {
        let doc = toml::parse(text)?;
        let table = doc
            .get("campaign")
            .ok_or("campaign file has no [campaign] section")?;
        for key in table.keys() {
            if !matches!(
                key.as_str(),
                "protocols"
                    | "graphs"
                    | "sizes"
                    | "partitioners"
                    | "seeds"
                    | "baseline"
                    | "store"
                    | "parallel"
                    | "transport"
                    | "fault"
            ) {
                return Err(format!("[campaign] has unknown key {key:?}"));
            }
        }
        let str_list = |key: &str| -> Result<Vec<String>, String> {
            match table.get(key) {
                None => Ok(Vec::new()),
                Some(TomlValue::Array(items)) => items
                    .iter()
                    .map(|v| {
                        v.as_str()
                            .map(str::to_string)
                            .ok_or(format!("{key:?} must be an array of strings"))
                    })
                    .collect(),
                Some(_) => Err(format!("{key:?} must be an array of strings")),
            }
        };

        let reg = registry();
        let protocols = str_list("protocols")?;
        if protocols.is_empty() {
            return Err("campaign declares no protocols".to_string());
        }
        for key in &protocols {
            if reg.get(key).is_none() {
                return Err(format!(
                    "unknown protocol key {key:?}; registry has: {}",
                    reg.names().join(", ")
                ));
            }
        }

        let graphs = str_list("graphs")?
            .iter()
            .map(|s| {
                s.parse::<GraphSpec>()
                    .map_err(|e| format!("graph {s:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        if graphs.is_empty() {
            return Err("campaign declares no graphs".to_string());
        }

        let partitioners = str_list("partitioners")?
            .iter()
            .map(|s| {
                s.parse::<Partitioner>()
                    .map_err(|e| format!("partitioner {s:?}: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;

        let sizes = match table.get("sizes") {
            None => Vec::new(),
            Some(TomlValue::Array(items)) => items
                .iter()
                .map(|v| {
                    v.as_int()
                        .map(|x| x as usize)
                        .ok_or("\"sizes\" must be an array of integers".to_string())
                })
                .collect::<Result<Vec<_>, _>>()?,
            Some(_) => return Err("\"sizes\" must be an array of integers".to_string()),
        };
        for spec in &graphs {
            for &n in &sizes {
                spec.scaled_to(n)
                    .check()
                    .map_err(|e| format!("graph {spec} at size {n}: {e}"))?;
            }
        }

        // The trial count is checked before the seeds are collected,
        // so a huge range is refused without allocating for it.
        let per_seed = [
            protocols.len(),
            graphs.len(),
            sizes.len().max(1),
            partitioners.len().max(1),
        ];
        let admit = |seed_count: u64| -> Result<(), String> {
            match per_seed
                .iter()
                .try_fold(seed_count, |acc, &n| acc.checked_mul(n as u64))
            {
                Some(trials) if trials <= MAX_DECLARED_TRIALS => Ok(()),
                Some(trials) => Err(format!(
                    "campaign declares {trials} trials; the cap is {MAX_DECLARED_TRIALS}"
                )),
                None => Err(format!(
                    "campaign declares more than {} trials; the cap is {MAX_DECLARED_TRIALS}",
                    u64::MAX
                )),
            }
        };
        let seeds = match table.get("seeds") {
            None => return Err("campaign declares no seeds".to_string()),
            Some(TomlValue::Str(range)) => {
                let range = parse_seed_range(range)?;
                admit(range.end - range.start)?;
                range.collect()
            }
            Some(TomlValue::Array(items)) => {
                let seeds = items
                    .iter()
                    .map(|v| {
                        v.as_int()
                            .ok_or("\"seeds\" list must contain integers".to_string())
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                admit(seeds.len() as u64)?;
                seeds
            }
            Some(_) => {
                return Err(
                    "\"seeds\" must be a \"start..end\" string or an integer list".to_string(),
                )
            }
        };
        if seeds.is_empty() {
            return Err("campaign declares an empty seed set".to_string());
        }

        let opt_str = |key: &str| -> Result<Option<String>, String> {
            match table.get(key) {
                None => Ok(None),
                Some(v) => v
                    .as_str()
                    .map(|s| Some(s.to_string()))
                    .ok_or(format!("{key:?} must be a string")),
            }
        };
        let baseline = opt_str("baseline")?;
        if let Some(b) = &baseline {
            if !protocols.contains(b) {
                return Err(format!(
                    "baseline {b:?} is not on the protocol axis {protocols:?}"
                ));
            }
        }

        let parallel = match table.get("parallel") {
            None => true,
            Some(TomlValue::Bool(b)) => *b,
            Some(_) => return Err("\"parallel\" must be a bool".to_string()),
        };

        let transport = match opt_str("transport")? {
            None => TransportKind::default(),
            Some(s) => s
                .parse::<TransportKind>()
                .map_err(|e| format!("transport {s:?}: {e}"))?,
        };

        let fault = match opt_str("fault")? {
            None => FaultPlan::new(),
            Some(s) => s
                .parse::<FaultPlan>()
                .map_err(|e| format!("fault {s:?}: {e}"))?,
        };

        Ok(CampaignFile {
            protocols,
            graphs,
            sizes,
            partitioners,
            seeds,
            baseline,
            store: opt_str("store")?,
            parallel,
            transport,
            fault,
        })
    }

    /// Assembles the declared [`Campaign`]. `store_override`, when
    /// given (the `--store` flag), wins over the file's `store` key.
    pub fn to_campaign(&self, store_override: Option<&str>) -> Campaign {
        let mut c = Campaign::new()
            .protocol_keys(&self.protocols)
            .graphs(self.graphs.iter().copied())
            .sizes(self.sizes.iter().copied())
            .partitioners(self.partitioners.iter().copied())
            .seeds(self.seeds.iter().copied())
            .parallel(self.parallel)
            .transport(self.transport)
            .fault(self.fault.clone());
        if let Some(b) = &self.baseline {
            c = c.baseline(b.clone());
        }
        if let Some(store) = store_override
            .map(str::to_string)
            .or_else(|| self.store.clone())
        {
            c = c.with_store(store);
        }
        c
    }

    /// The store path the run will use (`--store` override first,
    /// then the file's `store` key).
    pub fn store_path<'a>(&'a self, store_override: Option<&'a str>) -> Option<&'a str> {
        store_override.or(self.store.as_deref())
    }
}

/// Parses an exclusive `"start..end"` seed range.
fn parse_seed_range(text: &str) -> Result<std::ops::Range<u64>, String> {
    let (start, end) = text
        .split_once("..")
        .ok_or(format!("seed range {text:?} is not \"start..end\""))?;
    let start: u64 = start
        .trim()
        .parse()
        .map_err(|_| format!("bad seed range start {start:?}"))?;
    let end: u64 = end
        .trim()
        .parse()
        .map_err(|_| format!("bad seed range end {end:?}"))?;
    if end < start {
        return Err(format!("seed range {text:?} is empty (end < start)"));
    }
    Ok(start..end)
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = r#"
        [campaign]
        protocols    = ["edge/theorem2", "baseline/send-everything"]
        graphs       = ["near-regular(n=24,d=4)", "gnp(n=24,p=0.2)"]
        sizes        = [24, 48]
        partitioners = ["alternating", "random(7)"]
        seeds        = "0..3"
        baseline     = "baseline/send-everything"
        store        = "out/store"
        parallel     = false
        transport    = "pipe"
        fault        = "delay:1,sever@2"
    "#;

    #[test]
    fn parses_the_full_surface() {
        let f = CampaignFile::parse(GOOD).expect("parses");
        assert_eq!(f.protocols.len(), 2);
        assert_eq!(f.graphs[1], GraphSpec::Gnp { n: 24, p: 0.2 });
        assert_eq!(f.sizes, vec![24, 48]);
        assert_eq!(f.partitioners[1], Partitioner::Random(7));
        assert_eq!(f.seeds, vec![0, 1, 2]);
        assert_eq!(f.baseline.as_deref(), Some("baseline/send-everything"));
        assert_eq!(f.store.as_deref(), Some("out/store"));
        assert!(!f.parallel);
        assert_eq!(f.transport, TransportKind::Pipe);
        assert_eq!(f.fault, FaultPlan::new().sever_at(2).delay_ms(1));
        let campaign = f.to_campaign(None);
        assert_eq!(campaign.cell_count(), 2 * 4 * 2);
    }

    #[test]
    fn seed_lists_work_too() {
        let f = CampaignFile::parse(
            r#"
            [campaign]
            protocols = ["edge/theorem2"]
            graphs = ["path(n=5)"]
            seeds = [4, 9, 16]
            "#,
        )
        .expect("parses");
        assert_eq!(f.seeds, vec![4, 9, 16]);
        assert!(f.parallel, "parallel defaults to true");
        assert_eq!(f.store, None);
        assert_eq!(f.transport, TransportKind::InProc, "inproc by default");
        assert!(f.fault.is_noop(), "no faults by default");
    }

    #[test]
    fn fault_plans_parse_and_typos_error() {
        let f = CampaignFile::parse(
            &GOOD.replace("\"delay:1,sever@2\"", "\"sever@3,corrupt@1,short:2\""),
        )
        .expect("parses");
        assert_eq!(f.fault, FaultPlan::new().sever_at(3).corrupt_at(1).short(2));
        let err = CampaignFile::parse(&GOOD.replace("\"delay:1,sever@2\"", "\"gremlins\""))
            .expect_err("unknown fault clause");
        assert!(err.contains("fault"), "{err}");
        assert!(err.contains("gremlins"), "{err}");
    }

    #[test]
    fn transport_axis_values_parse_and_typos_error() {
        for (value, kind) in [
            ("inproc", TransportKind::InProc),
            ("pipe", TransportKind::Pipe),
            ("tcp", TransportKind::Tcp),
        ] {
            let f = CampaignFile::parse(&GOOD.replace("\"pipe\"", &format!("{value:?}")))
                .expect("parses");
            assert_eq!(f.transport, kind);
        }
        let err = CampaignFile::parse(&GOOD.replace("\"pipe\"", "\"carrier-pigeon\""))
            .expect_err("unknown transport");
        assert!(err.contains("carrier-pigeon"), "{err}");
        assert!(err.contains("inproc|pipe|tcp"), "{err}");
    }

    #[test]
    fn bad_declarations_error_up_front() {
        // Mangling any axis entry must surface the offending string.
        for mangle in ["edge/theorem2", "near-regular(n=24,d=4)", "alternating"] {
            let text = GOOD.replace(mangle, &format!("{mangle}-typo"));
            let err = CampaignFile::parse(&text).expect_err("must fail");
            assert!(err.contains("typo"), "{mangle}: {err}");
        }
        let err = CampaignFile::parse(&GOOD.replace("seeds        = \"0..3\"", ""))
            .expect_err("no seeds");
        assert!(err.contains("no seeds"), "{err}");
        let err = CampaignFile::parse(&GOOD.replace(
            "baseline     = \"baseline/send-everything\"",
            "baseline = \"edge/theorem3-zero-comm\"",
        ))
        .expect_err("baseline off-axis");
        assert!(err.contains("not on the protocol axis"), "{err}");
        let err = CampaignFile::parse(&GOOD.replace("[campaign]", "[campain]"))
            .expect_err("section typo");
        assert!(err.contains("[campaign]"), "{err}");
        let err = CampaignFile::parse(&format!("{GOOD}\nfrobs = 1")).expect_err("unknown key");
        assert!(err.contains("unknown key"), "{err}");
        // A spec that is fine alone but breaks at a declared size.
        let sized = "[campaign]\nprotocols = [\"edge/theorem2\"]\ngraphs = [\"cycle(n=5)\"]\nseeds = \"0..1\"\nsizes = ";
        let err = CampaignFile::parse(&format!("{sized}[3, 2]")).expect_err("a 2-vertex cycle");
        assert!(err.contains("cycle(n=5) at size 2"), "{err}");
        assert!(CampaignFile::parse(&format!("{sized}[3, 9]")).is_ok());
    }

    #[test]
    fn seed_range_edges() {
        assert_eq!(parse_seed_range("5..8").expect("parses"), 5..8);
        assert_eq!(parse_seed_range("5..5").expect("parses"), 5..5);
        assert!(parse_seed_range("8..5").is_err(), "reversed range");
        assert!(parse_seed_range("5").is_err(), "not a range");
        assert!(parse_seed_range("a..b").is_err(), "not numbers");
    }

    #[test]
    fn declarations_over_the_trial_cap_are_refused() {
        // One cell: the range's length is the trial count, taken
        // before any seed is collected.
        let err = CampaignFile::parse(
            r#"
            [campaign]
            protocols = ["edge/theorem2"]
            graphs = ["path(n=5)"]
            seeds = "0..18446744073709551615"
            "#,
        )
        .expect_err("huge range");
        assert!(err.contains("18446744073709551615 trials"), "{err}");

        // GOOD declares 2 protocols × 2 graphs × 2 sizes × 2
        // partitioners = 16 trials per seed.
        let with_seeds = |range: String| GOOD.replace("\"0..3\"", &format!("{range:?}"));
        let at_cap = MAX_DECLARED_TRIALS / 16;
        let f = CampaignFile::parse(&with_seeds(format!("0..{at_cap}"))).expect("at the cap");
        assert_eq!(f.seeds.len() as u64 * 16, MAX_DECLARED_TRIALS);
        let err = CampaignFile::parse(&with_seeds(format!("0..{}", at_cap + 1)))
            .expect_err("over the cap");
        assert!(
            err.contains(&format!("{} trials", 16 * (at_cap + 1))),
            "{err}"
        );
        let err = CampaignFile::parse(&with_seeds(format!("0..{}", u64::MAX)))
            .expect_err("product overflows");
        assert!(err.contains("more than"), "{err}");
    }

    #[test]
    fn store_override_beats_the_file() {
        let f = CampaignFile::parse(GOOD).expect("parses");
        assert_eq!(f.store_path(None), Some("out/store"));
        assert_eq!(f.store_path(Some("elsewhere")), Some("elsewhere"));
    }
}
