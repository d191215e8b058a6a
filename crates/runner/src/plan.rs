//! Trial results and their aggregation: one [`TrialRecord`] per
//! executed trial (with its single-line JSON codec, the payload the
//! campaign store persists), [`Aggregate`] / [`Summary`] statistics
//! across trials, and the per-cell [`Report`] every
//! [`crate::CampaignCell`] carries.

use crate::instance::Instance;
use crate::protocol::{Outcome, Verdict};
use std::collections::BTreeMap;

/// One trial's flattened result.
#[derive(Debug, Clone, PartialEq)]
pub struct TrialRecord {
    /// Instance label (graph family).
    pub label: String,
    /// The trial seed.
    pub seed: u64,
    /// Vertices of the input graph.
    pub n: usize,
    /// Edges of the input graph.
    pub m: usize,
    /// Maximum degree of the input graph.
    pub delta: usize,
    /// Bits Alice sent to Bob.
    pub bits_alice_to_bob: u64,
    /// Bits Bob sent to Alice.
    pub bits_bob_to_alice: u64,
    /// Communication rounds.
    pub rounds: u64,
    /// Distinct colors in the artifact.
    pub colors_used: usize,
    /// Palette budget validated against, if any.
    pub palette_budget: Option<usize>,
    /// Whether the validators accepted the outcome.
    pub valid: bool,
    /// Validator / failure message when invalid.
    pub error: Option<String>,
    /// Protocol-specific side measurements, copied from
    /// [`Outcome::metrics`].
    pub metrics: BTreeMap<String, f64>,
}

impl TrialRecord {
    /// Flattens one executed [`Outcome`] into a record, annotated with
    /// the instance it ran on.
    ///
    /// The meter's per-phase bit totals ([`CommStats::bits_by_phase`](
    /// bichrome_comm::CommStats)) are surfaced as `phase_bits/<name>`
    /// metric entries: phases used to be recorded in the stats but
    /// dropped from the campaign `metrics` channel, so they never
    /// aggregated in reports. The entries are deterministic protocol
    /// data (bits, not wall time), so records stay bit-identical
    /// across schedules, transports, and observability settings.
    pub fn from_outcome(inst: &Instance, outcome: Outcome) -> Self {
        let mut metrics = outcome.metrics;
        for (phase, &bits) in &outcome.stats.bits_by_phase {
            metrics.insert(format!("phase_bits/{phase}"), bits as f64);
        }
        TrialRecord {
            label: inst.label.clone(),
            seed: inst.trial_seed,
            n: inst.n(),
            m: inst.m(),
            delta: inst.delta(),
            bits_alice_to_bob: outcome.stats.bits_alice_to_bob,
            bits_bob_to_alice: outcome.stats.bits_bob_to_alice,
            rounds: outcome.stats.rounds,
            colors_used: outcome.artifact.colors_used(),
            palette_budget: outcome.palette_budget,
            valid: outcome.verdict.is_valid(),
            error: match &outcome.verdict {
                Verdict::Valid => None,
                Verdict::Invalid(msg) => Some(msg.clone()),
            },
            metrics,
        }
    }

    /// Total bits in both directions.
    pub fn total_bits(&self) -> u64 {
        self.bits_alice_to_bob + self.bits_bob_to_alice
    }

    /// Encodes the record as one single-line JSON object — the
    /// payload format the campaign store persists and
    /// [`TrialRecord::from_json`] decodes. Every field round-trips
    /// bit-exactly (finite `f64` metrics render in Rust's shortest
    /// round-trippable form; non-finite values as tagged strings).
    pub fn to_json(&self) -> String {
        let mut o = crate::json::Writer::object();
        o.field_str("label", &self.label);
        o.field_u64("seed", self.seed);
        o.field_u64("n", self.n as u64);
        o.field_u64("m", self.m as u64);
        o.field_u64("delta", self.delta as u64);
        o.field_u64("bits_alice_to_bob", self.bits_alice_to_bob);
        o.field_u64("bits_bob_to_alice", self.bits_bob_to_alice);
        o.field_u64("rounds", self.rounds);
        o.field_u64("colors_used", self.colors_used as u64);
        match self.palette_budget {
            Some(b) => o.field_u64("palette_budget", b as u64),
            None => o.field_null("palette_budget"),
        }
        o.field_bool("valid", self.valid);
        match &self.error {
            Some(e) => o.field_str("error", e),
            None => o.field_null("error"),
        }
        if !self.metrics.is_empty() {
            let mut m = crate::json::Writer::object();
            for (k, &v) in &self.metrics {
                if v.is_finite() {
                    m.field_f64(k, v);
                } else if v.is_nan() {
                    m.field_str(k, "NaN");
                } else if v > 0.0 {
                    m.field_str(k, "Infinity");
                } else {
                    m.field_str(k, "-Infinity");
                }
            }
            o.field_raw("metrics", &m.finish());
        }
        o.finish()
    }

    /// Decodes a record serialized by [`TrialRecord::to_json`].
    ///
    /// # Errors
    ///
    /// Returns a description of the first syntax or shape error.
    pub fn from_json(text: &str) -> Result<TrialRecord, String> {
        use crate::json::Value;
        let v = Value::parse(text)?;
        let obj = v.as_object().ok_or("trial record is not a JSON object")?;
        let get = |field: &str| obj.get(field).ok_or(format!("missing field {field:?}"));
        let get_u64 = |field: &str| {
            get(field)?
                .as_u64()
                .ok_or(format!("field {field:?} is not an unsigned integer"))
        };
        // The seed is a full-range u64; take it from the raw text so
        // it never rounds through the parser's f64 numbers. The first
        // unescaped `"seed":` is this record's own field ("label",
        // the only field before it, is an escaped JSON string).
        let seed_at = text.find("\"seed\":").ok_or("missing field \"seed\"")? + "\"seed\":".len();
        let after = &text[seed_at..];
        let digits = &after[..after
            .find(|c: char| !c.is_ascii_digit())
            .unwrap_or(after.len())];
        let seed: u64 = digits
            .parse()
            .map_err(|_| format!("seed {digits:?} is not a u64"))?;
        let mut metrics = BTreeMap::new();
        if let Some(m) = obj.get("metrics") {
            let m = m.as_object().ok_or("field \"metrics\" is not an object")?;
            for (k, v) in m {
                let x = match v {
                    Value::Number(x) => *x,
                    Value::String(s) => match s.as_str() {
                        "NaN" => f64::NAN,
                        "Infinity" => f64::INFINITY,
                        "-Infinity" => f64::NEG_INFINITY,
                        other => return Err(format!("metric {k:?} has bad value {other:?}")),
                    },
                    other => return Err(format!("metric {k:?} is not a number: {other:?}")),
                };
                metrics.insert(k.clone(), x);
            }
        }
        Ok(TrialRecord {
            label: get("label")?
                .as_str()
                .ok_or("field \"label\" is not a string")?
                .to_string(),
            seed,
            n: get_u64("n")? as usize,
            m: get_u64("m")? as usize,
            delta: get_u64("delta")? as usize,
            bits_alice_to_bob: get_u64("bits_alice_to_bob")?,
            bits_bob_to_alice: get_u64("bits_bob_to_alice")?,
            rounds: get_u64("rounds")?,
            colors_used: get_u64("colors_used")? as usize,
            palette_budget: match get("palette_budget")? {
                Value::Null => None,
                v => Some(
                    v.as_u64()
                        .ok_or("field \"palette_budget\" is not an unsigned integer")?
                        as usize,
                ),
            },
            valid: match get("valid")? {
                Value::Bool(b) => *b,
                other => return Err(format!("field \"valid\" is not a bool: {other:?}")),
            },
            error: match get("error")? {
                Value::Null => None,
                v => Some(
                    v.as_str()
                        .ok_or("field \"error\" is not a string")?
                        .to_string(),
                ),
            },
            metrics,
        })
    }
}

/// Mean / population-stddev / min / max / p50 / p95 of one metric
/// across trials.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Aggregate {
    /// Sample mean.
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (nearest-rank 50th percentile — always an actual
    /// sample value, never an interpolation).
    pub p50: f64,
    /// Nearest-rank 95th percentile.
    pub p95: f64,
}

impl Aggregate {
    /// Aggregates a sample (all zeros when empty).
    pub fn of(xs: &[f64]) -> Self {
        if xs.is_empty() {
            return Aggregate::default();
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        let mut sorted = xs.to_vec();
        sorted.sort_by(f64::total_cmp);
        Aggregate {
            mean,
            stddev: var.sqrt(),
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: percentile(&sorted, 50.0),
            p95: percentile(&sorted, 95.0),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted non-empty sample:
/// the smallest value with at least `p`% of the sample at or below it
/// (`sorted[⌈p/100 · N⌉ − 1]`).
fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Cross-trial summary of a [`Report`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Summary {
    /// Number of trials.
    pub trials: usize,
    /// Number of trials the validators accepted.
    pub valid: usize,
    /// Total-bits aggregate.
    pub total_bits: Aggregate,
    /// Rounds aggregate.
    pub rounds: Aggregate,
    /// Bits-per-vertex aggregate (total bits / n).
    pub bits_per_vertex: Aggregate,
    /// Colors-used aggregate.
    pub colors: Aggregate,
    /// Per-key aggregates of the protocols' side measurements
    /// ([`TrialRecord::metrics`]); a key is aggregated over the trials
    /// that reported it.
    pub metrics: BTreeMap<String, Aggregate>,
}

impl Summary {
    /// Aggregates a set of trial records. This is the *one*
    /// statistics implementation in the workspace; experiment binaries
    /// reuse it instead of hand-rolling mean/stddev.
    pub fn of(trials: &[TrialRecord]) -> Self {
        let bits: Vec<f64> = trials.iter().map(|t| t.total_bits() as f64).collect();
        let rounds: Vec<f64> = trials.iter().map(|t| t.rounds as f64).collect();
        let colors: Vec<f64> = trials.iter().map(|t| t.colors_used as f64).collect();
        let bpv: Vec<f64> = trials
            .iter()
            .map(|t| {
                if t.n == 0 {
                    0.0
                } else {
                    t.total_bits() as f64 / t.n as f64
                }
            })
            .collect();
        let mut samples: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for t in trials {
            for (k, &v) in &t.metrics {
                samples.entry(k).or_default().push(v);
            }
        }
        Summary {
            trials: trials.len(),
            valid: trials.iter().filter(|t| t.valid).count(),
            total_bits: Aggregate::of(&bits),
            rounds: Aggregate::of(&rounds),
            bits_per_vertex: Aggregate::of(&bpv),
            colors: Aggregate::of(&colors),
            metrics: samples
                .into_iter()
                .map(|(k, xs)| (k.to_string(), Aggregate::of(&xs)))
                .collect(),
        }
    }

    /// The aggregate for one metric key (zeros when no trial reported
    /// it) — convenience for table-printing code.
    pub fn metric(&self, key: &str) -> Aggregate {
        self.metrics.get(key).copied().unwrap_or_default()
    }
}

/// The trials of one campaign cell and their cross-trial summary.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registry key of the protocol that ran.
    pub protocol: String,
    /// Every trial, in instance order.
    pub trials: Vec<TrialRecord>,
    /// Cross-trial aggregates.
    pub summary: Summary,
}

impl Report {
    /// Builds a report (computing the summary) from raw trials.
    pub fn new(protocol: String, trials: Vec<TrialRecord>) -> Self {
        let summary = Summary::of(&trials);
        Report {
            protocol,
            trials,
            summary,
        }
    }

    /// Whether every trial validated.
    pub fn all_valid(&self) -> bool {
        self.summary.valid == self.summary.trials
    }

    /// Encodes the full report (trials + summary) as JSON.
    pub fn to_json(&self) -> String {
        let mut w = crate::json::Writer::object();
        w.field_str("protocol", &self.protocol);
        w.field_raw("summary", &{
            let mut s = crate::json::Writer::object();
            s.field_u64("trials", self.summary.trials as u64);
            s.field_u64("valid", self.summary.valid as u64);
            s.field_raw("total_bits", &aggregate_json(&self.summary.total_bits));
            s.field_raw("rounds", &aggregate_json(&self.summary.rounds));
            s.field_raw(
                "bits_per_vertex",
                &aggregate_json(&self.summary.bits_per_vertex),
            );
            s.field_raw("colors", &aggregate_json(&self.summary.colors));
            if !self.summary.metrics.is_empty() {
                let mut m = crate::json::Writer::object();
                for (k, a) in &self.summary.metrics {
                    m.field_raw(k, &aggregate_json(a));
                }
                s.field_raw("metrics", &m.finish());
            }
            s.finish()
        });
        let trials: Vec<String> = self.trials.iter().map(TrialRecord::to_json).collect();
        w.field_raw("trials", &format!("[{}]", trials.join(",")));
        w.finish()
    }
}

fn aggregate_json(a: &Aggregate) -> String {
    let mut w = crate::json::Writer::object();
    w.field_f64("mean", a.mean);
    w.field_f64("stddev", a.stddev);
    w.field_f64("min", a.min);
    w.field_f64("max", a.max);
    w.field_f64("p50", a.p50);
    w.field_f64("p95", a.p95);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let a = Aggregate::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(a.p50, 20.0, "⌈0.5·4⌉ = rank 2");
        assert_eq!(a.p95, 40.0, "⌈0.95·4⌉ = rank 4");
        let b = Aggregate::of(&[7.0]);
        assert_eq!((b.p50, b.p95), (7.0, 7.0));
        let c = Aggregate::of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(c.p50, 50.0);
        assert_eq!(c.p95, 95.0);
        assert_eq!(Aggregate::of(&[]).p95, 0.0, "empty sample stays zeroed");
    }

    #[test]
    fn trial_record_json_round_trips_bit_exactly() {
        let mut metrics = BTreeMap::new();
        metrics.insert("rct_remaining".to_string(), 0.1 + 0.2); // 0.30000000000000004
        metrics.insert("space_bound".to_string(), f64::INFINITY);
        metrics.insert("slack \"quoted\"\n".to_string(), -7.25);
        let record = TrialRecord {
            label: "near-regular(n=24,d=4)".to_string(),
            seed: u64::MAX,
            n: 24,
            m: 48,
            delta: 5,
            bits_alice_to_bob: 120,
            bits_bob_to_alice: 64,
            rounds: 3,
            colors_used: 6,
            palette_budget: Some(9),
            valid: false,
            error: Some("validator said no,\nwith a newline".to_string()),
            metrics,
        };
        let json = record.to_json();
        assert!(!json.contains('\n'), "payload must be single-line");
        let back = TrialRecord::from_json(&json).expect("parses");
        assert_eq!(
            back, record,
            "round-trip must be exact (incl. the u64::MAX seed)"
        );

        // And the minimal record (no metrics, no budget, no error).
        let bare = TrialRecord {
            label: "e1".to_string(),
            seed: 0,
            n: 0,
            m: 0,
            delta: 0,
            bits_alice_to_bob: 0,
            bits_bob_to_alice: 0,
            rounds: 0,
            colors_used: 0,
            palette_budget: None,
            valid: true,
            error: None,
            metrics: BTreeMap::new(),
        };
        assert_eq!(
            TrialRecord::from_json(&bare.to_json()).expect("parses"),
            bare
        );
        assert!(TrialRecord::from_json("{}").is_err());
        assert!(TrialRecord::from_json("not json").is_err());
    }
}
