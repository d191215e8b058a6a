//! Problem instances: a graph, an adversarial edge partition, and a
//! seed, bundled so every protocol can be configured and executed the
//! same way.

use crate::seeds;
use bichrome_graph::gen;
use bichrome_graph::partition::{EdgePartition, Partitioner};
use bichrome_graph::Graph;
use std::sync::Arc;

/// A declarative description of an input graph family, buildable at
/// any seed. This is what [`crate::Campaign::graphs`] accepts: the
/// campaign instantiates one graph per trial seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GraphSpec {
    /// `n` isolated vertices.
    Empty {
        /// Number of vertices.
        n: usize,
    },
    /// A path on `n` vertices.
    Path {
        /// Number of vertices.
        n: usize,
    },
    /// A cycle on `n` vertices.
    Cycle {
        /// Number of vertices.
        n: usize,
    },
    /// The complete graph `K_n`.
    Complete {
        /// Number of vertices.
        n: usize,
    },
    /// A star with `n − 1` leaves.
    Star {
        /// Number of vertices.
        n: usize,
    },
    /// Erdős–Rényi `G(n, p)`.
    Gnp {
        /// Number of vertices.
        n: usize,
        /// Edge probability.
        p: f64,
    },
    /// A random near-`d`-regular graph.
    NearRegular {
        /// Number of vertices.
        n: usize,
        /// Target degree.
        d: usize,
    },
    /// A random graph with `m` edges and maximum degree at most
    /// `dmax`.
    GnmMaxDegree {
        /// Number of vertices.
        n: usize,
        /// Number of edges.
        m: usize,
        /// Maximum-degree cap.
        dmax: usize,
    },
}

impl GraphSpec {
    /// Materializes the graph at the given seed (deterministic; the
    /// seed is ignored by the deterministic families).
    pub fn build(&self, seed: u64) -> Graph {
        match *self {
            GraphSpec::Empty { n } => gen::empty(n),
            GraphSpec::Path { n } => gen::path(n),
            GraphSpec::Cycle { n } => gen::cycle(n),
            GraphSpec::Complete { n } => gen::complete(n),
            GraphSpec::Star { n } => gen::star(n),
            GraphSpec::Gnp { n, p } => gen::gnp(n, p, seed),
            GraphSpec::NearRegular { n, d } => gen::near_regular(n, d, seed),
            GraphSpec::GnmMaxDegree { n, m, dmax } => gen::gnm_max_degree(n, m, dmax, seed),
        }
    }

    /// The family name without parameters (`"near-regular"`, `"gnp"`,
    /// ...) — the campaign's `group_by`-family key.
    pub fn family(&self) -> &'static str {
        match self {
            GraphSpec::Empty { .. } => "empty",
            GraphSpec::Path { .. } => "path",
            GraphSpec::Cycle { .. } => "cycle",
            GraphSpec::Complete { .. } => "complete",
            GraphSpec::Star { .. } => "star",
            GraphSpec::Gnp { .. } => "gnp",
            GraphSpec::NearRegular { .. } => "near-regular",
            GraphSpec::GnmMaxDegree { .. } => "gnm",
        }
    }

    /// The number of vertices the spec builds.
    pub fn num_vertices(&self) -> usize {
        match *self {
            GraphSpec::Empty { n }
            | GraphSpec::Path { n }
            | GraphSpec::Cycle { n }
            | GraphSpec::Complete { n }
            | GraphSpec::Star { n }
            | GraphSpec::Gnp { n, .. }
            | GraphSpec::NearRegular { n, .. }
            | GraphSpec::GnmMaxDegree { n, .. } => n,
        }
    }

    /// The size-scaling hook behind [`crate::Campaign::sizes`]: the
    /// same family re-parameterized to `n` vertices. Density-style
    /// parameters (`p`, `d`, `dmax`) are kept; the absolute edge
    /// count of [`GraphSpec::GnmMaxDegree`] is scaled proportionally
    /// so the average degree is preserved.
    pub fn scaled_to(&self, n: usize) -> GraphSpec {
        match *self {
            GraphSpec::Empty { .. } => GraphSpec::Empty { n },
            GraphSpec::Path { .. } => GraphSpec::Path { n },
            GraphSpec::Cycle { .. } => GraphSpec::Cycle { n },
            GraphSpec::Complete { .. } => GraphSpec::Complete { n },
            GraphSpec::Star { .. } => GraphSpec::Star { n },
            GraphSpec::Gnp { p, .. } => GraphSpec::Gnp { n, p },
            GraphSpec::NearRegular { d, .. } => GraphSpec::NearRegular { n, d },
            GraphSpec::GnmMaxDegree { n: n0, m, dmax } => GraphSpec::GnmMaxDegree {
                n,
                m: (m * n).checked_div(n0).unwrap_or(m),
                dmax,
            },
        }
    }
}

/// Why a [`GraphSpec`] or [`Partitioner`] string failed to parse —
/// the typed error behind declaring campaign grids from CLI args.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseSpecError {
    /// The family name before `(` is not one of the known families.
    UnknownFamily(String),
    /// A required field of this family is absent.
    MissingField {
        /// The family being parsed.
        family: String,
        /// The `k` of the missing `k=v`.
        field: &'static str,
    },
    /// A field value failed to parse as a number.
    BadValue {
        /// The `k` of the offending `k=v`.
        field: String,
        /// The unparseable `v`.
        value: String,
    },
    /// A field this family does not take, or a duplicate of one it
    /// does — rejected rather than silently ignored, so a
    /// fat-fingered CLI grid errors instead of running a quietly
    /// different experiment.
    UnexpectedField {
        /// The family being parsed.
        family: String,
        /// The unexpected or repeated `k`.
        field: String,
    },
    /// The string is not of the shape `family(k=v,...)`.
    Malformed(String),
}

impl std::fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseSpecError::UnknownFamily(fam) => write!(f, "unknown graph family {fam:?}"),
            ParseSpecError::MissingField { family, field } => {
                write!(f, "family {family:?} is missing field {field:?}")
            }
            ParseSpecError::BadValue { field, value } => {
                write!(f, "field {field:?} has unparseable value {value:?}")
            }
            ParseSpecError::UnexpectedField { family, field } => {
                write!(
                    f,
                    "family {family:?} does not take a (second) field {field:?}"
                )
            }
            ParseSpecError::Malformed(s) => {
                write!(f, "{s:?} is not of the shape \"family(k=v,...)\"")
            }
        }
    }
}

impl std::error::Error for ParseSpecError {}

/// The `k=v` fields of a spec string.
type SpecFields<'a> = Vec<(&'a str, &'a str)>;

/// Splits `"family(k=v,k=v)"` into the family name and its `k=v`
/// fields (shared by the [`GraphSpec`] parser and, on the graph-crate
/// side, mirrored by the `Partitioner` parser).
fn split_spec(s: &str) -> Result<(&str, SpecFields<'_>), ParseSpecError> {
    let s = s.trim();
    let Some(open) = s.find('(') else {
        // A bare family name is fine for field-free parsing; callers
        // decide whether fields were required.
        return Ok((s, Vec::new()));
    };
    let Some(body) = s[open + 1..].strip_suffix(')') else {
        return Err(ParseSpecError::Malformed(s.to_string()));
    };
    let name = &s[..open];
    let mut fields = Vec::new();
    for part in body.split(',') {
        let part = part.trim();
        if part.is_empty() {
            continue;
        }
        match part.split_once('=') {
            Some((k, v)) => fields.push((k.trim(), v.trim())),
            None => return Err(ParseSpecError::Malformed(s.to_string())),
        }
    }
    Ok((name, fields))
}

impl std::str::FromStr for GraphSpec {
    type Err = ParseSpecError;

    /// Parses the round-trip [`Display`](std::fmt::Display) form,
    /// e.g. `"near-regular(n=80,d=6)"` or `"gnp(n=50,p=0.1)"`.
    /// Strict: unknown and duplicate fields are errors, not noise.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let (family, fields) = split_spec(s)?;
        let expected: &[&str] = match family {
            "empty" | "path" | "cycle" | "complete" | "star" => &["n"],
            "gnp" => &["n", "p"],
            "near-regular" => &["n", "d"],
            "gnm" => &["n", "m", "dmax"],
            other => return Err(ParseSpecError::UnknownFamily(other.to_string())),
        };
        for (i, (key, _)) in fields.iter().enumerate() {
            if !expected.contains(key) || fields[..i].iter().any(|(k, _)| k == key) {
                return Err(ParseSpecError::UnexpectedField {
                    family: family.to_string(),
                    field: key.to_string(),
                });
            }
        }
        let lookup = |key: &'static str| -> Result<&str, ParseSpecError> {
            fields
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| *v)
                .ok_or(ParseSpecError::MissingField {
                    family: family.to_string(),
                    field: key,
                })
        };
        let parse_usize = |key: &'static str| -> Result<usize, ParseSpecError> {
            let v = lookup(key)?;
            v.parse().map_err(|_| ParseSpecError::BadValue {
                field: key.to_string(),
                value: v.to_string(),
            })
        };
        let parse_f64 = |key: &'static str| -> Result<f64, ParseSpecError> {
            let v = lookup(key)?;
            v.parse().map_err(|_| ParseSpecError::BadValue {
                field: key.to_string(),
                value: v.to_string(),
            })
        };
        match family {
            "empty" => Ok(GraphSpec::Empty {
                n: parse_usize("n")?,
            }),
            "path" => Ok(GraphSpec::Path {
                n: parse_usize("n")?,
            }),
            "cycle" => Ok(GraphSpec::Cycle {
                n: parse_usize("n")?,
            }),
            "complete" => Ok(GraphSpec::Complete {
                n: parse_usize("n")?,
            }),
            "star" => Ok(GraphSpec::Star {
                n: parse_usize("n")?,
            }),
            "gnp" => Ok(GraphSpec::Gnp {
                n: parse_usize("n")?,
                p: parse_f64("p")?,
            }),
            "near-regular" => Ok(GraphSpec::NearRegular {
                n: parse_usize("n")?,
                d: parse_usize("d")?,
            }),
            "gnm" => Ok(GraphSpec::GnmMaxDegree {
                n: parse_usize("n")?,
                m: parse_usize("m")?,
                dmax: parse_usize("dmax")?,
            }),
            other => Err(ParseSpecError::UnknownFamily(other.to_string())),
        }
    }
}

impl std::fmt::Display for GraphSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            GraphSpec::Empty { n } => write!(f, "empty(n={n})"),
            GraphSpec::Path { n } => write!(f, "path(n={n})"),
            GraphSpec::Cycle { n } => write!(f, "cycle(n={n})"),
            GraphSpec::Complete { n } => write!(f, "complete(n={n})"),
            GraphSpec::Star { n } => write!(f, "star(n={n})"),
            GraphSpec::Gnp { n, p } => write!(f, "gnp(n={n},p={p})"),
            GraphSpec::NearRegular { n, d } => write!(f, "near-regular(n={n},d={d})"),
            GraphSpec::GnmMaxDegree { n, m, dmax } => {
                write!(f, "gnm(n={n},m={m},dmax={dmax})")
            }
        }
    }
}

/// One concrete trial input: the partitioned graph plus the seed fed
/// to the protocol session (public randomness, private randomness,
/// session plumbing).
///
/// The partition is held behind an [`Arc`] so the executor's
/// instance cache can hand the *same* materialized graph and
/// subgraphs to every trial that shares them (all protocols of a
/// campaign cell column, for example) instead of cloning them per
/// trial.
#[derive(Debug, Clone)]
pub struct Instance {
    /// Human-readable label (graph family / origin), carried into
    /// trial records.
    pub label: String,
    /// The adversarially split input graph (shared, not owned — see
    /// the struct docs).
    pub partition: Arc<EdgePartition>,
    /// The trial seed the instance was derived from — the value
    /// reported in trial records. Equal to [`Instance::seed`] for
    /// explicitly constructed instances.
    pub trial_seed: u64,
    /// Seed for the protocol session. Derived from the trial seed via
    /// [`crate::seeds::protocol_seed`] when the instance comes from a
    /// spec; taken verbatim by [`Instance::new`].
    pub seed: u64,
}

impl Instance {
    /// An instance from explicit parts: `seed` is used verbatim as
    /// the protocol-session seed (no derivation — the escape hatch
    /// for exact reproduction of historical experiment setups).
    pub fn new(
        label: impl Into<String>,
        partition: impl Into<Arc<EdgePartition>>,
        seed: u64,
    ) -> Self {
        Instance {
            label: label.into(),
            partition: partition.into(),
            trial_seed: seed,
            seed,
        }
    }

    /// Builds `spec` for the given trial seed and splits it with
    /// `partitioner`, deriving the graph and protocol-session
    /// sub-seeds through the [`crate::seeds`] scheme so the two
    /// streams are independent.
    pub fn from_spec(spec: &GraphSpec, partitioner: Partitioner, trial_seed: u64) -> Self {
        let g = spec.build(seeds::graph_seed(trial_seed));
        Instance {
            label: spec.to_string(),
            partition: Arc::new(partitioner.split(&g)),
            trial_seed,
            seed: seeds::protocol_seed(trial_seed),
        }
    }

    /// The whole (unsplit) input graph.
    pub fn graph(&self) -> &Graph {
        self.partition.whole()
    }

    /// Number of vertices `n`.
    pub fn n(&self) -> usize {
        self.graph().num_vertices()
    }

    /// Number of edges `m`.
    pub fn m(&self) -> usize {
        self.graph().num_edges()
    }

    /// Maximum degree `Δ` of the whole graph.
    pub fn delta(&self) -> usize {
        self.graph().max_degree()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spec_display_round_trips() {
        let specs = [
            GraphSpec::Empty { n: 5 },
            GraphSpec::Path { n: 2 },
            GraphSpec::Cycle { n: 9 },
            GraphSpec::Complete { n: 12 },
            GraphSpec::Star { n: 8 },
            GraphSpec::Gnp { n: 50, p: 0.1 },
            GraphSpec::NearRegular { n: 80, d: 6 },
            GraphSpec::GnmMaxDegree {
                n: 60,
                m: 150,
                dmax: 8,
            },
        ];
        for spec in specs {
            let text = spec.to_string();
            let back: GraphSpec = text.parse().unwrap_or_else(|e| panic!("{text}: {e}"));
            assert_eq!(back, spec, "{text} must round-trip");
        }
    }

    #[test]
    fn spec_parsing_accepts_whitespace_and_reordered_fields() {
        let spec: GraphSpec = " gnm( dmax=8 , n=60, m=150 ) ".parse().expect("parses");
        assert_eq!(
            spec,
            GraphSpec::GnmMaxDegree {
                n: 60,
                m: 150,
                dmax: 8
            }
        );
    }

    #[test]
    fn spec_parsing_rejects_malformed_input_with_typed_errors() {
        assert_eq!(
            "torus(n=5)".parse::<GraphSpec>(),
            Err(ParseSpecError::UnknownFamily("torus".into()))
        );
        assert_eq!(
            "gnp(n=5)".parse::<GraphSpec>(),
            Err(ParseSpecError::MissingField {
                family: "gnp".into(),
                field: "p",
            })
        );
        assert_eq!(
            "gnp(n=5,p=high)".parse::<GraphSpec>(),
            Err(ParseSpecError::BadValue {
                field: "p".into(),
                value: "high".into(),
            })
        );
        assert_eq!(
            "gnp(n=5,p=0.1".parse::<GraphSpec>(),
            Err(ParseSpecError::Malformed("gnp(n=5,p=0.1".into()))
        );
        assert_eq!(
            "cycle(9)".parse::<GraphSpec>(),
            Err(ParseSpecError::Malformed("cycle(9)".into()))
        );
        assert!("near-regular".parse::<GraphSpec>().is_err());
    }

    #[test]
    fn spec_parsing_rejects_unknown_and_duplicate_fields() {
        // A junk field would silently change the experiment if
        // dropped; a duplicate would silently pick one value.
        assert_eq!(
            "gnp(n=5,p=0.1,frobs=2)".parse::<GraphSpec>(),
            Err(ParseSpecError::UnexpectedField {
                family: "gnp".into(),
                field: "frobs".into(),
            })
        );
        assert_eq!(
            "gnm(n=60,m=150,dmax=8,m=999)".parse::<GraphSpec>(),
            Err(ParseSpecError::UnexpectedField {
                family: "gnm".into(),
                field: "m".into(),
            })
        );
    }

    #[test]
    fn scaled_to_preserves_density_parameters() {
        assert_eq!(
            GraphSpec::NearRegular { n: 80, d: 6 }.scaled_to(160),
            GraphSpec::NearRegular { n: 160, d: 6 }
        );
        assert_eq!(
            GraphSpec::Gnp { n: 50, p: 0.1 }.scaled_to(25),
            GraphSpec::Gnp { n: 25, p: 0.1 }
        );
        // Absolute edge counts scale proportionally with n.
        assert_eq!(
            GraphSpec::GnmMaxDegree {
                n: 60,
                m: 150,
                dmax: 8
            }
            .scaled_to(120),
            GraphSpec::GnmMaxDegree {
                n: 120,
                m: 300,
                dmax: 8
            }
        );
        assert_eq!(
            GraphSpec::Star { n: 8 }.scaled_to(3),
            GraphSpec::Star { n: 3 }
        );
        assert_eq!(GraphSpec::Complete { n: 4 }.num_vertices(), 4);
        assert_eq!(GraphSpec::Path { n: 4 }.family(), "path");
    }
}
