//! Shared plumbing for the experiment binaries (`e1` – `e9`,
//! `a1` – `a2`) and the `bench_hotpath` microbenchmark.
//!
//! Each experiment binary prints one table by declaring a
//! `bichrome_runner::Campaign` (e6 runs registry protocols on
//! hand-built instances) and asserts its own verdicts, so a run that
//! finishes is a run whose checks held (README, "Campaigns").
//! `bench_hotpath` writes `BENCH_hotpath.json`; end-to-end timings
//! come from `BENCHMARK.json`'s workloads under `e2e_bench/`. The
//! text-table printer and the statistics are the runner crate's —
//! exactly one implementation of each in the workspace — so this
//! crate only re-exports them.
//!
//! # Example
//!
//! ```
//! use bichrome_bench::{Aggregate, Table};
//! let mut t = Table::new(&["n", "bits", "bits/n"]);
//! t.row(&["256", "12000", "46.9"]);
//! assert!(t.render().contains("46.9"));
//! let a = Aggregate::of(&[2.0, 4.0]);
//! assert_eq!((a.mean, a.stddev), (3.0, 1.0));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use bichrome_runner::table::Table;
pub use bichrome_runner::{Aggregate, Summary};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let mut t = Table::new(&["a", "bbbb"]);
        t.row(&["12345", "6"]);
        let rendered = t.render();
        let lines: Vec<&str> = rendered.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].ends_with("bbbb"));
        assert!(lines[2].starts_with("12345"));
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn table_rejects_bad_rows() {
        Table::new(&["x"]).row(&["1", "2"]);
    }

    #[test]
    fn reexported_aggregate_is_the_runner_statistics() {
        assert_eq!(Aggregate::of(&[]), Aggregate::default());
        let a = Aggregate::of(&[2.0, 4.0]);
        assert_eq!(a.mean, 3.0);
        assert_eq!(a.stddev, 1.0);
        assert_eq!(a.min, 2.0);
        assert_eq!(a.max, 4.0);
    }
}
