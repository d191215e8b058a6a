//! **E6** — Theorem 3 (`2Δ` colors, zero communication) and Lemma 5.1
//! (constant Δ, one round): the color-count / communication trade-off
//! around the Ω(n) threshold of Theorem 4.
//!
//! Ported to `bichrome-runner`: both sides of the trade-off are
//! registry protocols run on the same instance.

use bichrome_bench::Table;
use bichrome_graph::gen;
use bichrome_graph::partition::Partitioner;
use bichrome_runner::{registry, Instance};

fn main() {
    println!("E6: the last color costs Ω(n) bits (Theorems 2, 3, 4)\n");
    let reg = registry();
    let zero_comm = reg.get("edge/theorem3-zero-comm").expect("registered");
    let theorem2 = reg.get("edge/theorem2").expect("registered");
    let mut t = Table::new(&["n", "Δ", "colors", "bits", "rounds", "protocol"]);
    let mut silent = 0;
    for &n in &[256usize, 1024] {
        for &delta in &[6usize, 12] {
            let g = gen::gnm_max_degree(n, n * delta / 3, delta, 5);
            let d = g.max_degree();
            let inst = Instance::new("gnm", Partitioner::Random(3).split(&g), 0);

            // (2Δ)-coloring: zero communication (Theorem 3).
            let out = zero_comm.run(&inst);
            assert!(out.verdict.is_valid(), "Theorem 3 must validate");
            assert_eq!(
                (out.stats.total_bits(), out.stats.rounds),
                (0, 0),
                "Theorem 3 must send 0 bits in 0 rounds: n = {n}, Δ = {d}"
            );
            silent += 1;
            t.row(&[
                &n.to_string(),
                &d.to_string(),
                &format!("2Δ = {}", 2 * d),
                &out.stats.total_bits().to_string(),
                &out.stats.rounds.to_string(),
                "Theorem 3 (local only)",
            ]);

            // (2Δ−1)-coloring: Θ(n) bits (Theorem 2; lower bound Thm 4).
            let out = theorem2.run(&inst);
            assert!(out.verdict.is_valid(), "Theorem 2 must validate");
            let label = if d <= 7 { "Lemma 5.1" } else { "Algorithm 2" };
            t.row(&[
                &n.to_string(),
                &d.to_string(),
                &format!("2Δ−1 = {}", 2 * d - 1),
                &out.stats.total_bits().to_string(),
                &out.stats.rounds.to_string(),
                label,
            ]);
        }
    }
    t.print();
    println!(
        "\nClaim check (asserted): with 2Δ colors the parties need not talk at \
         all — all {silent} Theorem 3 rows sent 0 bits in 0 rounds.\n\
         Read off the table, not asserted: dropping a single color costs Θ(n) \
         bits, and Theorem 4 proves no protocol can do better than Ω(n)."
    );
}
