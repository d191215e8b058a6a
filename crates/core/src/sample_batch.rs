//! Batched `Color-Sample`: a structure-of-arrays engine for driving
//! thousands of Lemma 3.1 machines per round.
//!
//! [`crate::color_sample::ColorSample`] is the reference
//! implementation: one heap-allocated machine per (vertex, rep), a
//! `Vec<bool>` membership, and an element-list probe sample. Algorithm
//! 1 runs *hundreds of thousands* of these per iteration, which makes
//! the per-machine allocations and the per-round `filter().collect()`
//! scans the dominant cost of D1LC on large instances.
//!
//! [`ColorSampleBatch`] runs the *same protocol, bit for bit*, over
//! flat SoA arenas: permutation `u32`s, membership and probe-sample
//! bitmasks as `u64` words — zero per-machine allocations, probe
//! counts are word popcounts. Each round writes every active machine's
//! bits into one message in machine order and parses the peer's
//! message in place, so results, wire bits and round counts are
//! identical to driving the equivalent `ColorSample`s with
//! [`bichrome_comm::machine::drive_lockstep`] (asserted by the
//! differential tests below).

use crate::color_sample::{PERM_TAG, SAMPLE_TAG};
use crate::slack_int::SAMPLE_CONSTANT;
use bichrome_comm::channel::Endpoint;
use bichrome_comm::wire::{width_for, BitReader, BitWriter};
use bichrome_comm::PublicCoin;
use bichrome_graph::coloring::ColorId;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

/// Sentinel: machine not settled yet.
const PENDING: u32 = u32::MAX;

/// Per-machine inputs, handed to the build closure to fill in. The
/// buffers are reused across machines — the closure overwrites, the
/// engine clears.
#[derive(Debug, Default)]
pub struct MachineSpec {
    stream: Vec<u64>,
    occupied: Vec<u32>,
}

impl MachineSpec {
    /// Sets the public-coin stream path for this machine (the
    /// `stream` argument of `ColorSample::new`, e.g.
    /// `[tag, iteration, vertex]`). Both parties must set identical
    /// paths.
    pub fn set_stream(&mut self, ids: &[u64]) {
        self.stream.clear();
        self.stream.extend_from_slice(ids);
    }

    /// Adds one occupied color (this side's colored neighbors).
    /// Duplicates are harmless.
    pub fn add_occupied(&mut self, c: ColorId) {
        self.occupied.push(c.0);
    }

    /// Adds every occupied color from an iterator.
    pub fn extend_occupied(&mut self, colors: impl IntoIterator<Item = ColorId>) {
        self.occupied.extend(colors.into_iter().map(|c| c.0));
    }
}

/// A batch of `Color-Sample` machines over dense SoA arenas,
/// bit-identical on the wire to the equivalent `Vec<ColorSample>`
/// under `drive_lockstep`. Strides: `m` for `perm`, `w = ceil(m/64)`
/// words for the bitmasks, 1 elsewhere.
#[derive(Debug)]
pub struct ColorSampleBatch {
    count: usize,
    m: usize,
    w: usize,
    /// `perm[i*m + j]` = original color at permuted position `j`.
    perm: Vec<u32>,
    /// Occupied-color membership over *permuted* positions.
    mem: Vec<u64>,
    /// Current probe sample (probe phase) / candidate set (search
    /// phase) over permuted positions. Public: identical on both
    /// sides.
    sample: Vec<u64>,
    /// Popcount of `sample`.
    sample_len: Vec<u32>,
    /// Probe width, or the search round's pending width.
    width: Vec<u8>,
    /// Shared sampling stream, one per machine.
    rng: Vec<StdRng>,
    k_guess: Vec<u64>,
    /// Search window over candidate *ranks*; `hi == 0` means probe
    /// phase (a live search window is never empty).
    lo: Vec<u32>,
    hi: Vec<u32>,
    /// The settled color, or [`PENDING`].
    result: Vec<u32>,
}

/// Count of set bits of `mem` restricted to positions whose *rank
/// within `sample`* lies in `[lo, hi_excl)` — `DetSlackInt::my_count`
/// over the implicit candidate list "set bits of `sample` in
/// increasing position order".
fn rank_window_count(sample: &[u64], mem: &[u64], lo: u32, hi_excl: u32) -> u64 {
    let mut rank = 0u32;
    let mut count = 0u64;
    for (&ws, &wm) in sample.iter().zip(mem) {
        let in_sample = ws.count_ones();
        if in_sample == 0 {
            continue;
        }
        if rank + in_sample > lo {
            let mut w = ws;
            let mut r = rank;
            while w != 0 {
                let b = w.trailing_zeros();
                if r >= hi_excl {
                    return count;
                }
                if r >= lo && (wm >> b) & 1 == 1 {
                    count += 1;
                }
                w &= w - 1;
                r += 1;
            }
        }
        rank += in_sample;
        if rank >= hi_excl {
            break;
        }
    }
    count
}

/// Position (over `0..m`) of the `rank`-th set bit of `sample`.
fn select_rank(sample: &[u64], rank: u32) -> u32 {
    let mut seen = 0u32;
    for (wi, &word) in sample.iter().enumerate() {
        let c = word.count_ones();
        if seen + c > rank {
            let mut w = word;
            let mut r = seen;
            loop {
                let b = w.trailing_zeros();
                if r == rank {
                    return (wi * 64) as u32 + b;
                }
                w &= w - 1;
                r += 1;
            }
        }
        seen += c;
    }
    unreachable!("rank {rank} beyond sample popcount {seen}")
}

#[inline]
fn masked_popcount(a: &[u64], b: &[u64]) -> u64 {
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x & y).count_ones() as u64)
        .sum()
}

impl ColorSampleBatch {
    /// Builds `count` machines over the palette `{0, …,
    /// palette_size-1}`. `fill` receives each machine index in order
    /// and sets its stream path and occupied colors.
    ///
    /// # Panics
    ///
    /// Panics if `palette_size == 0` or a machine's occupied color
    /// falls outside the palette.
    pub fn build<F>(palette_size: usize, count: usize, coin: &PublicCoin, mut fill: F) -> Self
    where
        F: FnMut(usize, &mut MachineSpec),
    {
        assert!(palette_size >= 1, "palette must be nonempty");
        let m = palette_size;
        let w = m.div_ceil(64);
        let mut b = ColorSampleBatch {
            count,
            m,
            w,
            perm: vec![0u32; count * m],
            mem: vec![0u64; count * w],
            sample: vec![0u64; count * w],
            sample_len: vec![0u32; count],
            width: vec![0u8; count],
            rng: Vec::with_capacity(count),
            k_guess: vec![m as u64; count],
            lo: vec![0u32; count],
            hi: vec![0u32; count],
            result: vec![PENDING; count],
        };
        let mut spec = MachineSpec::default();
        let mut pos_of = vec![0u32; m];
        let mut ids: Vec<u64> = Vec::new();
        for i in 0..count {
            spec.stream.clear();
            spec.occupied.clear();
            fill(i, &mut spec);
            // Permutation — identical RNG consumption to
            // `ColorSample::new` (same stream path, same shuffle).
            let perm = &mut b.perm[i * m..(i + 1) * m];
            for (j, p) in perm.iter_mut().enumerate() {
                *p = j as u32;
            }
            ids.clear();
            ids.push(PERM_TAG);
            ids.extend_from_slice(&spec.stream);
            perm.shuffle(&mut coin.stream(&ids));
            for (j, &c) in perm.iter().enumerate() {
                pos_of[c as usize] = j as u32;
            }
            let mem = &mut b.mem[i * w..(i + 1) * w];
            for &c in &spec.occupied {
                assert!((c as usize) < m, "occupied color {c} outside palette");
                let j = pos_of[c as usize];
                mem[(j / 64) as usize] |= 1u64 << (j % 64);
            }
            ids.clear();
            ids.push(SAMPLE_TAG);
            ids.extend_from_slice(&spec.stream);
            b.rng.push(coin.stream(&ids));
            // First probe is drawn at construction, as in
            // `RandSlackInt::with_constant`.
            b.draw_probe(i);
        }
        b
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.count
    }

    /// Whether the batch holds no machines.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Drives every machine to completion over `ep`, one message per
    /// round (exactly `drive_lockstep`'s wire format). Returns the
    /// number of rounds.
    ///
    /// # Panics
    ///
    /// Panics if the peer's message for a round is not exactly as long
    /// as this side's: per machine and per round both sides write the
    /// same width (the probe width comes from the shared public sample,
    /// the search width from the publicly evolving window).
    pub fn drive(&mut self, ep: &Endpoint) -> u64 {
        let mut rounds = 0u64;
        loop {
            let mut w = BitWriter::new();
            if !self.write_round(&mut w) {
                return rounds;
            }
            let sent = w.len_bits();
            let incoming = ep.exchange(w.finish());
            assert_eq!(
                incoming.len_bits(),
                sent,
                "peer sent a different number of bits than expected"
            );
            self.read_round(&mut incoming.reader());
            rounds += 1;
        }
    }

    /// The settled colors in machine order. Both parties agree on
    /// every entry.
    ///
    /// # Panics
    ///
    /// Panics if the batch has not been driven to completion.
    pub fn results(&self) -> impl Iterator<Item = ColorId> + '_ {
        self.result.iter().map(|&c| {
            assert_ne!(c, PENDING, "batch not driven to completion");
            ColorId(c)
        })
    }

    /// Draws a fresh probe sample for machine `i` — exactly `m`
    /// booleans from the shared stream, like
    /// `RandSlackInt::probe_phase`, so the streams stay aligned
    /// regardless of outcomes.
    fn draw_probe(&mut self, i: usize) {
        let p = (SAMPLE_CONSTANT * self.m as f64
            / (self.k_guess[i] as f64 * self.k_guess[i] as f64))
            .min(1.0);
        let sample = &mut self.sample[i * self.w..(i + 1) * self.w];
        sample.fill(0);
        let rng = &mut self.rng[i];
        for e in 0..self.m as u64 {
            if rng.gen_bool(p) {
                sample[(e / 64) as usize] |= 1u64 << (e % 64);
            }
        }
        let slen: u64 = sample.iter().map(|&x| x.count_ones() as u64).sum();
        self.sample_len[i] = slen as u32;
        self.width[i] = width_for(slen) as u8;
    }

    /// Appends this round's bits for every active machine. Returns
    /// whether any machine was active.
    fn write_round(&mut self, w: &mut BitWriter) -> bool {
        let mut any = false;
        for i in 0..self.count {
            if self.result[i] != PENDING {
                continue;
            }
            any = true;
            let sample = &self.sample[i * self.w..(i + 1) * self.w];
            let mem = &self.mem[i * self.w..(i + 1) * self.w];
            if self.hi[i] == 0 {
                // Probe: announce |S ∩ my| at the public sample width.
                w.write_uint(masked_popcount(sample, mem), self.width[i] as usize);
            } else {
                // Search: announce the left-half count; the width is a
                // function of the public window, recorded for the read.
                let mid = (self.lo[i] + self.hi[i]) / 2;
                let left = mid - self.lo[i];
                self.width[i] = width_for(left as u64) as u8;
                w.write_uint(
                    rank_window_count(sample, mem, self.lo[i], mid),
                    self.width[i] as usize,
                );
            }
        }
        any
    }

    /// Absorbs this round's peer bits for every machine active at
    /// round start (done-ness only changes at a machine's own read, in
    /// index order, so the skip test sees round-start state).
    fn read_round(&mut self, r: &mut BitReader<'_>) {
        for i in 0..self.count {
            if self.result[i] != PENDING {
                continue;
            }
            let peer = r.read_uint(self.width[i] as usize);
            let sample = &self.sample[i * self.w..(i + 1) * self.w];
            let mem = &self.mem[i * self.w..(i + 1) * self.w];
            if self.hi[i] == 0 {
                let mine = masked_popcount(sample, mem);
                let slen = self.sample_len[i] as u64;
                if slen > 0 && mine + peer < slen {
                    // Deficit certified: search inside the sample.
                    self.lo[i] = 0;
                    self.hi[i] = self.sample_len[i];
                    if slen == 1 {
                        self.settle(i);
                    }
                } else {
                    assert!(
                        slen < self.m as u64 || self.k_guess[i] > 1,
                        "k-Slack-Int precondition violated: \
                         |X| + |Y| = {} ≥ m = {}",
                        mine + peer,
                        self.m
                    );
                    self.k_guess[i] = (self.k_guess[i] / 2).max(1);
                    self.draw_probe(i);
                }
            } else {
                let mid = (self.lo[i] + self.hi[i]) / 2;
                let mine = rank_window_count(sample, mem, self.lo[i], mid);
                let left = (mid - self.lo[i]) as u64;
                if mine + peer < left {
                    self.hi[i] = mid;
                } else {
                    self.lo[i] = mid;
                }
                if self.hi[i] - self.lo[i] == 1 {
                    self.settle(i);
                }
            }
        }
    }

    /// Window narrowed to one candidate: map its permuted position
    /// back through the permutation.
    fn settle(&mut self, i: usize) {
        let sample = &self.sample[i * self.w..(i + 1) * self.w];
        let j = select_rank(sample, self.lo[i]);
        self.result[i] = self.perm[i * self.m + j as usize];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::color_sample::ColorSample;
    use bichrome_comm::machine::{drive_lockstep, RoundMachine};
    use bichrome_comm::session::run_two_party_ctx;
    use bichrome_comm::CommStats;
    use rand::prelude::*;

    #[test]
    fn rank_window_count_matches_naive() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..200 {
            let words = rng.gen_range(1..4usize);
            let sample: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let mem: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let total = sample.iter().map(|w| w.count_ones()).sum::<u32>();
            if total == 0 {
                continue;
            }
            let lo = rng.gen_range(0..total);
            let hi = rng.gen_range(lo..=total);
            // Naive: walk candidate positions in order.
            let mut naive = 0u64;
            let mut rank = 0u32;
            for pos in 0..words * 64 {
                if (sample[pos / 64] >> (pos % 64)) & 1 == 1 {
                    if rank >= lo && rank < hi && (mem[pos / 64] >> (pos % 64)) & 1 == 1 {
                        naive += 1;
                    }
                    rank += 1;
                }
            }
            assert_eq!(rank_window_count(&sample, &mem, lo, hi), naive);
        }
    }

    #[test]
    fn select_rank_matches_naive() {
        let mut rng = StdRng::seed_from_u64(8);
        for _ in 0..200 {
            let words = rng.gen_range(1..4usize);
            let sample: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
            let positions: Vec<u32> = (0..words as u32 * 64)
                .filter(|&p| (sample[(p / 64) as usize] >> (p % 64)) & 1 == 1)
                .collect();
            for (rank, &pos) in positions.iter().enumerate() {
                assert_eq!(select_rank(&sample, rank as u32), pos);
            }
        }
    }

    /// A randomized instance set: per machine, a palette and two
    /// occupied sets whose cardinalities sum to < palette (the
    /// Problem 6 precondition, as the coloring protocols guarantee).
    fn random_instances(seed: u64, count: usize, palette: usize) -> Vec<(Vec<u32>, Vec<u32>)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..count)
            .map(|_| {
                let total = rng.gen_range(0..palette);
                let a_n = rng.gen_range(0..=total);
                let mut colors: Vec<u32> = (0..palette as u32).collect();
                colors.shuffle(&mut rng);
                let a = colors[..a_n].to_vec();
                let b = colors[a_n..total].to_vec();
                (a, b)
            })
            .collect()
    }

    fn run_reference(
        palette: usize,
        instances: &[(Vec<u32>, Vec<u32>)],
        seed: u64,
    ) -> (Vec<ColorId>, Vec<ColorId>, CommStats) {
        let side = |mine: Vec<Vec<u32>>| {
            move |ctx: bichrome_comm::session::PartyCtx| {
                let mut machines: Vec<ColorSample> = mine
                    .iter()
                    .enumerate()
                    .map(|(i, occ)| {
                        ColorSample::new(
                            palette,
                            occ.iter().map(|&c| ColorId(c)),
                            &ctx.coin,
                            &[0xBA7C4, i as u64],
                        )
                    })
                    .collect();
                let mut refs: Vec<&mut dyn RoundMachine> = machines
                    .iter_mut()
                    .map(|m| m as &mut dyn RoundMachine)
                    .collect();
                drive_lockstep(&ctx.endpoint, &mut refs);
                machines
                    .iter()
                    .map(|m| m.result().expect("done"))
                    .collect::<Vec<_>>()
            }
        };
        let a_sets: Vec<Vec<u32>> = instances.iter().map(|(a, _)| a.clone()).collect();
        let b_sets: Vec<Vec<u32>> = instances.iter().map(|(_, b)| b.clone()).collect();
        let (ra, rb, stats) = run_two_party_ctx(seed, side(a_sets), side(b_sets));
        (ra, rb, stats)
    }

    fn run_batch(
        palette: usize,
        instances: &[(Vec<u32>, Vec<u32>)],
        seed: u64,
    ) -> (Vec<ColorId>, Vec<ColorId>, CommStats) {
        let side = |mine: Vec<Vec<u32>>| {
            move |ctx: bichrome_comm::session::PartyCtx| {
                let mut batch =
                    ColorSampleBatch::build(palette, mine.len(), &ctx.coin, |i, spec| {
                        spec.set_stream(&[0xBA7C4, i as u64]);
                        spec.extend_occupied(mine[i].iter().map(|&c| ColorId(c)));
                    });
                batch.drive(&ctx.endpoint);
                batch.results().collect::<Vec<_>>()
            }
        };
        let a_sets: Vec<Vec<u32>> = instances.iter().map(|(a, _)| a.clone()).collect();
        let b_sets: Vec<Vec<u32>> = instances.iter().map(|(_, b)| b.clone()).collect();
        let (ra, rb, stats) = run_two_party_ctx(seed, side(a_sets), side(b_sets));
        (ra, rb, stats)
    }

    #[test]
    fn batch_is_bit_identical_to_reference() {
        for (seed, count, palette) in [(1u64, 37usize, 9usize), (2, 80, 17), (3, 5, 1), (4, 64, 70)]
        {
            let instances = random_instances(seed * 31, count, palette);
            let (ra, rb, ref_stats) = run_reference(palette, &instances, seed);
            assert_eq!(ra, rb);
            let (ba, bb, stats) = run_batch(palette, &instances, seed);
            assert_eq!(ba, ra, "results (seed {seed})");
            assert_eq!(bb, rb);
            assert_eq!(stats, ref_stats, "CommStats (seed {seed})");
        }
    }

    #[test]
    fn empty_batch_costs_nothing() {
        let (ra, rb, stats) = run_two_party_ctx(
            0,
            |ctx| {
                let mut b = ColorSampleBatch::build(5, 0, &ctx.coin, |_, _| {});
                assert!(b.is_empty());
                b.drive(&ctx.endpoint)
            },
            |ctx| {
                let mut b = ColorSampleBatch::build(5, 0, &ctx.coin, |_, _| {});
                b.drive(&ctx.endpoint)
            },
        );
        assert_eq!((ra, rb), (0, 0));
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.total_bits(), 0);
    }

    #[test]
    fn results_avoid_both_occupied_sets() {
        let palette = 12;
        let instances = random_instances(99, 50, palette);
        let (ra, _, _) = run_batch(palette, &instances, 5);
        for (i, c) in ra.iter().enumerate() {
            let (a, b) = &instances[i];
            assert!(
                !a.contains(&c.0) && !b.contains(&c.0),
                "machine {i} got occupied {c}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "outside palette")]
    fn occupied_outside_palette_panics() {
        let coin = PublicCoin::new(0);
        let _ = ColorSampleBatch::build(3, 1, &coin, |_, spec| {
            spec.set_stream(&[1]);
            spec.add_occupied(ColorId(3));
        });
    }
}
