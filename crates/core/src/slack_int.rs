//! The `k-Slack-Int` protocols (Problem 6, Appendix A).
//!
//! Alice holds `X ⊆ [m]`, Bob holds `Y ⊆ [m]`, with `|X| + |Y| ≤ m − k`
//! for some `k ≥ 1`; the goal is to agree on an element of
//! `[m] \ (X ∪ Y)`.
//!
//! * [`DetSlackInt`] — the deterministic binary-search protocol of
//!   Lemma A.1: `O(log² m)` bits, `O(log m)` rounds, worst case.
//! * [`RandSlackInt`] — Algorithm 3 (Lemma A.2): exponentially
//!   decreasing guesses `k̃` of the slack, a public random sample `S`
//!   per guess, and the deterministic search inside the first sample
//!   with a certified deficit. Expected `O(log²((m+1)/k))` bits and
//!   `O(log((m+1)/k))` rounds.
//!
//! Both are [`RoundMachine`]s so that many instances (one per vertex)
//! can share each round's message, as Algorithm 1 requires.

use bichrome_comm::machine::RoundMachine;
use bichrome_comm::wire::{width_for, BitReader, BitWriter};
use rand::rngs::StdRng;
use rand::Rng;

/// One party's input to a slack-int instance: membership of its set
/// over the universe `[m]`.
#[derive(Debug, Clone)]
pub struct SetMembership {
    bits: Vec<bool>,
}

impl SetMembership {
    /// Membership from an explicit element list.
    ///
    /// # Panics
    ///
    /// Panics if an element is `>= m`.
    pub fn from_elements(m: usize, elements: impl IntoIterator<Item = u64>) -> Self {
        let mut bits = vec![false; m];
        for e in elements {
            assert!((e as usize) < m, "element {e} outside universe of size {m}");
            bits[e as usize] = true;
        }
        SetMembership { bits }
    }

    /// Membership from a closure over `0..m`.
    pub fn from_fn(m: usize, f: impl FnMut(u64) -> bool) -> Self {
        SetMembership {
            bits: (0..m as u64).map(f).collect(),
        }
    }

    /// Universe size `m`.
    pub fn universe(&self) -> usize {
        self.bits.len()
    }

    /// Whether element `e` belongs to the set.
    #[inline]
    pub fn contains(&self, e: u64) -> bool {
        self.bits[e as usize]
    }

    /// Cardinality of the set.
    pub fn len(&self) -> usize {
        self.bits.iter().filter(|&&b| b).count()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        !self.bits.iter().any(|&b| b)
    }
}

/// Deterministic binary-search protocol (Lemma A.1) over a public
/// candidate list.
///
/// Both parties hold the same `candidates` (public) and their own
/// membership. Precondition: the *deficit certificate* holds, i.e.
/// `|S ∩ X| + |S ∩ Y| < |S|` for the candidate list `S` — then some
/// candidate is in neither set and the search provably converges to
/// one. Each round both parties simultaneously announce how many of
/// the first half of the current window belong to their set
/// (`⌈log(|window|+1)⌉` bits each) and recurse into a half whose
/// deficit certificate still holds.
#[derive(Debug)]
pub struct DetSlackInt {
    my: SetMembership,
    candidates: Vec<u64>,
    lo: usize,
    hi: usize,
    pending_width: usize,
    result: Option<u64>,
}

impl DetSlackInt {
    /// Starts a search over `candidates`.
    ///
    /// # Panics
    ///
    /// Panics if `candidates` is empty.
    pub fn new(my: SetMembership, candidates: Vec<u64>) -> Self {
        assert!(
            !candidates.is_empty(),
            "cannot search an empty candidate list"
        );
        let hi = candidates.len();
        let mut machine = DetSlackInt {
            my,
            candidates,
            lo: 0,
            hi,
            pending_width: 0,
            result: None,
        };
        machine.settle();
        machine
    }

    /// Narrows trivially-decided windows (size 1) without communication.
    fn settle(&mut self) {
        if self.hi - self.lo == 1 {
            self.result = Some(self.candidates[self.lo]);
        }
    }

    fn my_count(&self, lo: usize, hi: usize) -> u64 {
        self.candidates[lo..hi]
            .iter()
            .filter(|&&e| self.my.contains(e))
            .count() as u64
    }

    /// The agreed element, if the search finished.
    pub fn result(&self) -> Option<u64> {
        self.result
    }
}

impl RoundMachine for DetSlackInt {
    fn is_done(&self) -> bool {
        self.result.is_some()
    }

    fn write_round(&mut self, w: &mut BitWriter) {
        let mid = (self.lo + self.hi) / 2;
        let left = mid - self.lo;
        self.pending_width = width_for(left as u64);
        w.write_uint(self.my_count(self.lo, mid), self.pending_width);
    }

    fn read_round(&mut self, r: &mut BitReader<'_>) {
        let peer = r.read_uint(self.pending_width);
        let mid = (self.lo + self.hi) / 2;
        let mine = self.my_count(self.lo, mid);
        let left = (mid - self.lo) as u64;
        if mine + peer < left {
            self.hi = mid;
        } else {
            self.lo = mid;
        }
        self.settle();
    }
}

/// The slack-guess constant of Algorithm 3: sampling probability is
/// `min(1, C·m / k̃²)`. Shared with the batched engine
/// (`crate::sample_batch`), which replicates the probe draw exactly.
pub(crate) const SAMPLE_CONSTANT: f64 = 150.0;

#[derive(Debug)]
enum RandPhase {
    /// Counts over the current sample are in flight.
    Probe { sample: Vec<u64>, width: usize },
    /// Deficit certified; binary search inside the sample.
    Search(DetSlackInt),
}

/// Randomized `k-Slack-Int` protocol (Algorithm 3 / Lemma A.2).
///
/// Precondition (Problem 6): `|X| + |Y| ≤ m − 1`, as a sum of set
/// *cardinalities* — this is stronger than "a free element exists"
/// when the sets overlap, and it is what the deficit certificate
/// `|S∩X| + |S∩Y| < |S|` relies on. The coloring protocols satisfy it
/// because a vertex's Alice-side and Bob-side neighborhoods are
/// disjoint, so the two color sets have total size at most
/// `deg(v) ≤ Δ = m − 1`. Under the precondition the protocol never
/// fails: the final guess `k̃ = 1` samples the full universe, where
/// the deficit holds outright.
///
/// The shared RNG must be an identical public-coin stream on both
/// sides (see `bichrome_comm::coin`).
#[derive(Debug)]
pub struct RandSlackInt {
    my: SetMembership,
    m: usize,
    rng: StdRng,
    k_guess: u64,
    constant: f64,
    phase: RandPhase,
    result: Option<u64>,
}

impl RandSlackInt {
    /// Starts an instance over the universe `[m]` implied by `my`,
    /// with the paper's sampling constant (150).
    ///
    /// # Panics
    ///
    /// Panics if the universe is empty.
    pub fn new(my: SetMembership, rng: StdRng) -> Self {
        Self::with_constant(my, rng, SAMPLE_CONSTANT)
    }

    /// Starts an instance with a custom sampling constant `C`
    /// (probability `min(1, C·m/k̃²)` per guess) — exposed for the
    /// ablation experiment A2. Both parties must pass the same value.
    ///
    /// # Panics
    ///
    /// Panics if the universe is empty or `constant` is not positive.
    pub fn with_constant(my: SetMembership, mut rng: StdRng, constant: f64) -> Self {
        let m = my.universe();
        assert!(m >= 1, "universe must be nonempty");
        assert!(constant > 0.0, "sampling constant must be positive");
        let k_guess = m as u64;
        let phase = Self::probe_phase(m, k_guess, constant, &mut rng);
        RandSlackInt {
            my,
            m,
            rng,
            k_guess,
            constant,
            phase,
            result: None,
        }
    }

    fn probe_phase(m: usize, k_guess: u64, constant: f64, rng: &mut StdRng) -> RandPhase {
        let p = (constant * m as f64 / (k_guess as f64 * k_guess as f64)).min(1.0);
        let mut sample = Vec::new();
        // Both sides draw exactly m booleans from the shared stream, so
        // the streams stay aligned regardless of the outcome.
        for e in 0..m as u64 {
            if rng.gen_bool(p) {
                sample.push(e);
            }
        }
        let width = width_for(sample.len() as u64);
        RandPhase::Probe { sample, width }
    }

    /// The agreed element, if finished.
    pub fn result(&self) -> Option<u64> {
        self.result
    }
}

impl RoundMachine for RandSlackInt {
    fn is_done(&self) -> bool {
        self.result.is_some()
    }

    fn write_round(&mut self, w: &mut BitWriter) {
        match &mut self.phase {
            RandPhase::Probe { sample, width } => {
                let count = sample.iter().filter(|&&e| self.my.contains(e)).count() as u64;
                w.write_uint(count, *width);
            }
            RandPhase::Search(det) => det.write_round(w),
        }
    }

    fn read_round(&mut self, r: &mut BitReader<'_>) {
        match &mut self.phase {
            RandPhase::Probe { sample, width } => {
                let peer = r.read_uint(*width);
                let mine = sample.iter().filter(|&&e| self.my.contains(e)).count() as u64;
                if !sample.is_empty() && mine + peer < sample.len() as u64 {
                    // Deficit certified: a free element is inside the sample.
                    let candidates = std::mem::take(sample);
                    let det = DetSlackInt::new(self.my.clone(), candidates);
                    self.result = det.result();
                    self.phase = RandPhase::Search(det);
                } else {
                    // At k̃ = 1 the sample is the full universe; if even
                    // that fails to certify, the Problem 6 precondition
                    // |X| + |Y| ≤ m − 1 was violated by the caller. Fail
                    // loudly rather than looping forever.
                    assert!(
                        sample.len() < self.m || self.k_guess > 1,
                        "k-Slack-Int precondition violated: \
                         |X| + |Y| = {} ≥ m = {}",
                        mine + peer,
                        self.m
                    );
                    self.k_guess = (self.k_guess / 2).max(1);
                    self.phase =
                        Self::probe_phase(self.m, self.k_guess, self.constant, &mut self.rng);
                }
            }
            RandPhase::Search(det) => {
                det.read_round(r);
                self.result = det.result();
            }
        }
    }
}

/// Convenience runner: executes one randomized slack-int instance
/// between the two given memberships and returns
/// `(element, rounds)` along with leaving communication accounted on
/// the session meter. Used heavily in tests and by E4.
///
/// `side` selects which membership drives which endpoint; both sides
/// always agree on the output, which is asserted.
pub fn run_slack_int_session(
    m: usize,
    x: &[u64],
    y: &[u64],
    seed: u64,
) -> (u64, bichrome_comm::CommStats) {
    run_slack_int_session_with_constant(m, x, y, seed, SAMPLE_CONSTANT)
}

/// Like [`run_slack_int_session`] but with a custom sampling constant
/// (see [`RandSlackInt::with_constant`]); used by ablation A2.
pub fn run_slack_int_session_with_constant(
    m: usize,
    x: &[u64],
    y: &[u64],
    seed: u64,
    constant: f64,
) -> (u64, bichrome_comm::CommStats) {
    use bichrome_comm::machine::drive_single;
    use bichrome_comm::session::run_two_party_ctx;

    let mx = SetMembership::from_elements(m, x.iter().copied());
    let my = SetMembership::from_elements(m, y.iter().copied());
    let (ra, rb, stats) = run_two_party_ctx(
        seed,
        move |ctx| {
            let mut machine =
                RandSlackInt::with_constant(mx, ctx.coin.stream(&[0xA11CE]), constant);
            drive_single(&ctx.endpoint, &mut machine);
            machine.result().expect("driven to completion")
        },
        move |ctx| {
            let mut machine =
                RandSlackInt::with_constant(my, ctx.coin.stream(&[0xA11CE]), constant);
            drive_single(&ctx.endpoint, &mut machine);
            machine.result().expect("driven to completion")
        },
    );
    assert_eq!(ra, rb, "parties must agree on the element");
    (ra, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bichrome_comm::machine::drive_single;
    use bichrome_comm::session::run_two_party_ctx;

    #[test]
    fn membership_basics() {
        let s = SetMembership::from_elements(8, [1, 3, 5]);
        assert_eq!(s.universe(), 8);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(0));
        assert!(!s.is_empty());
        assert!(SetMembership::from_elements(4, []).is_empty());
        let f = SetMembership::from_fn(6, |e| e % 2 == 0);
        assert_eq!(f.len(), 3);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn membership_rejects_out_of_range() {
        let _ = SetMembership::from_elements(4, [4]);
    }

    fn run_det(m: usize, x: Vec<u64>, y: Vec<u64>) -> u64 {
        let candidates: Vec<u64> = (0..m as u64).collect();
        let cand2 = candidates.clone();
        let (ra, rb, _) = run_two_party_ctx(
            0,
            move |ctx| {
                let mut machine = DetSlackInt::new(SetMembership::from_elements(m, x), candidates);
                drive_single(&ctx.endpoint, &mut machine);
                machine.result().expect("done")
            },
            move |ctx| {
                let mut machine = DetSlackInt::new(SetMembership::from_elements(m, y), cand2);
                drive_single(&ctx.endpoint, &mut machine);
                machine.result().expect("done")
            },
        );
        assert_eq!(ra, rb);
        ra
    }

    #[test]
    fn det_finds_free_element() {
        // [8] with X = {0,1,2}, Y = {4,5,6}: free = {3, 7}.
        let e = run_det(8, vec![0, 1, 2], vec![4, 5, 6]);
        assert!(e == 3 || e == 7);
    }

    #[test]
    fn det_single_candidate_needs_no_rounds() {
        let m = DetSlackInt::new(SetMembership::from_elements(3, []), vec![2]);
        assert!(m.is_done());
        assert_eq!(m.result(), Some(2));
    }

    #[test]
    fn det_handles_overlapping_sets() {
        // Overlap makes the naive count pessimistic but still sound.
        let e = run_det(6, vec![0, 1, 2], vec![1, 2, 3]);
        assert!(e == 4 || e == 5, "free elements are 4 and 5, got {e}");
    }

    #[test]
    fn det_only_one_free() {
        for free in 0..8u64 {
            let x: Vec<u64> = (0..8).filter(|&e| e != free && e % 2 == 0).collect();
            let y: Vec<u64> = (0..8).filter(|&e| e != free && e % 2 == 1).collect();
            assert_eq!(run_det(8, x, y), free);
        }
    }

    #[test]
    fn rand_finds_free_element_across_seeds() {
        for seed in 0..30 {
            let (e, _) = run_slack_int_session(32, &[0, 1, 2, 3, 4], &[10, 11, 12], seed);
            assert!(
                !(0..=4).contains(&e) && !(10..=12).contains(&e),
                "element {e} must avoid both sets"
            );
        }
    }

    #[test]
    fn rand_tight_instance_single_free() {
        // m = 16, X ∪ Y covers everything except 9.
        let x: Vec<u64> = (0..8).collect();
        let y: Vec<u64> = (8..16).filter(|&e| e != 9).collect();
        for seed in 0..10 {
            let (e, _) = run_slack_int_session(16, &x, &y, seed);
            assert_eq!(e, 9);
        }
    }

    #[test]
    fn rand_universe_of_one() {
        let (e, stats) = run_slack_int_session(1, &[], &[], 3);
        assert_eq!(e, 0);
        // Guess k̃ = 1 immediately samples everything; one probe round
        // suffices and the window has size 1.
        assert!(
            stats.rounds <= 2,
            "tiny universe should be near-free, got {stats}"
        );
    }

    #[test]
    fn rand_cost_shrinks_with_slack() {
        // Lemma A.2: expected bits O(log²((m+1)/k)). With huge slack the
        // first guesses already certify a deficit; with k = 1 the
        // protocol must walk its guesses down. Compare averages.
        let m = 1 << 10;
        let avg_bits = |x: Vec<u64>, y: Vec<u64>| -> f64 {
            let mut total = 0u64;
            let reps = 20;
            for seed in 0..reps {
                let (_, stats) = run_slack_int_session(m, &x, &y, 1000 + seed);
                total += stats.total_bits();
            }
            total as f64 / reps as f64
        };
        let loose = avg_bits(vec![], vec![]); // k = m
        let tight_x: Vec<u64> = (0..(m as u64) / 2).collect();
        let tight_y: Vec<u64> = ((m as u64) / 2..(m as u64) - 1).collect();
        let tight = avg_bits(tight_x, tight_y); // k = 1
        assert!(
            loose < tight,
            "more slack must mean fewer bits: loose={loose}, tight={tight}"
        );
    }

    #[test]
    fn det_worst_case_bits_are_polylog() {
        // Lemma A.1: O(log² m) bits. For m = 1024 the search has 10
        // levels of ≤ 2·10 bits each; allow slack for rounding.
        let m = 1024;
        let x: Vec<u64> = (0..511).collect();
        let y: Vec<u64> = (512..1023).collect();
        let candidates: Vec<u64> = (0..m as u64).collect();
        let cand2 = candidates.clone();
        let (ra, _, stats) = run_two_party_ctx(
            0,
            move |ctx| {
                let mut machine = DetSlackInt::new(SetMembership::from_elements(m, x), candidates);
                drive_single(&ctx.endpoint, &mut machine);
                machine.result().expect("done")
            },
            move |ctx| {
                let mut machine = DetSlackInt::new(SetMembership::from_elements(m, y), cand2);
                drive_single(&ctx.endpoint, &mut machine);
                machine.result().expect("done")
            },
        );
        assert!(ra == 511 || ra == 1023);
        assert!(
            stats.rounds <= 11,
            "binary search depth, got {}",
            stats.rounds
        );
        assert!(
            stats.total_bits() <= 220,
            "O(log² m) bits, got {}",
            stats.total_bits()
        );
    }
}
