//! The zero-communication edge-coloring (ZEC) game (§6.2).
//!
//! Fixed vertices `{v_A, v_B, v_1, ..., v_7}`. A referee hands Alice a
//! uniformly random pair of edges `{v_A, v_i}, {v_A, v_j}` (21 choices)
//! and Bob, independently, `{v_i, v_B}, {v_j, v_B}`. With no
//! communication and no public randomness, each player 3-colors its
//! own two edges; they win if the union is a proper 3-edge coloring.
//!
//! Lemma 6.2: every strategy wins with probability at most
//! [`ZEC_WIN_BOUND`] `= 11024/11025 < 1`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of middle vertices `v_1..v_7`.
pub const MIDDLE: usize = 7;
/// Number of possible inputs per player: `C(7,2)`.
pub const INPUTS: usize = 21;
/// The Lemma 6.2 upper bound on any strategy's win probability.
pub const ZEC_WIN_BOUND: f64 = 11024.0 / 11025.0;

/// An edge color in the 3-color palette of the game.
pub type GameColor = u8;

/// A player's input: the indices `0 ≤ i < j < 7` of the two middle
/// vertices its edges touch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PairInput {
    /// Smaller middle-vertex index.
    pub i: u8,
    /// Larger middle-vertex index.
    pub j: u8,
}

impl PairInput {
    /// Constructs a pair, normalizing order.
    ///
    /// # Panics
    ///
    /// Panics unless `a != b` and both are below 7.
    pub fn new(a: u8, b: u8) -> Self {
        assert!(
            a != b && a < MIDDLE as u8 && b < MIDDLE as u8,
            "bad pair ({a},{b})"
        );
        if a < b {
            PairInput { i: a, j: b }
        } else {
            PairInput { i: b, j: a }
        }
    }

    /// Every possible input, in lexicographic order.
    pub fn all() -> Vec<PairInput> {
        let mut out = Vec::with_capacity(INPUTS);
        for i in 0..MIDDLE as u8 {
            for j in (i + 1)..MIDDLE as u8 {
                out.push(PairInput { i, j });
            }
        }
        out
    }

    /// Uniformly random input.
    pub fn sample(rng: &mut StdRng) -> Self {
        let all = Self::all();
        all[rng.gen_range(0..all.len())]
    }
}

/// A (possibly randomized) strategy for the ZEC game.
///
/// The same object serves both players; implementations receive the
/// player's private RNG, so deterministic strategies simply ignore it.
/// Outputs are the colors of the edges to `input.i` and `input.j`,
/// in that order.
pub trait ZecStrategy {
    /// Alice's coloring of `{v_A, v_i}` and `{v_A, v_j}`.
    fn alice(&self, input: PairInput, rng: &mut StdRng) -> [GameColor; 2];
    /// Bob's coloring of `{v_i, v_B}` and `{v_j, v_B}`.
    fn bob(&self, input: PairInput, rng: &mut StdRng) -> [GameColor; 2];
    /// Display name for reports.
    fn name(&self) -> &'static str;
    /// Whether the strategy ignores its RNG (enables exact evaluation).
    fn is_deterministic(&self) -> bool {
        true
    }
}

/// Checks the winning condition for one play of the game.
///
/// Proper means: Alice's two edge colors differ (they meet at `v_A`),
/// Bob's two differ (they meet at `v_B`), and wherever both players
/// touch the same middle vertex, their colors there differ.
pub fn is_win(
    a_in: PairInput,
    a_colors: [GameColor; 2],
    b_in: PairInput,
    b_colors: [GameColor; 2],
) -> bool {
    if a_colors[0] == a_colors[1] || b_colors[0] == b_colors[1] {
        return false;
    }
    let a_at = |v: u8| -> Option<GameColor> {
        if v == a_in.i {
            Some(a_colors[0])
        } else if v == a_in.j {
            Some(a_colors[1])
        } else {
            None
        }
    };
    for (idx, v) in [b_in.i, b_in.j].into_iter().enumerate() {
        if let Some(ac) = a_at(v) {
            if ac == b_colors[idx] {
                return false;
            }
        }
    }
    true
}

/// Exact win probability of a deterministic strategy, by enumerating
/// all `21 × 21` equally likely joint inputs.
///
/// # Panics
///
/// Panics if called on a randomized strategy.
pub fn exact_win_probability(strategy: &dyn ZecStrategy) -> f64 {
    assert!(
        strategy.is_deterministic(),
        "exact evaluation needs determinism"
    );
    let mut rng = StdRng::seed_from_u64(0); // ignored by deterministic strategies
    let all = PairInput::all();
    let mut wins = 0usize;
    for &a in &all {
        let ac = strategy.alice(a, &mut rng);
        for &b in &all {
            let bc = strategy.bob(b, &mut rng);
            if is_win(a, ac, b, bc) {
                wins += 1;
            }
        }
    }
    wins as f64 / (all.len() * all.len()) as f64
}

/// Monte-Carlo estimate of a strategy's win probability.
pub fn estimate_win_probability(strategy: &dyn ZecStrategy, trials: usize, seed: u64) -> f64 {
    let mut referee = StdRng::seed_from_u64(seed ^ 0x5EED_0001);
    let mut a_rng = StdRng::seed_from_u64(seed ^ 0x5EED_000A);
    let mut b_rng = StdRng::seed_from_u64(seed ^ 0x5EED_000B);
    let mut wins = 0usize;
    for _ in 0..trials {
        let a_in = PairInput::sample(&mut referee);
        let b_in = PairInput::sample(&mut referee);
        let ac = strategy.alice(a_in, &mut a_rng);
        let bc = strategy.bob(b_in, &mut b_rng);
        if is_win(a_in, ac, b_in, bc) {
            wins += 1;
        }
    }
    wins as f64 / trials as f64
}

// ---------------------------------------------------------------------------
// Strategy suite
// ---------------------------------------------------------------------------

/// Deterministic strategy: color the edge to `v_i` with `labels[i]`,
/// bumping the second edge's color by one if the two collide at the
/// hub. Alice and Bob may use different base labelings.
#[derive(Debug, Clone)]
pub struct LabelingStrategy {
    /// Alice's labels per middle vertex.
    pub alice_labels: [GameColor; MIDDLE],
    /// Bob's labels per middle vertex.
    pub bob_labels: [GameColor; MIDDLE],
    /// Report name.
    pub label: &'static str,
}

impl LabelingStrategy {
    fn play(labels: &[GameColor; MIDDLE], input: PairInput) -> [GameColor; 2] {
        let c0 = labels[input.i as usize] % 3;
        let mut c1 = labels[input.j as usize] % 3;
        if c1 == c0 {
            c1 = (c1 + 1) % 3;
        }
        [c0, c1]
    }

    /// Both players use the labeling `i mod 3`.
    pub fn symmetric() -> Self {
        LabelingStrategy {
            alice_labels: [0, 1, 2, 0, 1, 2, 0],
            bob_labels: [0, 1, 2, 0, 1, 2, 0],
            label: "labeling-symmetric",
        }
    }

    /// Bob shifts his labels by one — the natural collision-avoidance
    /// attempt.
    pub fn shifted() -> Self {
        LabelingStrategy {
            alice_labels: [0, 1, 2, 0, 1, 2, 0],
            bob_labels: [1, 2, 0, 1, 2, 0, 1],
            label: "labeling-shifted",
        }
    }
}

impl ZecStrategy for LabelingStrategy {
    fn alice(&self, input: PairInput, _rng: &mut StdRng) -> [GameColor; 2] {
        Self::play(&self.alice_labels, input)
    }
    fn bob(&self, input: PairInput, _rng: &mut StdRng) -> [GameColor; 2] {
        Self::play(&self.bob_labels, input)
    }
    fn name(&self) -> &'static str {
        self.label
    }
}

/// Deterministic strategy ignoring the input: first edge color 0,
/// second color 1. (A deliberately weak member of the suite.)
#[derive(Debug, Clone, Default)]
pub struct LexStrategy;

impl ZecStrategy for LexStrategy {
    fn alice(&self, _input: PairInput, _rng: &mut StdRng) -> [GameColor; 2] {
        [0, 1]
    }
    fn bob(&self, _input: PairInput, _rng: &mut StdRng) -> [GameColor; 2] {
        [2, 1]
    }
    fn name(&self) -> &'static str {
        "lexicographic"
    }
}

/// Randomized strategy: a uniformly random ordered pair of distinct
/// colors, independent of the input.
#[derive(Debug, Clone, Default)]
pub struct RandomStrategy;

impl ZecStrategy for RandomStrategy {
    fn alice(&self, _input: PairInput, rng: &mut StdRng) -> [GameColor; 2] {
        let c0 = rng.gen_range(0..3u8);
        let c1 = (c0 + rng.gen_range(1..3u8)) % 3;
        [c0, c1]
    }
    fn bob(&self, input: PairInput, rng: &mut StdRng) -> [GameColor; 2] {
        self.alice(input, rng)
    }
    fn name(&self) -> &'static str {
        "random"
    }
    fn is_deterministic(&self) -> bool {
        false
    }
}

/// The strongest deterministic attempt in the suite: players try to
/// "agree" that Alice owns colors by vertex parity while Bob
/// complements, maximizing middle-vertex disagreement.
#[derive(Debug, Clone, Default)]
pub struct ComplementStrategy;

impl ZecStrategy for ComplementStrategy {
    fn alice(&self, input: PairInput, _rng: &mut StdRng) -> [GameColor; 2] {
        // Alice prefers colors {0, 1}.
        if input.i.is_multiple_of(2) {
            [0, 1]
        } else {
            [1, 0]
        }
    }
    fn bob(&self, input: PairInput, _rng: &mut StdRng) -> [GameColor; 2] {
        // Bob prefers colors {2, and the one Alice is least likely to
        // put here}.
        if input.j.is_multiple_of(2) {
            [2, 0]
        } else {
            [2, 1]
        }
    }
    fn name(&self) -> &'static str {
        "complement"
    }
}

/// The built-in strategy suite used by experiments and tests.
pub fn strategy_suite() -> Vec<Box<dyn ZecStrategy>> {
    vec![
        Box::new(LabelingStrategy::symmetric()),
        Box::new(LabelingStrategy::shifted()),
        Box::new(LexStrategy),
        Box::new(ComplementStrategy),
        Box::new(RandomStrategy),
    ]
}

// ---------------------------------------------------------------------------
// Label analysis (the combinatorial core of Lemma 6.2)
// ---------------------------------------------------------------------------

/// The labels `L_A(v_i)`, `L_B(v_i)` of Lemma 6.2 for a deterministic
/// strategy: color `c ∈ L_A(v_i)` iff some input makes Alice color her
/// edge at `v_i` with `c`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Labels {
    /// `L_A(v_i)` for each middle vertex, sorted.
    pub alice: Vec<Vec<GameColor>>,
    /// `L_B(v_i)` for each middle vertex, sorted.
    pub bob: Vec<Vec<GameColor>>,
}

/// Computes the Lemma 6.2 labels of a deterministic strategy.
pub fn compute_labels(strategy: &dyn ZecStrategy) -> Labels {
    assert!(
        strategy.is_deterministic(),
        "labels are defined per deterministic run"
    );
    let mut rng = StdRng::seed_from_u64(0);
    let mut alice = vec![Vec::new(); MIDDLE];
    let mut bob = vec![Vec::new(); MIDDLE];
    for input in PairInput::all() {
        let ac = strategy.alice(input, &mut rng);
        let bc = strategy.bob(input, &mut rng);
        alice[input.i as usize].push(ac[0]);
        alice[input.j as usize].push(ac[1]);
        bob[input.i as usize].push(bc[0]);
        bob[input.j as usize].push(bc[1]);
    }
    for l in alice.iter_mut().chain(bob.iter_mut()) {
        l.sort_unstable();
        l.dedup();
    }
    Labels { alice, bob }
}

/// A witness of *why* the strategy must lose somewhere, mirroring the
/// case analysis of Lemma 6.2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LossWitness {
    /// Two vertices with identical singleton labels for one player:
    /// giving that player both as input forces a hub conflict.
    SingletonCollision {
        /// Which player's labels collide (true = Alice).
        alice_side: bool,
        /// The two middle vertices.
        vertices: (u8, u8),
        /// The shared forced color.
        color: GameColor,
    },
    /// A middle vertex where both labels have size ≥ 2 and share a
    /// color: a joint input exists where both play that color there.
    SharedColor {
        /// The middle vertex.
        vertex: u8,
        /// A color in `L_A(v) ∩ L_B(v)`.
        color: GameColor,
    },
}

/// Finds a loss witness for a deterministic strategy, following
/// Lemma 6.2's dichotomy. By the lemma, one always exists.
pub fn find_loss_witness(labels: &Labels) -> Option<LossWitness> {
    // Case 1: ≥ 4 singleton labels on one side → a repeated singleton.
    for (alice_side, side) in [(true, &labels.alice), (false, &labels.bob)] {
        let singles: Vec<(usize, GameColor)> = side
            .iter()
            .enumerate()
            .filter(|(_, l)| l.len() == 1)
            .map(|(v, l)| (v, l[0]))
            .collect();
        if singles.len() >= 4 {
            for (a_idx, &(va, ca)) in singles.iter().enumerate() {
                for &(vb, cb) in &singles[a_idx + 1..] {
                    if ca == cb {
                        return Some(LossWitness::SingletonCollision {
                            alice_side,
                            vertices: (va as u8, vb as u8),
                            color: ca,
                        });
                    }
                }
            }
        }
    }
    // Case 2: some vertex has both labels of size ≥ 2 — they share a
    // color by pigeonhole over 3 colors.
    for v in 0..MIDDLE {
        if labels.alice[v].len() >= 2 && labels.bob[v].len() >= 2 {
            for &c in &labels.alice[v] {
                if labels.bob[v].contains(&c) {
                    return Some(LossWitness::SharedColor {
                        vertex: v as u8,
                        color: c,
                    });
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_enumerate_21() {
        let all = PairInput::all();
        assert_eq!(all.len(), INPUTS);
        assert!(all.windows(2).all(|w| (w[0].i, w[0].j) < (w[1].i, w[1].j)));
    }

    #[test]
    #[should_panic(expected = "bad pair")]
    fn pair_rejects_equal() {
        let _ = PairInput::new(3, 3);
    }

    #[test]
    fn pair_normalizes() {
        assert_eq!(PairInput::new(5, 2), PairInput::new(2, 5));
    }

    #[test]
    fn win_condition_cases() {
        let a = PairInput::new(0, 1);
        let b_disjoint = PairInput::new(2, 3);
        // Hub conflicts lose.
        assert!(!is_win(a, [1, 1], b_disjoint, [0, 1]));
        assert!(!is_win(a, [0, 1], b_disjoint, [2, 2]));
        // Disjoint middles always win with hub-proper colors.
        assert!(is_win(a, [0, 1], b_disjoint, [0, 1]));
        // Shared middle with equal color loses...
        let b_shares_0 = PairInput::new(0, 5);
        assert!(!is_win(a, [0, 1], b_shares_0, [0, 2]));
        // ... but different colors there win.
        assert!(is_win(a, [0, 1], b_shares_0, [2, 0]));
    }

    #[test]
    fn every_deterministic_strategy_obeys_lemma_6_2() {
        for s in strategy_suite() {
            if !s.is_deterministic() {
                continue;
            }
            let p = exact_win_probability(s.as_ref());
            assert!(
                p <= ZEC_WIN_BOUND + 1e-12,
                "{} wins with {p} > bound {ZEC_WIN_BOUND}",
                s.name()
            );
            assert!(p > 0.0, "{} should at least sometimes win", s.name());
        }
    }

    #[test]
    fn randomized_strategy_also_bounded() {
        let p = estimate_win_probability(&RandomStrategy, 40_000, 7);
        // Monte-Carlo noise is ~0.005 at this sample size.
        assert!(p <= ZEC_WIN_BOUND + 0.01, "estimated {p}");
        assert!(p > 0.3, "random play still wins often: {p}");
    }

    #[test]
    fn exact_and_estimated_agree_for_deterministic() {
        let s = LabelingStrategy::shifted();
        let exact = exact_win_probability(&s);
        let est = estimate_win_probability(&s, 60_000, 3);
        assert!(
            (exact - est).abs() < 0.02,
            "exact {exact} vs estimate {est}"
        );
    }

    #[test]
    fn labels_and_witness_exist_for_all_deterministic() {
        for s in strategy_suite() {
            if !s.is_deterministic() {
                continue;
            }
            let labels = compute_labels(s.as_ref());
            // Every middle vertex is touched by some input.
            for v in 0..MIDDLE {
                assert!(!labels.alice[v].is_empty());
                assert!(!labels.bob[v].is_empty());
            }
            let witness = find_loss_witness(&labels);
            assert!(
                witness.is_some(),
                "Lemma 6.2 dichotomy must produce a witness for {}",
                s.name()
            );
        }
    }

    #[test]
    fn witness_predicts_a_real_loss() {
        // For the symmetric labeling, materialize the witness into an
        // actual losing joint input.
        let s = LabelingStrategy::symmetric();
        let labels = compute_labels(&s);
        let mut rng = StdRng::seed_from_u64(0);
        match find_loss_witness(&labels).expect("exists") {
            LossWitness::SharedColor { vertex, color } => {
                // Find Alice and Bob inputs that both put `color` at
                // `vertex`.
                let all = PairInput::all();
                let a_in = all
                    .iter()
                    .copied()
                    .find(|inp| {
                        let c = s.alice(*inp, &mut rng);
                        (inp.i == vertex && c[0] == color) || (inp.j == vertex && c[1] == color)
                    })
                    .expect("label membership implies such an input");
                let b_in = all
                    .iter()
                    .copied()
                    .find(|inp| {
                        let c = s.bob(*inp, &mut rng);
                        (inp.i == vertex && c[0] == color) || (inp.j == vertex && c[1] == color)
                    })
                    .expect("label membership implies such an input");
                let ac = s.alice(a_in, &mut rng);
                let bc = s.bob(b_in, &mut rng);
                assert!(!is_win(a_in, ac, b_in, bc), "witness input must lose");
            }
            LossWitness::SingletonCollision {
                alice_side,
                vertices,
                ..
            } => {
                // Give that player both vertices: hub conflict after
                // tie-breaking may still dodge, but the *pair* of
                // forced colors collides at the hub for labels without
                // the bump; our strategies bump, so this arm is not
                // expected for them.
                panic!(
                    "unexpected singleton collision for symmetric labeling: \
                     {alice_side} {vertices:?}"
                );
            }
        }
    }

    #[test]
    fn suite_has_distinct_names() {
        let names: Vec<&str> = strategy_suite().iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len());
    }
}
