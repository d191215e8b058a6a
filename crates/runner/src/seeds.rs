//! The trial-seed derivation scheme — **the** one place that defines
//! how a trial's single `u64` seed fans out into the independent
//! random streams a trial consumes.
//!
//! # Why derivation instead of reuse
//!
//! A trial has several independent sources of randomness: the graph
//! generator, the default random edge partitioner, the two-party
//! protocol session (public coin, private coins), and probe-local
//! draws such as the learning probe's secret string. All of them
//! expand a `u64` seed through the *same* RNG construction
//! (`StdRng::seed_from_u64`), so feeding two of them the same raw
//! value makes their "independent" streams bit-identical — e.g. the
//! graph's coin flips would be correlated with the protocol session's
//! public coin, quietly biasing exactly the statistics the experiments
//! report.
//!
//! # The scheme
//!
//! Every sub-stream is derived from the trial seed through a tagged
//! SplitMix64 mix (the [`PublicCoin::subcoin`] construction):
//!
//! ```text
//! trial seed s ──┬── graph_seed(s)     = subcoin(s, GRAPH_TAG)      → GraphSpec::build
//!                ├── partition_seed(s) = subcoin(s, PARTITION_TAG)  → Partitioner::Random
//!                └── protocol_seed(s)  = subcoin(s, PROTOCOL_TAG)   → protocol session
//! ```
//!
//! Probe-local streams add a salt under their own tag via
//! [`salted`], so e.g. the learning probe's secret for `n_bits = b`
//! never collides with another `(seed, b)` combination the way the
//! old `seed ^ b` mix did (`5 ^ 1 == 4 ^ 0`).
//!
//! Both [`crate::Campaign`] and [`crate::Instance::from_spec`] derive
//! through these functions, so cached instance materialization in the
//! executor reproduces exactly what an eager build would.
//!
//! Explicitly constructed instances ([`crate::Instance::new`]) are
//! the escape hatch: they take the protocol-session seed verbatim and
//! perform no derivation.

use bichrome_comm::PublicCoin;

/// Stream tag for the graph-generator seed.
const GRAPH_TAG: u64 = 0x9A27_0002;

/// Stream tag for the default per-seed random edge partitioner.
///
/// (Kept at the value the pre-derivation `mix_partition_seed` used,
/// so the partition stream is stable across the de-aliasing change.)
const PARTITION_TAG: u64 = 0x9A27_0001;

/// Stream tag for the protocol-session seed.
const PROTOCOL_TAG: u64 = 0x9A27_0003;

/// Derives one tagged sub-seed from a trial seed.
///
/// Distinct tags give independent-looking streams; the same
/// `(seed, tag)` always gives the same value. This is the
/// [`PublicCoin::subcoin`] SplitMix64 mix.
pub fn derive(trial_seed: u64, tag: u64) -> u64 {
    PublicCoin::new(trial_seed).subcoin(tag).seed()
}

/// Derives a salted sub-seed: one tagged stream further split by a
/// per-use salt (e.g. a sweep parameter). Unlike a raw
/// `seed ^ salt` mix, distinct `(seed, salt)` pairs do not collide.
pub fn salted(trial_seed: u64, tag: u64, salt: u64) -> u64 {
    PublicCoin::new(trial_seed)
        .subcoin(tag)
        .subcoin(salt)
        .seed()
}

/// The graph-generator seed of a trial.
pub fn graph_seed(trial_seed: u64) -> u64 {
    derive(trial_seed, GRAPH_TAG)
}

/// The seed of a trial's default random edge partitioner.
pub fn partition_seed(trial_seed: u64) -> u64 {
    derive(trial_seed, PARTITION_TAG)
}

/// The protocol-session seed of a trial (public coin, private coins,
/// session plumbing).
pub fn protocol_seed(trial_seed: u64) -> u64 {
    derive(trial_seed, PROTOCOL_TAG)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sub_streams_are_pairwise_distinct() {
        for seed in (0..200).chain([u64::MAX, u64::MAX / 2]) {
            let g = graph_seed(seed);
            let p = partition_seed(seed);
            let s = protocol_seed(seed);
            assert_ne!(g, p, "graph vs partition stream at {seed}");
            assert_ne!(g, s, "graph vs protocol stream at {seed}");
            assert_ne!(p, s, "partition vs protocol stream at {seed}");
            // None of them alias the raw trial seed either.
            assert_ne!(g, seed);
            assert_ne!(p, seed);
            assert_ne!(s, seed);
        }
    }

    #[test]
    fn derivation_is_deterministic() {
        assert_eq!(graph_seed(42), graph_seed(42));
        assert_eq!(protocol_seed(42), protocol_seed(42));
        assert_ne!(graph_seed(42), graph_seed(43));
    }

    #[test]
    fn salted_streams_do_not_collide_like_xor() {
        // The bug this replaces: `seed ^ salt` maps (5,1) and (4,0)
        // to the same stream. The tagged mix must not.
        const TAG: u64 = 0xABCD;
        assert_ne!(salted(5, TAG, 1), salted(4, TAG, 0));
        assert_ne!(salted(1, TAG, 0), salted(0, TAG, 1));
        // And a small grid is collision-free.
        let mut seen = std::collections::HashSet::new();
        for seed in 0..32 {
            for salt in 0..32 {
                assert!(
                    seen.insert(salted(seed, TAG, salt)),
                    "collision at ({seed},{salt})"
                );
            }
        }
    }
}
