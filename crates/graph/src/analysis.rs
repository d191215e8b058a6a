//! Structural graph analysis helpers: connectivity, bipartiteness,
//! and degree statistics.
//!
//! The generators' own tests (`gen.rs`) use them to check the graphs
//! they build; none of the protocols depend on them.

use crate::graph::Graph;
use std::collections::VecDeque;

/// Connected components: returns `(component_id per vertex, count)`.
/// Isolated vertices form their own components.
pub fn connected_components(g: &Graph) -> (Vec<usize>, usize) {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut count = 0;
    for s in g.vertices() {
        if comp[s.index()] != usize::MAX {
            continue;
        }
        let id = count;
        count += 1;
        let mut queue = VecDeque::from([s]);
        comp[s.index()] = id;
        while let Some(v) = queue.pop_front() {
            for &u in g.neighbors(v) {
                if comp[u.index()] == usize::MAX {
                    comp[u.index()] = id;
                    queue.push_back(u);
                }
            }
        }
    }
    (comp, count)
}

/// Whether `g` is connected (the empty graph and a single vertex count
/// as connected).
pub fn is_connected(g: &Graph) -> bool {
    g.num_vertices() <= 1 || connected_components(g).1 == 1
}

/// Checks bipartiteness; returns a two-coloring (`false`/`true` side
/// per vertex) or `None` if an odd cycle exists.
pub fn bipartition(g: &Graph) -> Option<Vec<bool>> {
    let n = g.num_vertices();
    let mut side: Vec<Option<bool>> = vec![None; n];
    for s in g.vertices() {
        if side[s.index()].is_some() {
            continue;
        }
        side[s.index()] = Some(false);
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            let sv = side[v.index()].expect("enqueued with a side");
            for &u in g.neighbors(v) {
                match side[u.index()] {
                    None => {
                        side[u.index()] = Some(!sv);
                        queue.push_back(u);
                    }
                    Some(su) if su == sv => return None,
                    Some(_) => {}
                }
            }
        }
    }
    Some(side.into_iter().map(|s| s.expect("all assigned")).collect())
}

/// Summary statistics of a graph's degree sequence.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DegreeStats {
    /// Minimum degree.
    pub min: usize,
    /// Maximum degree (Δ).
    pub max: usize,
    /// Mean degree `2m/n`.
    pub mean: f64,
    /// Number of vertices attaining Δ.
    pub num_max: usize,
}

/// Computes [`DegreeStats`]; all-zero for the empty graph.
pub fn degree_stats(g: &Graph) -> DegreeStats {
    if g.num_vertices() == 0 {
        return DegreeStats::default();
    }
    let degrees: Vec<usize> = g.vertices().map(|v| g.degree(v)).collect();
    let max = degrees.iter().copied().max().unwrap_or(0);
    DegreeStats {
        min: degrees.iter().copied().min().unwrap_or(0),
        max,
        mean: g.total_degree() as f64 / g.num_vertices() as f64,
        num_max: degrees.iter().filter(|&&d| d == max).count(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn components_count() {
        let g = gen::disjoint_copies(&gen::cycle(4), 3);
        let (comp, count) = connected_components(&g);
        assert_eq!(count, 3);
        assert_eq!(comp[0], comp[3]);
        assert_ne!(comp[0], comp[4]);
        assert!(!is_connected(&g));
        assert!(is_connected(&gen::cycle(5)));
        assert!(is_connected(&gen::empty(1)));
        assert!(is_connected(&gen::empty(0)));
    }

    #[test]
    fn bipartite_detection() {
        assert!(bipartition(&gen::cycle(6)).is_some());
        assert!(bipartition(&gen::cycle(7)).is_none());
        assert!(bipartition(&gen::complete_bipartite(3, 4)).is_some());
        assert!(bipartition(&gen::complete(3)).is_none());
        let sides = bipartition(&gen::path(4)).expect("paths are bipartite");
        assert_eq!(sides, vec![false, true, false, true]);
    }

    #[test]
    fn stats_and_histogram() {
        let g = gen::star(5);
        let s = degree_stats(&g);
        assert_eq!(s.max, 4);
        assert_eq!(s.min, 1);
        assert_eq!(s.num_max, 1);
        assert!((s.mean - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(degree_stats(&gen::empty(0)), DegreeStats::default());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::gen;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn components_partition_vertices(n in 1usize..40, seed in 0u64..500) {
            let g = gen::gnp(n, 0.08, seed);
            let (comp, count) = connected_components(&g);
            prop_assert!(count >= 1);
            prop_assert!(comp.iter().all(|&c| c < count));
            // Every edge stays within one component.
            for e in g.edges() {
                prop_assert_eq!(comp[e.u().index()], comp[e.v().index()]);
            }
        }

        #[test]
        fn bipartition_is_proper_when_it_exists(n in 2usize..30, seed in 0u64..500) {
            let g = gen::gnp(n, 0.1, seed);
            if let Some(sides) = bipartition(&g) {
                for e in g.edges() {
                    prop_assert_ne!(sides[e.u().index()], sides[e.v().index()]);
                }
            } else {
                // Non-bipartite graphs contain an odd closed walk; at
                // minimum they have an edge.
                prop_assert!(g.num_edges() >= 3);
            }
        }

        #[test]
        fn degree_stats_consistent(n in 1usize..40, seed in 0u64..500) {
            let g = gen::gnp(n, 0.2, seed);
            let s = degree_stats(&g);
            prop_assert_eq!(s.max, g.max_degree());
            prop_assert!(s.min <= s.max);
        }
    }
}
