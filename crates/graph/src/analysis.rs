//! Structural graph analysis helpers: traversal, connectivity,
//! bipartiteness, and degree statistics.
//!
//! These back the generators' own tests, the experiment harness's
//! workload descriptions, and the examples; none of the protocols
//! depend on them.

use crate::graph::{Graph, VertexId};
use std::collections::VecDeque;

/// Breadth-first search from `start`; returns the distance of every
/// vertex (`None` for unreachable ones).
///
/// # Panics
///
/// Panics if `start` is out of range.
pub fn bfs_distances(g: &Graph, start: VertexId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.num_vertices()];
    dist[start.index()] = Some(0);
    let mut queue = VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        let d = dist[v.index()].expect("enqueued with a distance");
        for &u in g.neighbors(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(d + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

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

/// Histogram of degrees: `hist[d]` = number of vertices of degree `d`.
pub fn degree_histogram(g: &Graph) -> Vec<usize> {
    let mut hist = vec![0usize; g.max_degree() + 1];
    for v in g.vertices() {
        hist[g.degree(v)] += 1;
    }
    hist
}

/// The diameter of a connected graph (longest shortest path), or
/// `None` if disconnected or empty. `O(n·m)` — intended for test-sized
/// graphs.
pub fn diameter(g: &Graph) -> Option<usize> {
    if g.num_vertices() == 0 || !is_connected(g) {
        return None;
    }
    let mut best = 0;
    for v in g.vertices() {
        let far = bfs_distances(g, v)
            .into_iter()
            .map(|d| d.expect("connected"))
            .max()
            .unwrap_or(0);
        best = best.max(far);
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    #[test]
    fn bfs_on_path() {
        let g = gen::path(5);
        let d = bfs_distances(&g, VertexId(0));
        assert_eq!(d, vec![Some(0), Some(1), Some(2), Some(3), Some(4)]);
    }

    #[test]
    fn bfs_unreachable() {
        let g = gen::empty(3);
        let d = bfs_distances(&g, VertexId(1));
        assert_eq!(d, vec![None, Some(0), None]);
    }

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
        let h = degree_histogram(&g);
        assert_eq!(h[1], 4);
        assert_eq!(h[4], 1);
        assert_eq!(degree_stats(&gen::empty(0)), DegreeStats::default());
    }

    #[test]
    fn diameter_cases() {
        assert_eq!(diameter(&gen::path(5)), Some(4));
        assert_eq!(diameter(&gen::cycle(6)), Some(3));
        assert_eq!(diameter(&gen::complete(4)), Some(1));
        assert_eq!(diameter(&gen::disjoint_copies(&gen::path(2), 2)), None);
        assert_eq!(diameter(&gen::empty(0)), None);
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
            let hist = degree_histogram(&g);
            prop_assert_eq!(hist.iter().sum::<usize>(), n);
            prop_assert_eq!(hist[s.max], s.num_max);
        }

        #[test]
        fn bfs_distances_are_metric(n in 2usize..25, seed in 0u64..200) {
            let g = gen::gnp(n, 0.25, seed);
            let d0 = bfs_distances(&g, VertexId(0));
            // Distances along edges differ by at most one.
            for e in g.edges() {
                if let (Some(du), Some(dv)) = (d0[e.u().index()], d0[e.v().index()]) {
                    prop_assert!(du.abs_diff(dv) <= 1);
                }
            }
        }
    }
}
