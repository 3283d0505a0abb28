//! The Batagelj–Zaversnik `O(m + n)` core decomposition ("`CoreDecomp`",
//! Algorithm 1 of the paper).
//!
//! Vertices are bin-sorted by degree; the minimum-degree vertex is peeled
//! repeatedly, its neighbours' degrees decremented with the classic
//! position-swap trick that keeps the bin sort valid without re-sorting.

use kcore_graph::{DynamicGraph, VertexId};

/// Computes the core number of every vertex in `O(m + n)`.
///
/// ```
/// use kcore_graph::fixtures;
/// use kcore_decomp::core_decomposition;
///
/// let g = fixtures::clique(5);
/// assert_eq!(core_decomposition(&g), vec![4, 4, 4, 4, 4]);
/// ```
pub fn core_decomposition(g: &DynamicGraph) -> Vec<u32> {
    let n = g.num_vertices();
    if n == 0 {
        return Vec::new();
    }
    let max_deg = g.max_degree();

    // deg holds current (remaining) degrees; it doubles as the output,
    // because when a vertex is peeled its core number equals the peeling
    // threshold, and the threshold equals its clamped remaining degree.
    let mut deg: Vec<u32> = g.degree_vec();

    // Bin sort: bin[d] = first index in `vert` of the block of degree d.
    let mut bin = vec![0u32; max_deg + 2];
    for &d in &deg {
        bin[d as usize + 1] += 1;
    }
    for d in 1..bin.len() {
        bin[d] += bin[d - 1];
    }
    // vert = vertices sorted by degree; pos = inverse permutation.
    let mut vert = vec![0u32; n];
    let mut pos = vec![0u32; n];
    {
        let mut next = bin.clone();
        for v in 0..n {
            let d = deg[v] as usize;
            vert[next[d] as usize] = v as u32;
            pos[v] = next[d];
            next[d] += 1;
        }
    }
    // bin[d] now = start of degree-d block (bin was exclusive-prefix sums).

    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = vert[i] as usize;
        core[v] = deg[v];
        // Peel v: every neighbour with a larger current degree moves one
        // block to the left.
        for idx in 0..g.degree(v as VertexId) {
            let u = g.neighbors(v as VertexId)[idx] as usize;
            if deg[u] > deg[v] {
                let du = deg[u] as usize;
                let pu = pos[u] as usize;
                let pw = bin[du] as usize; // first slot of u's block
                let w = vert[pw] as usize;
                if u != w {
                    vert.swap(pu, pw);
                    pos[u] = pw as u32;
                    pos[w] = pu as u32;
                }
                bin[du] += 1;
                deg[u] -= 1;
            }
        }
    }
    core
}

/// The degeneracy of the graph: `max_k` of Table I.
pub fn max_core(core: &[u32]) -> u32 {
    core.iter().copied().max().unwrap_or(0)
}

/// Histogram of core numbers: `hist[k]` = number of vertices with core `k`.
pub fn core_histogram(core: &[u32]) -> Vec<usize> {
    let max = max_core(core) as usize;
    let mut hist = vec![0usize; max + 1];
    for &c in core {
        hist[c as usize] += 1;
    }
    hist
}

/// Extracts the vertex set of the `k`-core given the core numbers.
pub fn kcore_vertices(core: &[u32], k: u32) -> Vec<VertexId> {
    core.iter()
        .enumerate()
        .filter(|&(_, &c)| c >= k)
        .map(|(v, _)| v as VertexId)
        .collect()
}

/// Builds the `k`-core subgraph (on the original vertex ids; vertices
/// outside the core become isolated).
pub fn kcore_subgraph(g: &DynamicGraph, core: &[u32], k: u32) -> DynamicGraph {
    let mut sub = DynamicGraph::with_vertices(g.num_vertices());
    for (u, v) in g.edges() {
        if core[u as usize] >= k && core[v as usize] >= k {
            sub.insert_edge_unchecked(u, v);
        }
    }
    sub
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcore_graph::fixtures;

    /// Reference quadratic implementation: peel any vertex below threshold.
    pub(crate) fn naive_core(g: &DynamicGraph) -> Vec<u32> {
        let n = g.num_vertices();
        let mut deg: Vec<i64> = (0..n).map(|v| g.degree(v as u32) as i64).collect();
        let mut removed = vec![false; n];
        let mut core = vec![0u32; n];
        let mut k = 0i64;
        let mut left = n;
        while left > 0 {
            let mut progress = true;
            while progress {
                progress = false;
                for v in 0..n {
                    if !removed[v] && deg[v] < k {
                        removed[v] = true;
                        left -= 1;
                        core[v] = (k - 1).max(0) as u32;
                        for &w in g.neighbors(v as u32) {
                            deg[w as usize] -= 1;
                        }
                        progress = true;
                    }
                }
            }
            k += 1;
        }
        core
    }

    #[test]
    fn cores_of_basic_fixtures() {
        assert_eq!(core_decomposition(&fixtures::triangle()), vec![2, 2, 2]);
        assert_eq!(core_decomposition(&fixtures::path(4)), vec![1; 4]);
        assert_eq!(core_decomposition(&fixtures::cycle(6)), vec![2; 6]);
        assert_eq!(core_decomposition(&fixtures::star(5)), vec![1; 6]);
        assert_eq!(core_decomposition(&fixtures::petersen()), vec![3; 10]);
        assert_eq!(
            core_decomposition(&fixtures::complete_bipartite(2, 4)),
            vec![2; 6]
        );
    }

    #[test]
    fn isolated_vertices_have_core_zero() {
        let mut g = DynamicGraph::with_vertices(3);
        g.insert_edge(0, 1).unwrap();
        assert_eq!(core_decomposition(&g), vec![1, 1, 0]);
    }

    #[test]
    fn empty_graph() {
        assert!(core_decomposition(&DynamicGraph::new()).is_empty());
        assert_eq!(max_core(&[]), 0);
    }

    #[test]
    fn paper_graph_cores_match_example_3_1() {
        let pg = fixtures::PaperGraph::full();
        let core = core_decomposition(&pg.graph);
        assert_eq!(core, pg.expected_cores());
    }

    #[test]
    fn matches_naive_on_bridged_cliques() {
        let g = fixtures::two_cliques_bridge();
        assert_eq!(core_decomposition(&g), naive_core(&g));
        assert_eq!(core_decomposition(&g), vec![3; 8]);
    }

    #[test]
    fn matches_naive_on_random_graphs() {
        // Deterministic xorshift edge soup at several densities.
        for (seed, n, m) in [(1u64, 40usize, 60usize), (2, 60, 200), (3, 80, 600)] {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut g = DynamicGraph::with_vertices(n);
            let mut added = 0;
            while added < m {
                let u = (next() % n as u64) as u32;
                let v = (next() % n as u64) as u32;
                if u != v && !g.has_edge(u, v) {
                    g.insert_edge_unchecked(u, v);
                    added += 1;
                }
            }
            assert_eq!(core_decomposition(&g), naive_core(&g), "seed {seed}");
        }
    }

    #[test]
    fn histogram_and_kcore_extraction() {
        let pg = fixtures::PaperGraph::small();
        let core = core_decomposition(&pg.graph);
        let hist = core_histogram(&core);
        assert_eq!(hist[3], 8); // the two 4-cliques
        assert_eq!(hist[2], 5);
        assert_eq!(hist[1], 21);
        let three = kcore_vertices(&core, 3);
        assert_eq!(three.len(), 8);
        let sub = kcore_subgraph(&pg.graph, &core, 3);
        assert_eq!(sub.num_edges(), 12); // two K4s
        for v in three {
            assert_eq!(sub.degree(v), 3);
        }
    }

    #[test]
    fn max_core_of_clique() {
        let core = core_decomposition(&fixtures::clique(7));
        assert_eq!(max_core(&core), 6);
    }
}
