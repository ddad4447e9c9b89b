//! Property tests cross-checking the two component implementations.

// Test code may panic freely; helpers outside `#[test]` fns miss
// clippy.toml's in-tests exemption, so allow at file scope.
#![allow(clippy::expect_used, clippy::unwrap_used, clippy::panic)]

use dcc_graph::{connected_components, Bipartite, Graph, UnionFind};
use proptest::prelude::*;

proptest! {
    /// DFS components and union-find components agree on random graphs.
    #[test]
    fn dfs_equals_union_find(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..80),
    ) {
        let mut g = Graph::new(n);
        let mut uf = UnionFind::new(n);
        for (u, v) in edges {
            let (u, v) = (u % n, v % n);
            g.add_edge(u, v).unwrap();
            uf.union(u, v);
        }
        let dfs = connected_components(&g);
        let ufc = uf.components();
        prop_assert_eq!(dfs, ufc);
    }

    /// Component vertex sets partition the vertex set.
    #[test]
    fn components_partition_vertices(
        n in 1usize..40,
        edges in proptest::collection::vec((0usize..40, 0usize..40), 0..60),
    ) {
        let mut g = Graph::new(n);
        for (u, v) in edges {
            g.add_edge(u % n, v % n).unwrap();
        }
        let comps = connected_components(&g);
        let mut all: Vec<usize> = comps.into_iter().flatten().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
    }

    /// The path projection and the clique projection of any bipartite
    /// graph have identical connected components.
    #[test]
    fn projections_agree_on_components(
        workers in 1usize..20,
        products in 1usize..10,
        edges in proptest::collection::vec((0usize..20, 0usize..10), 0..60),
    ) {
        let mut b = Bipartite::new(workers, products);
        for (w, p) in edges {
            b.add_edge(w % workers, p % products).unwrap();
        }
        prop_assert_eq!(
            connected_components(&b.project_left()),
            connected_components(&b.project_left_clique())
        );
    }

    /// Adding an edge never increases the number of components.
    #[test]
    fn adding_edges_monotone(
        n in 2usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30), 1..40),
    ) {
        let mut g = Graph::new(n);
        let mut prev = connected_components(&g).len();
        for (u, v) in edges {
            g.add_edge(u % n, v % n).unwrap();
            let cur = connected_components(&g).len();
            prop_assert!(cur <= prev);
            prev = cur;
        }
    }

    // ----------------------------------------------- churn invariances
    //
    // The adversarial generator (`dcc-trace`) splits and merges
    // communities mid-trace, so the co-review edges behind a partition
    // arrive in adversary-controlled orders, with repeated links. These
    // properties pin down that neither affects the resulting partition.

    /// Union order invariance: any permutation of the same edge set
    /// yields the same components.
    #[test]
    fn union_order_is_irrelevant(
        n in 1usize..48,
        edges in proptest::collection::vec((0usize..48, 0usize..48), 0..96),
        rot in 0usize..96,
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let mut forward = UnionFind::new(n);
        for &(u, v) in &edges {
            forward.union(u, v);
        }
        // Reversed order.
        let mut reversed = UnionFind::new(n);
        for &(u, v) in edges.iter().rev() {
            reversed.union(u, v);
        }
        prop_assert_eq!(forward.components(), reversed.components());
        // Rotated order (an arbitrary cyclic permutation).
        if !edges.is_empty() {
            let pivot = rot % edges.len();
            let mut rotated = UnionFind::new(n);
            for &(u, v) in edges[pivot..].iter().chain(&edges[..pivot]) {
                rotated.union(u, v);
            }
            prop_assert_eq!(forward.components(), rotated.components());
        }
    }

    /// Idempotent re-union: replaying any subset of already-applied
    /// edges (the adversary re-asserting existing collusion links)
    /// changes nothing — components, count, and pairwise connectivity.
    #[test]
    fn re_union_is_idempotent(
        n in 1usize..48,
        edges in proptest::collection::vec((0usize..48, 0usize..48), 1..64),
        replay_mask in proptest::collection::vec(any::<bool>(), 1..64),
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(u, v)| (u % n, v % n)).collect();
        let mut uf = UnionFind::new(n);
        for &(u, v) in &edges {
            uf.union(u, v);
        }
        let before = uf.components();
        let count_before = uf.component_count();
        for (i, &(u, v)) in edges.iter().enumerate() {
            if replay_mask.get(i % replay_mask.len()).copied().unwrap_or(false) {
                uf.union(u, v);
                uf.union(v, u); // and with the endpoints swapped
            }
        }
        prop_assert_eq!(uf.components(), before);
        prop_assert_eq!(uf.component_count(), count_before);
    }
}
