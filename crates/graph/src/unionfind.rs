/// A disjoint-set (union-find) structure with path compression and union
/// by rank.
///
/// An independent second implementation of component discovery, used in
/// tests to cross-check the DFS clustering of §IV-A.
///
/// # Example
///
/// ```
/// use dcc_graph::UnionFind;
///
/// let mut uf = UnionFind::new(4);
/// uf.union(0, 1);
/// uf.union(2, 3);
/// assert!(uf.connected(0, 1));
/// assert!(!uf.connected(1, 2));
/// assert_eq!(uf.component_count(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
            components: n,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// `true` iff the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The canonical representative of `x`'s set.
    ///
    /// # Panics
    ///
    /// Panics if `x` is out of range.
    pub fn find(&mut self, x: usize) -> usize {
        assert!(x < self.parent.len(), "element {x} out of range");
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merges the sets containing `x` and `y`; returns `true` if they were
    /// previously disjoint.
    ///
    /// # Panics
    ///
    /// Panics if either element is out of range.
    pub fn union(&mut self, x: usize, y: usize) -> bool {
        let (rx, ry) = (self.find(x), self.find(y));
        if rx == ry {
            return false;
        }
        match self.rank[rx].cmp(&self.rank[ry]) {
            std::cmp::Ordering::Less => self.parent[rx] = ry,
            std::cmp::Ordering::Greater => self.parent[ry] = rx,
            std::cmp::Ordering::Equal => {
                self.parent[ry] = rx;
                self.rank[rx] += 1;
            }
        }
        self.components -= 1;
        true
    }

    /// `true` iff `x` and `y` are in the same set.
    ///
    /// # Panics
    ///
    /// Panics if either element is out of range.
    pub fn connected(&mut self, x: usize, y: usize) -> bool {
        self.find(x) == self.find(y)
    }

    /// Number of disjoint sets.
    pub fn component_count(&self) -> usize {
        self.components
    }

    /// Groups elements by set, each group sorted, groups ordered by their
    /// smallest element — the same deterministic format as
    /// [`crate::connected_components`].
    pub fn components(&mut self) -> Vec<Vec<usize>> {
        let n = self.parent.len();
        let mut by_root: std::collections::BTreeMap<usize, Vec<usize>> =
            std::collections::BTreeMap::new();
        for x in 0..n {
            let r = self.find(x);
            by_root.entry(r).or_default().push(x);
        }
        let mut groups: Vec<Vec<usize>> = by_root.into_values().collect();
        for g in &mut groups {
            g.sort_unstable();
        }
        groups.sort_by_key(|g| g[0]);
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_initially() {
        let mut uf = UnionFind::new(3);
        assert_eq!(uf.component_count(), 3);
        assert!(!uf.connected(0, 1));
        assert!(!uf.is_empty());
        assert_eq!(uf.len(), 3);
    }

    #[test]
    fn union_merges_and_counts() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(!uf.union(1, 0));
        assert!(uf.union(2, 3));
        assert!(uf.union(0, 3));
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(1, 2));
    }

    #[test]
    fn components_deterministic_format() {
        let mut uf = UnionFind::new(5);
        uf.union(4, 2);
        uf.union(1, 3);
        assert_eq!(uf.components(), vec![vec![0], vec![1, 3], vec![2, 4]]);
    }

    #[test]
    fn long_chain_path_compression() {
        let n = 10_000;
        let mut uf = UnionFind::new(n);
        for i in 0..n - 1 {
            uf.union(i, i + 1);
        }
        assert_eq!(uf.component_count(), 1);
        assert!(uf.connected(0, n - 1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn find_out_of_range_panics() {
        UnionFind::new(1).find(1);
    }

    #[test]
    fn empty_structure() {
        let mut uf = UnionFind::new(0);
        assert!(uf.is_empty());
        assert_eq!(uf.component_count(), 0);
        assert!(uf.components().is_empty());
    }
}
