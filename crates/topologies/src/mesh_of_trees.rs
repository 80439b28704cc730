//! Mesh-of-trees networks.
//!
//! Another family realized with OTIS by Zane et al. (ref \[24\]).  The
//! `n × n` mesh-of-trees consists of an `n × n` grid of leaf processors, a
//! complete binary tree over every row and a complete binary tree over every
//! column (internal tree nodes are distinct between rows and columns); `n`
//! must be a power of two.
//!
//! Node numbering: the `n²` leaves come first in row-major order, then the
//! `n·(n−1)` row-tree internal nodes (row by row, heap order), then the
//! `n·(n−1)` column-tree internal nodes.  All tree edges are modelled as two
//! opposite arcs.

use otis_graphs::{Digraph, DigraphBuilder};

/// Total number of nodes of the `n × n` mesh-of-trees:
/// `n² + 2·n·(n−1)` (leaves plus row-tree and column-tree internal nodes).
pub fn mesh_of_trees_node_count(n: usize) -> usize {
    n * n + 2 * n * (n - 1)
}

/// Builds the `n × n` mesh-of-trees; `n` must be a power of two and ≥ 2.
pub fn mesh_of_trees(n: usize) -> Digraph {
    assert!(
        n >= 2 && n.is_power_of_two(),
        "mesh-of-trees requires n a power of two, n >= 2"
    );
    let leaves = n * n;
    let internal_per_tree = n - 1;
    let row_base = leaves;
    let col_base = leaves + n * internal_per_tree;
    let total = mesh_of_trees_node_count(n);
    let mut b = DigraphBuilder::new(total);

    // Internal nodes of a tree are heap-indexed 1..n-1 relative to the tree
    // base; node j's children are 2j and 2j+1 (children >= n/?); the leaves of
    // the tree are the n grid cells of that row/column.
    // We use the standard complete-binary-tree-over-n-leaves indexing where
    // internal node j (1-based, 1..n-1) has children 2j and 2j+1 among
    // internal nodes when 2j <= n-1, otherwise the children are leaves
    // 2j - n and 2j + 1 - n (0-based leaf positions).
    let connect_tree =
        |tree_base: usize, leaf_of: &dyn Fn(usize) -> usize, b: &mut DigraphBuilder| {
            for j in 1..n {
                let parent = tree_base + (j - 1);
                for child in [2 * j, 2 * j + 1] {
                    let child_node = if child < n {
                        tree_base + (child - 1)
                    } else {
                        leaf_of(child - n)
                    };
                    b.add_arc(parent, child_node);
                    b.add_arc(child_node, parent);
                }
            }
        };

    for row in 0..n {
        let tree_base = row_base + row * internal_per_tree;
        let leaf_of = move |pos: usize| row * n + pos;
        connect_tree(tree_base, &leaf_of, &mut b);
    }
    for col in 0..n {
        let tree_base = col_base + col * internal_per_tree;
        let leaf_of = move |pos: usize| pos * n + col;
        connect_tree(tree_base, &leaf_of, &mut b);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{diameter, is_strongly_connected};

    #[test]
    fn node_counts() {
        assert_eq!(mesh_of_trees_node_count(2), 8);
        assert_eq!(mesh_of_trees_node_count(4), 40);
        assert_eq!(mesh_of_trees_node_count(8), 176);
        for n in [2usize, 4, 8] {
            assert_eq!(mesh_of_trees(n).node_count(), mesh_of_trees_node_count(n));
        }
    }

    #[test]
    fn arc_counts() {
        // Each of the 2n trees over n leaves has 2(n-1) edges => 4 arcs each... precisely
        // 2n trees * (2(n-1)) edges * 2 arcs per edge.
        for n in [2usize, 4, 8] {
            let g = mesh_of_trees(n);
            assert_eq!(g.arc_count(), 2 * n * 2 * (n - 1) * 2);
        }
    }

    #[test]
    fn connected_and_symmetric() {
        let g = mesh_of_trees(4);
        assert!(is_strongly_connected(&g));
        for a in g.arcs() {
            assert!(g.has_arc(a.target, a.source));
        }
    }

    #[test]
    fn leaves_have_degree_two_roots_and_internals_higher() {
        let n = 4;
        let g = mesh_of_trees(n);
        // Every leaf belongs to one row tree and one column tree: degree 2.
        for leaf in 0..n * n {
            assert_eq!(g.out_degree(leaf), 2, "leaf {leaf}");
        }
        // Tree roots have degree 2, other internal nodes degree 3.
        let row_base = n * n;
        for t in 0..2 * n {
            let base = row_base + t * (n - 1);
            assert_eq!(g.out_degree(base), 2, "root of tree {t}");
            for j in 1..n - 1 {
                assert_eq!(g.out_degree(base + j), 3, "internal node {j} of tree {t}");
            }
        }
    }

    #[test]
    fn diameter_is_logarithmic() {
        // Leaf -> row root -> leaf -> column root -> leaf: 4·log2(n).
        let g = mesh_of_trees(4);
        assert_eq!(diameter(&g), Some(8));
        let g2 = mesh_of_trees(2);
        assert_eq!(diameter(&g2), Some(4));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two() {
        mesh_of_trees(6);
    }
}
