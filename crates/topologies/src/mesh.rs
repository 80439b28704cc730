//! Multi-dimensional meshes and tori.
//!
//! The 4-D mesh is one of the electronic interconnection networks that
//! Zane et al. (ref \[24\]) realize with the OTIS architecture; the
//! reproduction provides general `k`-dimensional meshes and tori so that the
//! comparison tables can include them.
//!
//! Nodes are points of the box `dims[0] × dims[1] × … × dims[r-1]` in
//! row-major order; mesh arcs join points differing by ±1 in exactly one
//! coordinate (without wraparound), torus arcs add the wraparound.

use otis_graphs::{Digraph, DigraphBuilder};

/// Number of nodes of a mesh/torus with the given per-dimension extents.
pub fn mesh_node_count(dims: &[usize]) -> usize {
    dims.iter().product()
}

/// Converts mixed-radix coordinates to the row-major node identifier.
pub fn coords_to_index(dims: &[usize], coords: &[usize]) -> usize {
    assert_eq!(dims.len(), coords.len(), "dimension mismatch");
    let mut idx = 0usize;
    for (extent, &c) in dims.iter().zip(coords) {
        assert!(
            c < *extent,
            "coordinate {c} out of range for extent {extent}"
        );
        idx = idx * extent + c;
    }
    idx
}

/// Converts a row-major node identifier back to coordinates.
pub fn index_to_coords(dims: &[usize], index: usize) -> Vec<usize> {
    let mut rest = index;
    let mut coords = vec![0usize; dims.len()];
    for i in (0..dims.len()).rev() {
        coords[i] = rest % dims[i];
        rest /= dims[i];
    }
    assert_eq!(rest, 0, "index out of range");
    coords
}

fn grid(dims: &[usize], wraparound: bool) -> Digraph {
    assert!(!dims.is_empty(), "at least one dimension required");
    assert!(dims.iter().all(|&e| e >= 1), "every extent must be >= 1");
    let n = mesh_node_count(dims);
    let mut b = DigraphBuilder::new(n);
    for idx in 0..n {
        let coords = index_to_coords(dims, idx);
        for (dim, &extent) in dims.iter().enumerate() {
            if extent == 1 {
                continue;
            }
            let c = coords[dim];
            // +1 direction
            if c + 1 < extent {
                let mut t = coords.clone();
                t[dim] = c + 1;
                b.add_arc(idx, coords_to_index(dims, &t));
            } else if wraparound && extent > 2 {
                let mut t = coords.clone();
                t[dim] = 0;
                b.add_arc(idx, coords_to_index(dims, &t));
            }
            // -1 direction
            if c > 0 {
                let mut t = coords.clone();
                t[dim] = c - 1;
                b.add_arc(idx, coords_to_index(dims, &t));
            } else if wraparound && extent > 2 {
                let mut t = coords.clone();
                t[dim] = extent - 1;
                b.add_arc(idx, coords_to_index(dims, &t));
            }
        }
    }
    b.build()
}

/// Builds a `dims.len()`-dimensional mesh (no wraparound), as a symmetric
/// digraph.
pub fn mesh(dims: &[usize]) -> Digraph {
    grid(dims, false)
}

/// Builds a torus (mesh with wraparound); dimensions of extent ≤ 2 do not get
/// wraparound arcs to avoid parallel arcs.
pub fn torus(dims: &[usize]) -> Digraph {
    grid(dims, true)
}

/// The 4-D mesh with side `s` used by ref \[24\]: `s × s × s × s` nodes.
pub fn mesh_4d(side: usize) -> Digraph {
    mesh(&[side, side, side, side])
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{diameter, is_strongly_connected};

    #[test]
    fn coordinates_roundtrip() {
        let dims = [3, 4, 5];
        for idx in 0..mesh_node_count(&dims) {
            let c = index_to_coords(&dims, idx);
            assert_eq!(coords_to_index(&dims, &c), idx);
        }
    }

    #[test]
    fn line_mesh() {
        let g = mesh(&[5]);
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.arc_count(), 8);
        assert_eq!(diameter(&g), Some(4));
    }

    #[test]
    fn square_mesh_diameter() {
        let g = mesh(&[4, 4]);
        assert_eq!(g.node_count(), 16);
        assert!(is_strongly_connected(&g));
        assert_eq!(diameter(&g), Some(6));
    }

    #[test]
    fn torus_diameter_is_halved() {
        let g = torus(&[6]);
        assert_eq!(diameter(&g), Some(3));
        let g2 = torus(&[4, 4]);
        assert_eq!(diameter(&g2), Some(4));
    }

    #[test]
    fn mesh_4d_counts() {
        let g = mesh_4d(3);
        assert_eq!(g.node_count(), 81);
        assert!(is_strongly_connected(&g));
        assert_eq!(diameter(&g), Some(8));
    }

    #[test]
    fn symmetric_arcs() {
        let g = mesh(&[3, 3]);
        for a in g.arcs() {
            assert!(g.has_arc(a.target, a.source));
        }
    }

    #[test]
    fn extent_one_dimensions_are_ignored() {
        let g = mesh(&[1, 4, 1]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(diameter(&g), Some(3));
    }

    #[test]
    fn extent_two_torus_has_no_parallel_arcs() {
        let g = torus(&[2, 3]);
        for u in 0..g.node_count() {
            for v in 0..g.node_count() {
                assert!(g.arc_multiplicity(u, v) <= 1);
            }
        }
    }
}
