//! The directed Moore bound and Kautz optimality.
//!
//! A digraph with maximum out-degree `d` and diameter `k` has at most
//! `1 + d + d² + … + d^k` nodes (the directed Moore bound).  Kautz graphs
//! achieve `d^k + d^(k-1)` nodes, which is the largest known value for
//! `d > 2` and within a factor `(1 + 1/d)` of… the bound's leading term; the
//! paper's §2.5 appeals to this to justify the Kautz graph as the multi-hop
//! quotient of choice.  [`moore_bound`] computes the bound so the property
//! tables (experiment T1) can report "fraction of Moore bound achieved"
//! against [`crate::kautz::kautz_node_count`].

/// The directed Moore bound: maximum possible number of nodes of a digraph
/// with out-degree at most `d` and diameter at most `k`,
/// `1 + d + d² + … + d^k`.  Saturates at `usize::MAX` on overflow.
pub fn moore_bound(d: usize, k: usize) -> usize {
    let mut total: usize = 1;
    let mut power: usize = 1;
    for _ in 0..k {
        power = power.saturating_mul(d);
        total = total.saturating_add(power);
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kautz::kautz_node_count;

    #[test]
    fn moore_bound_values() {
        assert_eq!(moore_bound(2, 1), 3);
        assert_eq!(moore_bound(2, 2), 7);
        assert_eq!(moore_bound(2, 3), 15);
        assert_eq!(moore_bound(3, 2), 13);
        assert_eq!(moore_bound(5, 4), 781);
        assert_eq!(moore_bound(1, 4), 5);
    }

    #[test]
    fn kautz_never_exceeds_moore() {
        for d in 1..6 {
            for k in 1..6 {
                assert!(kautz_node_count(d, k) <= moore_bound(d, k), "d={d} k={k}");
            }
        }
    }

    #[test]
    fn kautz_diameter_one_achieves_moore_minus_nothing() {
        // KG(d, 1) = K_{d+1} has d+1 nodes; the Moore bound for k=1 is d+1.
        for d in 1..8 {
            assert_eq!(kautz_node_count(d, 1), d + 1);
            assert_eq!(moore_bound(d, 1), d + 1);
        }
    }

    #[test]
    fn ratio_tends_to_reasonable_fraction() {
        // For large d the ratio approaches (d^k + d^{k-1}) / (d^k(1+1/(d-1))) ~ 1 - O(1/d).
        let ratio = |d, k| kautz_node_count(d, k) as f64 / moore_bound(d, k) as f64;
        let r = ratio(10, 3);
        assert!(r > 0.85 && r <= 1.0);
        let r2 = ratio(2, 5);
        assert!(r2 > 0.7 && r2 < 1.0);
    }

    #[test]
    fn saturation_does_not_panic() {
        let huge = moore_bound(usize::MAX / 2, 3);
        assert_eq!(huge, usize::MAX);
    }
}
