//! Arithmetic routing on the Imase–Itoh graph `II(d, n)`.
//!
//! Every walk of length `m` from `u` in `II(d, n)` ends at
//!
//! ```text
//! v ≡ (−d)^m · u − Σ_{i=1}^{m} (−d)^{m−i} · α_i   (mod n),   α_i ∈ {1, …, d}
//! ```
//!
//! so routing from `u` to `v` amounts to finding the smallest `m` for which
//! the required constant `c ≡ (−d)^m·u − v (mod n)` is representable as such
//! a digit sum.  Representability is decided exactly by base-`(−d)`
//! digit extraction with digit set `{1, …, d}`: the achievable sums for a
//! given `m` are `d^m` consecutive-free but structured integers, and only
//! `O(d^m / n)` residue representatives need to be tested, each in `O(m)`
//! time.  The smallest such `m` equals the graph distance, so this router
//! is provably shortest-path, as the Kautz overlap router of
//! [`crate::kautz`] is.

/// The distance from `u` to `v` in `II(d, n)` together with the digit string
/// `(α_1, …, α_m)` of one shortest walk, or `None` when no walk from `u`
/// reaches `v`.  Returns `Some((0, []))` when `u == v`.
pub fn imase_itoh_route_digits(
    d: usize,
    n: usize,
    u: usize,
    v: usize,
) -> Option<(usize, Vec<usize>)> {
    assert!(d >= 1 && n >= 1, "parameters must satisfy d >= 1, n >= 1");
    assert!(u < n && v < n, "node out of range");
    if u == v {
        return Some((0, Vec::new()));
    }
    let n_i = n as i128;
    let d_i = d as i128;
    // Upper bound on the number of hops ever needed: ceil(log_d n) + 2 is a
    // safe cap (for d >= 2 the graph is strongly connected with diameter at
    // most ceil(log_d n)).  For d = 1, II(1, n) is the involution
    // u -> -u - 1 (mod n), 2-cycles and fixed points: every walk alternates
    // between u and -u - 1, so one hop reaches all that is reachable.
    let max_m = if d >= 2 {
        let mut m = 0usize;
        let mut p = 1usize;
        while p < n {
            p = p.saturating_mul(d);
            m += 1;
        }
        m + 2
    } else {
        1
    };

    for m in 1..=max_m {
        // c ≡ (−d)^m·u − v (mod n)
        let mut pow: i128 = 1;
        for _ in 0..m {
            pow = -pow * d_i;
        }
        let c = (pow * (u as i128) - (v as i128)).rem_euclid(n_i);

        // Range of achievable sums T = Σ (−d)^{m−i} α_i.
        // Compute min and max by choosing α per sign of the coefficient.
        let mut t_min: i128 = 0;
        let mut t_max: i128 = 0;
        let mut coeff: i128 = 1; // (−d)^0 for i = m, …, (−d)^{m−1} for i = 1
        for _ in 0..m {
            if coeff > 0 {
                t_min += coeff; // α = 1
                t_max += coeff * d_i; // α = d
            } else {
                t_min += coeff * d_i;
                t_max += coeff;
            }
            coeff = -coeff * d_i;
        }

        // Try every T ≡ c (mod n) in [t_min, t_max].
        let mut t = t_min + (c - t_min).rem_euclid(n_i);
        while t <= t_max {
            if let Some(digits) = represent_base_neg_d(t, d_i, m) {
                return Some((m, digits));
            }
            t += n_i;
        }
    }
    None
}

/// Attempts to write `t = Σ_{i=1}^{m} (−d)^{m−i} α_i` with `α_i ∈ {1,…,d}`;
/// returns the digits `(α_1, …, α_m)` on success.
fn represent_base_neg_d(mut t: i128, d: i128, m: usize) -> Option<Vec<usize>> {
    let mut digits_rev = Vec::with_capacity(m);
    for _ in 0..m {
        // t = α + (−d)·t'  with α ∈ {1,…,d}  ⇒  α ≡ t (mod d), α ∈ {1,…,d}.
        let mut alpha = t.rem_euclid(d);
        if alpha == 0 {
            alpha = d;
        }
        digits_rev.push(alpha as usize);
        t = (alpha - t) / d;
    }
    if t == 0 {
        digits_rev.reverse();
        Some(digits_rev)
    } else {
        None
    }
}

/// The shortest route from `u` to `v` as the sequence of nodes visited, or
/// `None` when `v` is unreachable from `u`.
pub fn imase_itoh_route(d: usize, n: usize, u: usize, v: usize) -> Option<Vec<usize>> {
    let (_, digits) = imase_itoh_route_digits(d, n, u, v)?;
    let mut path = vec![u];
    let mut current = u as i128;
    let n_i = n as i128;
    for &alpha in &digits {
        current = (-(d as i128) * current - alpha as i128).rem_euclid(n_i);
        path.push(current as usize);
    }
    debug_assert_eq!(*path.last().unwrap(), v);
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::algorithms::{bfs_distances, is_valid_path};
    use otis_topologies::imase_itoh;

    /// The hop count of the arithmetic route, `None` when unreachable.
    fn distance(d: usize, n: usize, u: usize, v: usize) -> Option<usize> {
        imase_itoh_route_digits(d, n, u, v).map(|(m, _)| m)
    }

    #[test]
    fn routes_match_bfs_distances_exactly() {
        for (d, n) in [(2, 5), (2, 12), (3, 12), (3, 17), (4, 20), (2, 31)] {
            let g = imase_itoh(d, n);
            for u in 0..n {
                let dist = bfs_distances(&g, u);
                for (v, &bfs) in dist.iter().enumerate() {
                    let (m, _) = imase_itoh_route_digits(d, n, u, v).unwrap();
                    assert_eq!(m as u32, bfs, "II({d},{n}) distance {u}->{v}");
                }
            }
        }
    }

    #[test]
    fn routes_are_valid_paths() {
        for (d, n) in [(2, 7), (3, 12), (4, 15)] {
            let g = imase_itoh(d, n);
            for u in 0..n {
                for v in 0..n {
                    let path = imase_itoh_route(d, n, u, v).unwrap();
                    assert!(
                        is_valid_path(&g, &path),
                        "II({d},{n}) route {u}->{v}: {path:?}"
                    );
                    assert_eq!(path[0], u);
                    assert_eq!(*path.last().unwrap(), v);
                }
            }
        }
    }

    #[test]
    fn self_route_is_empty() {
        assert_eq!(imase_itoh_route(3, 12, 5, 5), Some(vec![5]));
        assert_eq!(distance(3, 12, 5, 5), Some(0));
    }

    #[test]
    fn directed_cycle_case_d_equals_1() {
        // II(1, n) is not a cycle but the involution u -> -u - 1 (mod n):
        // 2-cycles and fixed points.  Routes exist exactly where BFS reaches.
        for n in [1, 2, 3, 6, 7] {
            let g = imase_itoh(1, n);
            for u in 0..n {
                let dist = bfs_distances(&g, u);
                for (v, &bfs) in dist.iter().enumerate() {
                    let expected = (bfs != u32::MAX).then_some(bfs as usize);
                    assert_eq!(distance(1, n, u, v), expected, "II(1,{n}) {u}->{v}");
                    assert_eq!(imase_itoh_route(1, n, u, v).is_some(), expected.is_some());
                }
            }
        }
        assert_eq!(imase_itoh_route(1, 7, 1, 0), None);
    }

    #[test]
    fn kautz_sized_instance_has_diameter_k() {
        // II(3, 12) = KG(3, 2): the arithmetic router never needs more than 2 hops.
        let (d, n) = (3, 12);
        let mut max = 0;
        for u in 0..n {
            for v in 0..n {
                max = max.max(distance(d, n, u, v).unwrap());
            }
        }
        assert_eq!(max, 2);
    }

    #[test]
    fn digit_strings_use_valid_alphas() {
        for (d, n) in [(3, 14), (2, 9)] {
            for u in 0..n {
                for v in 0..n {
                    let (_, digits) = imase_itoh_route_digits(d, n, u, v).unwrap();
                    assert!(digits.iter().all(|&a| (1..=d).contains(&a)));
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        imase_itoh_route(2, 5, 0, 7);
    }
}
