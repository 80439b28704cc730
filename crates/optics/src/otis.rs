//! The Optical Transpose Interconnection System `OTIS(G, T)`.
//!
//! §2.1 of the paper: `OTIS(G, T)` is a free-space optical system, built from
//! two planes of lenses, that provides point-to-point (1-to-1) connections
//! from `G` groups of `T` transmitters onto `T` groups of `G` receivers.
//! The transmitter of position `(i, j)` — group `i`, `0 ≤ i < G`, offset `j`,
//! `0 ≤ j < T` — is imaged onto the receiver of position
//! `(T − 1 − j, G − 1 − i)`.
//!
//! The type exposes the permutation in three equivalent forms (pair → pair,
//! flat index → flat index, and as a full table), its inverse, and the
//! lens-count accounting used by the hardware-cost experiments.

use crate::cost::HardwareInventory;

/// The `OTIS(G, T)` free-space transpose interconnect.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Otis {
    groups: usize,
    group_size: usize,
}

impl Otis {
    /// Creates `OTIS(G, T)` with `G = groups` transmitter groups of size
    /// `T = group_size`.  Both must be at least 1.
    pub fn new(groups: usize, group_size: usize) -> Self {
        assert!(groups >= 1, "OTIS needs G >= 1");
        assert!(group_size >= 1, "OTIS needs T >= 1");
        Otis { groups, group_size }
    }

    /// Number of transmitter groups `G`.
    pub fn groups(&self) -> usize {
        self.groups
    }

    /// Size of each transmitter group `T`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Total number of transmitter (= receiver) positions, `G·T`.
    pub fn port_count(&self) -> usize {
        self.groups * self.group_size
    }

    /// The transpose map on `(group, offset)` pairs:
    /// `(i, j) ↦ (T − 1 − j, G − 1 − i)`.
    ///
    /// The output pair is a *receiver* position: receiver group in `0..T`,
    /// offset within the group in `0..G`.
    pub fn map_pair(&self, i: usize, j: usize) -> (usize, usize) {
        assert!(
            i < self.groups,
            "transmitter group {i} out of range (G = {})",
            self.groups
        );
        assert!(
            j < self.group_size,
            "transmitter offset {j} out of range (T = {})",
            self.group_size
        );
        (self.group_size - 1 - j, self.groups - 1 - i)
    }

    /// The inverse map: given a receiver position `(p, q)` (group `p` in
    /// `0..T`, offset `q` in `0..G`), returns the transmitter `(i, j)` imaged
    /// onto it.
    pub fn inverse_pair(&self, p: usize, q: usize) -> (usize, usize) {
        assert!(
            p < self.group_size,
            "receiver group {p} out of range (T = {})",
            self.group_size
        );
        assert!(
            q < self.groups,
            "receiver offset {q} out of range (G = {})",
            self.groups
        );
        (self.groups - 1 - q, self.group_size - 1 - p)
    }

    /// Flat transmitter index of `(i, j)`: `i·T + j`.
    pub fn tx_index(&self, i: usize, j: usize) -> usize {
        assert!(
            i < self.groups && j < self.group_size,
            "transmitter position out of range"
        );
        i * self.group_size + j
    }

    /// Flat receiver index of `(p, q)`: `p·G + q`.
    pub fn rx_index(&self, p: usize, q: usize) -> usize {
        assert!(
            p < self.group_size && q < self.groups,
            "receiver position out of range"
        );
        p * self.groups + q
    }

    /// The transpose map on flat indices: transmitter `e` (in `0..G·T`,
    /// numbered group-major) to receiver index (in `0..G·T`, numbered
    /// group-major on the receiver side).
    pub fn map_index(&self, tx: usize) -> usize {
        assert!(tx < self.port_count(), "transmitter index out of range");
        let i = tx / self.group_size;
        let j = tx % self.group_size;
        let (p, q) = self.map_pair(i, j);
        self.rx_index(p, q)
    }

    /// The full permutation table: entry `tx` holds the receiver index that
    /// transmitter `tx` is imaged onto.
    pub fn permutation(&self) -> Vec<usize> {
        (0..self.port_count())
            .map(|tx| self.map_index(tx))
            .collect()
    }

    /// The `OTIS(T, G)` system obtained by swapping the roles of the two
    /// sides.  Composing `self` with `self.transposed()` (receiver positions
    /// fed back as transmitter positions) yields the identity on positions —
    /// the "back-to-back OTIS is transparent" property used by the POPS
    /// design, which tests verify.
    pub fn transposed(&self) -> Otis {
        Otis::new(self.group_size, self.groups)
    }

    /// Hardware inventory of one OTIS unit: the paper's construction uses two
    /// planes of lenses, with `G·T` lenslets on the transmitter plane and
    /// (in the Marsden et al. realization) `G·T` on the receiver plane.
    pub fn inventory(&self) -> HardwareInventory {
        let mut inv = HardwareInventory::default();
        inv.add_otis(self.groups, self.group_size);
        inv
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1_otis_3_6_mapping() {
        // Fig. 1 of the paper: OTIS(3, 6). Spot-check the defining formula
        // (i, j) -> (T-1-j, G-1-i) on the corners and a middle point.
        let o = Otis::new(3, 6);
        assert_eq!(o.map_pair(0, 0), (5, 2));
        assert_eq!(o.map_pair(0, 5), (0, 2));
        assert_eq!(o.map_pair(2, 0), (5, 0));
        assert_eq!(o.map_pair(2, 5), (0, 0));
        assert_eq!(o.map_pair(1, 3), (2, 1));
        assert_eq!(o.port_count(), 18);
    }

    #[test]
    fn map_is_a_bijection() {
        for (g, t) in [(3, 6), (6, 4), (4, 6), (2, 2), (1, 5), (5, 1), (3, 12)] {
            let o = Otis::new(g, t);
            let perm = o.permutation();
            let mut seen = vec![false; o.port_count()];
            for &rx in &perm {
                assert!(!seen[rx], "OTIS({g},{t}) image {rx} repeated");
                seen[rx] = true;
            }
            assert!(seen.iter().all(|&s| s));
        }
    }

    #[test]
    fn inverse_roundtrip() {
        // The flat map composed with the receiver layout `p·G + q` and
        // `inverse_pair` returns every transmitter index.
        let o = Otis::new(4, 7);
        for tx in 0..o.port_count() {
            let rx = o.map_index(tx);
            let (i, j) = o.inverse_pair(rx / o.groups(), rx % o.groups());
            assert_eq!(o.tx_index(i, j), tx);
        }
    }

    #[test]
    fn inverse_pair_roundtrip() {
        let o = Otis::new(5, 3);
        for i in 0..5 {
            for j in 0..3 {
                let (p, q) = o.map_pair(i, j);
                assert_eq!(o.inverse_pair(p, q), (i, j));
            }
        }
    }

    #[test]
    fn back_to_back_otis_is_identity_on_positions() {
        // Send (i, j) through OTIS(G, T), treat the receiver position as a
        // transmitter position of OTIS(T, G): we must land back on (i, j).
        for (g, t) in [(4, 2), (2, 4), (3, 6), (6, 3)] {
            let a = Otis::new(g, t);
            let b = a.transposed();
            for i in 0..g {
                for j in 0..t {
                    let (p, q) = a.map_pair(i, j);
                    assert_eq!(b.map_pair(p, q), (i, j));
                }
            }
        }
    }

    #[test]
    fn square_otis_is_an_involution() {
        // When G == T the flat-index permutation is an involution.
        let o = Otis::new(4, 4);
        for tx in 0..o.port_count() {
            assert_eq!(o.map_index(o.map_index(tx)), tx);
        }
    }

    #[test]
    fn flat_index_layout() {
        let o = Otis::new(3, 6);
        assert_eq!(o.tx_index(0, 0), 0);
        assert_eq!(o.tx_index(1, 0), 6);
        assert_eq!(o.tx_index(2, 5), 17);
        assert_eq!(o.rx_index(0, 0), 0);
        assert_eq!(o.rx_index(5, 2), 17);
    }

    #[test]
    fn inventory_counts_one_unit() {
        let inv = Otis::new(3, 12).inventory();
        assert_eq!(inv.otis_units(), 1);
        assert_eq!(inv.lens_count(), 2 * 36);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn map_pair_checks_range() {
        Otis::new(3, 6).map_pair(3, 0);
    }
}
