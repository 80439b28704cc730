//! Hardware-cost accounting.
//!
//! Experiment T3 compares designs by the number of discrete optical parts
//! they need: OTIS units (and their lens counts), OPS couplers, optical
//! multiplexers, beam-splitters, fibers, transmitters and receivers.  The
//! paper's worked example — `SK(6,3,2)` built from 12 `OTIS(6,4)`,
//! 12 `OTIS(4,6)`, 48 multiplexers, 48 beam-splitters and one `OTIS(3,12)` —
//! is exactly an inventory of this kind, and the `otis-core` designs produce
//! theirs programmatically so the counts can be checked against the paper.

use std::collections::BTreeMap;
use std::fmt;

/// A multiset of optical parts.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HardwareInventory {
    /// Count of OTIS units keyed by `(G, T)`.
    otis: BTreeMap<(usize, usize), usize>,
    /// Count of OPS couplers keyed by degree.
    couplers: BTreeMap<usize, usize>,
    /// Count of multiplexers keyed by input count.
    multiplexers: BTreeMap<usize, usize>,
    /// Count of beam-splitters keyed by output count.
    splitters: BTreeMap<usize, usize>,
    /// Number of point-to-point fiber links.
    fibers: usize,
    /// Number of optical transmitters.
    transmitters: usize,
    /// Number of optical receivers.
    receivers: usize,
}

impl HardwareInventory {
    /// An empty inventory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one `OTIS(G, T)` unit.
    pub fn add_otis(&mut self, groups: usize, group_size: usize) {
        *self.otis.entry((groups, group_size)).or_insert(0) += 1;
    }

    /// Records one OPS coupler of the given degree.
    pub fn add_coupler(&mut self, degree: usize) {
        *self.couplers.entry(degree).or_insert(0) += 1;
    }

    /// Records one optical multiplexer with the given number of inputs.
    pub fn add_multiplexer(&mut self, inputs: usize) {
        *self.multiplexers.entry(inputs).or_insert(0) += 1;
    }

    /// Records one beam-splitter with the given number of outputs.
    pub fn add_splitter(&mut self, outputs: usize) {
        *self.splitters.entry(outputs).or_insert(0) += 1;
    }

    /// Records `count` fiber links.
    pub fn add_fibers(&mut self, count: usize) {
        self.fibers += count;
    }

    /// Records `count` transmitters.
    pub fn add_transmitters(&mut self, count: usize) {
        self.transmitters += count;
    }

    /// Records `count` receivers.
    pub fn add_receivers(&mut self, count: usize) {
        self.receivers += count;
    }

    /// Total number of OTIS units of any size.
    pub fn otis_units(&self) -> usize {
        self.otis.values().sum()
    }

    /// Number of `OTIS(G, T)` units of one specific size.
    pub fn otis_units_of(&self, groups: usize, group_size: usize) -> usize {
        self.otis.get(&(groups, group_size)).copied().unwrap_or(0)
    }

    /// Total number of OPS couplers of any degree.
    pub fn coupler_count(&self) -> usize {
        self.couplers.values().sum()
    }

    /// Number of OPS couplers of one specific degree.
    pub fn couplers_of(&self, degree: usize) -> usize {
        self.couplers.get(&degree).copied().unwrap_or(0)
    }

    /// Total number of multiplexers.
    pub fn multiplexer_count(&self) -> usize {
        self.multiplexers.values().sum()
    }

    /// Total number of beam-splitters.
    pub fn splitter_count(&self) -> usize {
        self.splitters.values().sum()
    }

    /// Total number of fiber links.
    pub fn fiber_count(&self) -> usize {
        self.fibers
    }

    /// Total number of transmitters.
    pub fn transmitter_count(&self) -> usize {
        self.transmitters
    }

    /// Total number of receivers.
    pub fn receiver_count(&self) -> usize {
        self.receivers
    }

    /// Total number of lenses across all OTIS units, assuming the two-plane
    /// construction with `G·T` lenslets per plane.
    pub fn lens_count(&self) -> usize {
        self.otis
            .iter()
            .map(|(&(g, t), &count)| 2 * g * t * count)
            .sum()
    }

    /// Total number of discrete optical parts (everything except lenses,
    /// which are internal to OTIS units).
    pub fn total_parts(&self) -> usize {
        self.otis_units()
            + self.coupler_count()
            + self.multiplexer_count()
            + self.splitter_count()
            + self.fibers
            + self.transmitters
            + self.receivers
    }
}

impl fmt::Display for HardwareInventory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (&(g, t), &count) in &self.otis {
            writeln!(f, "  {count:>6} x OTIS({g},{t})")?;
        }
        for (&d, &count) in &self.couplers {
            writeln!(f, "  {count:>6} x OPS coupler (degree {d})")?;
        }
        for (&i, &count) in &self.multiplexers {
            writeln!(f, "  {count:>6} x optical multiplexer ({i} inputs)")?;
        }
        for (&o, &count) in &self.splitters {
            writeln!(f, "  {count:>6} x beam-splitter ({o} outputs)")?;
        }
        if self.fibers > 0 {
            writeln!(f, "  {:>6} x fiber link", self.fibers)?;
        }
        if self.transmitters > 0 {
            writeln!(f, "  {:>6} x transmitter", self.transmitters)?;
        }
        if self.receivers > 0 {
            writeln!(f, "  {:>6} x receiver", self.receivers)?;
        }
        writeln!(
            f,
            "  total parts: {}, lenses inside OTIS units: {}",
            self.total_parts(),
            self.lens_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_inventory() {
        let inv = HardwareInventory::new();
        assert_eq!(inv.total_parts(), 0);
        assert_eq!(inv.lens_count(), 0);
        assert_eq!(inv.otis_units(), 0);
    }

    #[test]
    fn paper_sk_6_3_2_inventory_by_hand() {
        // §4.2: 12 OTIS(6,4), 12 OTIS(4,6), 48 multiplexers, 48 beam-splitters,
        // one OTIS(3,12).
        let mut inv = HardwareInventory::new();
        for _ in 0..12 {
            inv.add_otis(6, 4);
            inv.add_otis(4, 6);
        }
        for _ in 0..48 {
            inv.add_multiplexer(6);
            inv.add_splitter(6);
        }
        inv.add_otis(3, 12);
        assert_eq!(inv.otis_units(), 25);
        assert_eq!(inv.otis_units_of(6, 4), 12);
        assert_eq!(inv.otis_units_of(4, 6), 12);
        assert_eq!(inv.otis_units_of(3, 12), 1);
        assert_eq!(inv.multiplexer_count(), 48);
        assert_eq!(inv.splitter_count(), 48);
        // Lenses: 12·2·24 + 12·2·24 + 1·2·36 = 1224.
        assert_eq!(inv.lens_count(), 1224);
    }

    #[test]
    fn display_lists_everything() {
        let mut inv = HardwareInventory::new();
        inv.add_otis(3, 12);
        inv.add_coupler(6);
        inv.add_multiplexer(6);
        inv.add_splitter(6);
        inv.add_fibers(2);
        inv.add_transmitters(4);
        inv.add_receivers(4);
        let text = inv.to_string();
        assert!(text.contains("OTIS(3,12)"));
        assert!(text.contains("OPS coupler"));
        assert!(text.contains("multiplexer"));
        assert!(text.contains("beam-splitter"));
        assert!(text.contains("fiber"));
        assert_eq!(inv.fiber_count(), 2);
        assert_eq!(inv.transmitter_count(), 4);
        assert_eq!(inv.receiver_count(), 4);
        assert_eq!(inv.total_parts(), 1 + 1 + 1 + 1 + 2 + 4 + 4);
        assert!(text.contains("total parts: 14"));
    }

    #[test]
    fn breakdown_iterates_sorted() {
        let mut inv = HardwareInventory::new();
        inv.add_otis(6, 4);
        inv.add_otis(3, 12);
        inv.add_otis(6, 4);
        let text = inv.to_string();
        let small = text.find("1 x OTIS(3,12)").expect("OTIS(3,12) listed");
        let large = text.find("2 x OTIS(6,4)").expect("OTIS(6,4) listed");
        assert!(small < large, "{text}");
    }

    #[test]
    fn couplers_of_specific_degree() {
        let mut inv = HardwareInventory::new();
        inv.add_coupler(4);
        inv.add_coupler(4);
        inv.add_coupler(6);
        assert_eq!(inv.couplers_of(4), 2);
        assert_eq!(inv.couplers_of(6), 1);
        assert_eq!(inv.couplers_of(8), 0);
        assert_eq!(inv.coupler_count(), 3);
    }
}
