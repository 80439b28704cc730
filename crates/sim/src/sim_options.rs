//! The options of one simulation run, shared by both kernels.

use crate::wavelength::WavelengthConfig;
use otis_routing::FaultSet;

/// Options of one simulation run, covering both kernels (the multi-OPS
/// slotted simulator and the hot-potato baseline).  Each kernel's `run`
/// reads only the fields that concern it and names them in its docs:
/// [`crate::PreparedHotPotato::run`] reads `slots`, `seed`, `max_hops` and
/// `wavelengths`; [`crate::PreparedMultiOps::run`] reads `slots`, `seed`
/// and `wavelengths`.  Both ignore `faults` and `alt_paths`, which are
/// fixed when the kernel is prepared.  No option chooses how a multi-OPS
/// coupler grants: it always sends its oldest message.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Number of slots to simulate.
    pub slots: u64,
    /// Random seed (traffic, random wavelength assignment, deflection
    /// tie-breaks).
    pub seed: u64,
    /// Messages whose hop count exceeds this value are dropped (the
    /// deflection livelock guard); `0` disables the guard.  Point-to-point
    /// networks only.
    pub max_hops: u32,
    /// Faults both simulators route around (empty = intact network).  For
    /// point-to-point families the fault set names processors and links; for
    /// multi-OPS families it names *quotient* groups and couplers — the
    /// granularity of the paper's §2.5 `d − 1` survivability claim.
    /// Injections the surviving network cannot serve are refused, not
    /// counted as injected.  Read when a kernel is prepared, not by `run`.
    pub faults: FaultSet,
    /// Wavelength capacity per channel.  The default (capacity 1, first
    /// fit) keeps both simulators on their legacy capacity-1 loops and
    /// leaves the wavelength metrics undefined.
    pub wavelengths: WavelengthConfig,
    /// Total routes tried per hop in wavelength mode: the primary plus up
    /// to `alt_paths − 1` Yen alternates, prepared at kernel-build time.
    /// `1` (the default) prepares no alternates.  The study grammar, the
    /// scenario engine and `Network::simulate` refuse a count outside
    /// `1..=MAX_ALT_PATHS` ([`crate::check_alt_paths`]).  Multi-OPS
    /// families only; hot-potato deflection is inherently alternate
    /// routing, so the knob is a no-op for point-to-point networks.
    pub alt_paths: usize,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            slots: 1000,
            seed: 1,
            max_hops: 64,
            faults: FaultSet::new(),
            wavelengths: WavelengthConfig::default(),
            alt_paths: 1,
        }
    }
}

impl SimOptions {
    /// Options with the given slot count and seed, defaults elsewhere.
    pub fn new(slots: u64, seed: u64) -> Self {
        SimOptions {
            slots,
            seed,
            ..Default::default()
        }
    }

    /// The same options with the given fault set installed.
    pub fn with_faults(mut self, faults: FaultSet) -> Self {
        self.faults = faults;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_the_simulators() {
        let o = SimOptions::default();
        assert_eq!(o.slots, 1000);
        assert_eq!(o.max_hops, 64);
        assert!(o.faults.is_empty());
        assert_eq!(o.wavelengths, WavelengthConfig::default());
        assert_eq!(o.alt_paths, 1);
        let custom = SimOptions::new(500, 42);
        assert_eq!(custom.slots, 500);
        assert_eq!(custom.seed, 42);
        assert_eq!(custom.max_hops, o.max_hops);
    }

    #[test]
    fn with_faults_installs_the_fault_set() {
        let mut faults = FaultSet::new();
        faults.fail_node(3);
        let o = SimOptions::new(100, 1).with_faults(faults.clone());
        assert_eq!(o.faults, faults);
        assert_eq!(o.slots, 100);
    }
}
