//! Electrical vs. free-space-optical interconnect comparison.
//!
//! Reference \[12\] of the paper (Feldman, Esener, Guest, Lee, *Applied Optics*
//! 1988) compares electrical wires with free-space optical interconnects on
//! power and speed grounds and concludes that optics wins once the product of
//! line length and bit rate exceeds a technology-dependent threshold.  The
//! paper leans on that result to motivate replacing wire bundles with
//! transmitter/receiver pairs connected through OTIS.
//!
//! This module implements a parametric first-order version of that model so
//! the motivation table (experiment T3) can report the energy-per-bit of
//! both technologies and the crossover length.  The default
//! parameters are representative of the era's CMOS + GaAs VCSEL technology
//! and can be overridden; the *shape* (linear-in-length electrical energy vs.
//! essentially length-independent optical energy) is what matters.

/// Technology parameters of the comparison model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InterconnectModel {
    /// Electrical wire capacitance per millimetre, in picofarads.
    pub wire_capacitance_pf_per_mm: f64,
    /// Supply voltage swing for the electrical line, in volts.
    pub voltage_swing_v: f64,
    /// Fixed energy of the optical transmitter + receiver per bit, in picojoules.
    pub optical_fixed_energy_pj: f64,
}

impl Default for InterconnectModel {
    fn default() -> Self {
        InterconnectModel {
            wire_capacitance_pf_per_mm: 0.2,
            voltage_swing_v: 3.3,
            optical_fixed_energy_pj: 5.0,
        }
    }
}

impl InterconnectModel {
    /// Energy per bit of an electrical line of the given length, in
    /// picojoules: `C·L·V²` (dynamic switching energy).
    pub fn electrical_energy_pj(&self, length_mm: f64) -> f64 {
        self.wire_capacitance_pf_per_mm * length_mm * self.voltage_swing_v * self.voltage_swing_v
    }

    /// Energy per bit of an optical link, in picojoules (length independent
    /// to first order: the splitting/propagation losses are absorbed by the
    /// fixed laser drive energy as long as the link closes).
    pub fn optical_energy_pj(&self, _length_mm: f64) -> f64 {
        self.optical_fixed_energy_pj
    }

    /// The length (mm) beyond which the optical link consumes less energy per
    /// bit than the electrical wire.
    pub fn energy_crossover_mm(&self) -> f64 {
        self.optical_fixed_energy_pj
            / (self.wire_capacitance_pf_per_mm * self.voltage_swing_v * self.voltage_swing_v)
    }

    /// `true` when optics is the lower-energy choice at this length.
    pub fn optics_wins_energy(&self, length_mm: f64) -> bool {
        self.optical_energy_pj(length_mm) < self.electrical_energy_pj(length_mm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn electrical_energy_grows_linearly() {
        let m = InterconnectModel::default();
        let e1 = m.electrical_energy_pj(10.0);
        let e2 = m.electrical_energy_pj(20.0);
        assert!((e2 - 2.0 * e1).abs() < 1e-9);
    }

    #[test]
    fn optical_energy_is_flat() {
        let m = InterconnectModel::default();
        assert_eq!(m.optical_energy_pj(1.0), m.optical_energy_pj(1000.0));
    }

    #[test]
    fn crossover_exists_and_is_consistent() {
        let m = InterconnectModel::default();
        let x = m.energy_crossover_mm();
        assert!(x > 0.0);
        assert!(!m.optics_wins_energy(x * 0.5));
        assert!(m.optics_wins_energy(x * 2.0));
        // At the crossover the two energies match.
        assert!((m.electrical_energy_pj(x) - m.optical_energy_pj(x)).abs() < 1e-9);
    }

    #[test]
    fn custom_model() {
        let m = InterconnectModel {
            optical_fixed_energy_pj: 1.0,
            ..InterconnectModel::default()
        };
        assert!(m.energy_crossover_mm() < InterconnectModel::default().energy_crossover_mm());
    }
}
