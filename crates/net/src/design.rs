//! The unified view of a network's optical design.

use otis_core::{MultiOpsDesign, PointToPointDesign};
use otis_optics::HardwareInventory;

/// An owned optical design, point-to-point or multi-OPS, as produced by
/// [`crate::Network::design`].
#[derive(Debug, Clone)]
pub enum NetworkDesign {
    /// A point-to-point design (Proposition 1 / Corollary 1 families).
    PointToPoint(PointToPointDesign),
    /// A multi-OPS design (POPS, stack-Kautz, stack-Imase–Itoh).
    MultiOps(MultiOpsDesign),
}

impl NetworkDesign {
    /// Number of processors of the design.
    pub fn processor_count(&self) -> usize {
        match self {
            NetworkDesign::PointToPoint(d) => d.processor_count(),
            NetworkDesign::MultiOps(d) => d.processor_count(),
        }
    }

    /// The parts list of the design.
    pub fn inventory(&self) -> HardwareInventory {
        match self {
            NetworkDesign::PointToPoint(d) => d.inventory(),
            NetworkDesign::MultiOps(d) => d.inventory(),
        }
    }

    /// Worst-case optical loss over all transmitter→receiver paths, in dB.
    pub fn worst_case_loss_db(&self) -> f64 {
        match self {
            NetworkDesign::PointToPoint(d) => d.worst_case_loss_db(),
            NetworkDesign::MultiOps(d) => d.worst_case_loss_db(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_core::{ImaseItohDesign, PopsDesign};

    #[test]
    fn point_to_point_accessors() {
        let d = NetworkDesign::PointToPoint(ImaseItohDesign::new(2, 5).design().clone());
        assert_eq!(d.processor_count(), 5);
        assert!(d.inventory().otis_units() == 1);
        assert!(d.worst_case_loss_db() >= 0.0);
    }

    #[test]
    fn multi_ops_accessors() {
        let d = NetworkDesign::MultiOps(PopsDesign::new(2, 2).design().clone());
        assert_eq!(d.processor_count(), 4);
        assert!(d.worst_case_loss_db() > 0.0);
    }
}
