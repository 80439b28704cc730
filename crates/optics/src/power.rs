//! Optical power budget model.
//!
//! The only power-related fact the paper relies on is that an OPS coupler of
//! degree `s` divides the incoming signal into `s` equal parts — a
//! `10·log₁₀(s)` dB splitting loss — and that passive couplers need no power
//! source.  The constants below add typical insertion/excess losses for the
//! other parts so that complete designs can be given an end-to-end loss
//! figure and a feasibility check against a detector sensitivity; they are
//! representative free-space-optics numbers, not measurements from the
//! paper (which reports none).

/// Insertion loss of one OTIS lens pair traversal, in dB.
pub const OTIS_LOSS_DB: f64 = 1.0;

/// Insertion loss of an optical multiplexer, in dB.
pub const MULTIPLEXER_LOSS_DB: f64 = 1.0;

/// Excess loss of a beam-splitter beyond the ideal `1/z` split, in dB.
pub const SPLITTER_EXCESS_LOSS_DB: f64 = 0.5;

/// Loss of a short fiber link (connector dominated), in dB.
pub const FIBER_LOSS_DB: f64 = 0.5;

/// Default transmitter launch power, in dBm (typical VCSEL).
pub const DEFAULT_LAUNCH_POWER_DBM: f64 = 0.0;

/// Default receiver sensitivity, in dBm.
pub const DEFAULT_RECEIVER_SENSITIVITY_DBM: f64 = -30.0;

/// The ideal splitting loss of dividing one signal into `ways` equal parts:
/// `10·log₁₀(ways)` dB.  Zero for `ways ≤ 1`.
pub fn splitting_loss_db(ways: usize) -> f64 {
    if ways <= 1 {
        0.0
    } else {
        10.0 * (ways as f64).log10()
    }
}

/// An end-to-end optical power budget for one transmitter→receiver path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerBudget {
    /// Launch power at the transmitter, dBm.
    pub launch_power_dbm: f64,
    /// Total path loss, dB (sum of every component's insertion/splitting loss).
    pub path_loss_db: f64,
    /// Receiver sensitivity, dBm.
    pub receiver_sensitivity_dbm: f64,
}

impl PowerBudget {
    /// A budget with the default launch power and sensitivity and the given
    /// path loss.
    pub fn with_path_loss(path_loss_db: f64) -> Self {
        PowerBudget {
            launch_power_dbm: DEFAULT_LAUNCH_POWER_DBM,
            path_loss_db,
            receiver_sensitivity_dbm: DEFAULT_RECEIVER_SENSITIVITY_DBM,
        }
    }

    /// Power arriving at the receiver, dBm.
    pub fn received_power_dbm(&self) -> f64 {
        self.launch_power_dbm - self.path_loss_db
    }

    /// Margin above the receiver sensitivity, dB; negative means the link
    /// does not close.
    pub fn margin_db(&self) -> f64 {
        self.received_power_dbm() - self.receiver_sensitivity_dbm
    }

    /// Whether the link closes (non-negative margin).
    pub fn is_feasible(&self) -> bool {
        self.margin_db() >= 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitting_loss_values() {
        assert_eq!(splitting_loss_db(1), 0.0);
        assert_eq!(splitting_loss_db(0), 0.0);
        assert!((splitting_loss_db(2) - 3.0103).abs() < 1e-3);
        assert!((splitting_loss_db(10) - 10.0).abs() < 1e-9);
        assert!((splitting_loss_db(100) - 20.0).abs() < 1e-9);
    }

    #[test]
    fn budget_margin() {
        let b = PowerBudget::with_path_loss(10.0);
        assert_eq!(b.received_power_dbm(), -10.0);
        assert_eq!(b.margin_db(), 20.0);
        assert!(b.is_feasible());
        let bad = PowerBudget::with_path_loss(35.0);
        assert!(!bad.is_feasible());
        assert!(bad.margin_db() < 0.0);
    }

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn loss_constants_are_positive() {
        for &c in &[
            OTIS_LOSS_DB,
            MULTIPLEXER_LOSS_DB,
            SPLITTER_EXCESS_LOSS_DB,
            FIBER_LOSS_DB,
        ] {
            assert!(c > 0.0);
        }
        assert!(DEFAULT_RECEIVER_SENSITIVITY_DBM < DEFAULT_LAUNCH_POWER_DBM);
    }
}
