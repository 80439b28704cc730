//! Wavelength-layer configuration shared by both simulation kernels.
//!
//! The paper models each OPS coupler (and each point-to-point link) as a
//! capacity-1 optical channel: one message per slot.  Real OTIS-class
//! lightwave networks multiplex `W` wavelengths per channel, which turns the
//! simulator from a topology checker into a capacity-planning tool: at
//! `W > 1` a channel carries up to `W` messages per slot, contention shows
//! up as a *blocking ratio* instead of queueing delay, and alternate routes
//! absorb part of the overflow.
//!
//! [`WavelengthConfig`] selects the capacity and the wavelength-assignment
//! discipline.  The default (`count = 1`, first-fit) leaves both kernels on
//! their legacy capacity-1 slot loops, byte-identical to previous releases;
//! the wavelength-mode loops only engage at `count > 1` (or, for the
//! multi-OPS kernel, when alternate routes were prepared).  Counts are
//! bounded by [`MAX_WAVELENGTHS`] ([`check_wavelength_count`]), and the
//! routes a message tries per hop by [`MAX_ALT_PATHS`]
//! ([`check_alt_paths`]).

use std::fmt;

/// How a free wavelength is chosen on a channel with spare capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WavelengthAssignment {
    /// Lowest-indexed free wavelength — deterministic, draws no randomness,
    /// and matches the first-fit discipline of classical RWA studies.
    #[default]
    FirstFit,
    /// Uniformly random free wavelength; draws one value from the run's
    /// seeded RNG stream per grant.
    Random,
}

/// The most wavelengths one channel may multiplex.
///
/// 4096 is well beyond any wavelength plan a channel carries: a C-band DWDM
/// grid holds 96 channels at 50 GHz spacing and a 6.25 GHz flex-grid about
/// 768 slots.  The bound keeps the per-channel occupancy masks small (a
/// channel's mask is `count / 64` words, 512 bytes at the bound) and every
/// wavelength index within the `u32` the message arena stores it in.
pub const MAX_WAVELENGTHS: usize = 4096;

/// The most routes a message may try per hop in wavelength mode
/// ([`crate::SimOptions::alt_paths`]): the primary plus up to
/// `MAX_ALT_PATHS − 1` Yen alternates.
///
/// 64 is far beyond what multipath routing studies use (k-shortest-path
/// routing and wavelength assignment typically tries 3 routes), and it
/// bounds a kernel build: Yen's cost grows about quadratically with the
/// count, and an SK(8,3,3) kernel (1 296 group pairs) builds in about
/// 0.4 s at 64 routes against 7 s at 400 on one core of a 2-vCPU VM.
pub const MAX_ALT_PATHS: usize = 64;

/// A wavelength count outside `1..=MAX_WAVELENGTHS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavelengthCountError {
    /// The refused count.
    pub count: usize,
}

impl fmt::Display for WavelengthCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} wavelengths per channel is out of range: a count must be at \
             least 1 and at most {MAX_WAVELENGTHS}",
            self.count
        )
    }
}

impl std::error::Error for WavelengthCountError {}

/// The range check every wavelength count passes before a run: the study
/// grammar, the scenario engine and `Network::simulate` all call it.
pub fn check_wavelength_count(count: usize) -> Result<usize, WavelengthCountError> {
    if (1..=MAX_WAVELENGTHS).contains(&count) {
        Ok(count)
    } else {
        Err(WavelengthCountError { count })
    }
}

/// An `alt_paths` outside `1..=MAX_ALT_PATHS`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AltPathsError {
    /// The refused count.
    pub alt_paths: usize,
}

impl fmt::Display for AltPathsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} routes per hop is out of range: a count must be at least 1 \
             and at most {MAX_ALT_PATHS}",
            self.alt_paths
        )
    }
}

impl std::error::Error for AltPathsError {}

/// The range check every `alt_paths` passes before a run: the study
/// grammar, the scenario engine and `Network::simulate` all call it.
pub fn check_alt_paths(alt_paths: usize) -> Result<usize, AltPathsError> {
    if (1..=MAX_ALT_PATHS).contains(&alt_paths) {
        Ok(alt_paths)
    } else {
        Err(AltPathsError { alt_paths })
    }
}

/// Wavelength capacity of every channel of a simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WavelengthConfig {
    /// Wavelengths multiplexed per channel (per coupler for multi-OPS
    /// networks, per link for point-to-point ones).  Must lie in
    /// `1..=MAX_WAVELENGTHS`; `1` selects the legacy capacity-1 slot loop.
    pub count: usize,
    /// Assignment discipline for picking among free wavelengths.
    pub assignment: WavelengthAssignment,
}

impl Default for WavelengthConfig {
    /// Capacity 1, first-fit: the paper's single-wavelength model.
    fn default() -> Self {
        WavelengthConfig {
            count: 1,
            assignment: WavelengthAssignment::FirstFit,
        }
    }
}

impl WavelengthConfig {
    /// A first-fit configuration with the given wavelength count.
    pub fn with_count(count: usize) -> Self {
        WavelengthConfig {
            count,
            ..Default::default()
        }
    }

    /// Whether this configuration multiplexes more than one wavelength.
    pub fn is_multiplexed(&self) -> bool {
        self.count > 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_the_legacy_capacity_one_model() {
        let c = WavelengthConfig::default();
        assert_eq!(c.count, 1);
        assert_eq!(c.assignment, WavelengthAssignment::FirstFit);
        assert!(!c.is_multiplexed());
    }

    #[test]
    fn with_count_keeps_first_fit() {
        let c = WavelengthConfig::with_count(8);
        assert_eq!(c.count, 8);
        assert_eq!(c.assignment, WavelengthAssignment::FirstFit);
        assert!(c.is_multiplexed());
    }

    #[test]
    fn counts_are_bounded_on_both_sides() {
        assert_eq!(check_wavelength_count(1), Ok(1));
        assert_eq!(check_wavelength_count(MAX_WAVELENGTHS), Ok(MAX_WAVELENGTHS));
        for count in [0, MAX_WAVELENGTHS + 1, usize::MAX] {
            let err = check_wavelength_count(count).unwrap_err();
            assert_eq!(err.count, count);
            assert!(err.to_string().contains("at most 4096"), "{err}");
        }
    }

    #[test]
    fn alt_paths_are_bounded_on_both_sides() {
        assert_eq!(check_alt_paths(1), Ok(1));
        assert_eq!(check_alt_paths(MAX_ALT_PATHS), Ok(MAX_ALT_PATHS));
        for alt_paths in [0, MAX_ALT_PATHS + 1, usize::MAX] {
            let err = check_alt_paths(alt_paths).unwrap_err();
            assert_eq!(err.alt_paths, alt_paths);
            assert!(err.to_string().contains("at most 64"), "{err}");
        }
    }
}
