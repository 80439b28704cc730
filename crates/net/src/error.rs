//! Typed errors of the facade.

use otis_core::VerificationError;
use std::fmt;

/// Why a spec string could not be turned into a [`crate::NetworkSpec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecError {
    /// The input does not match `FAMILY(arg, ...)`.
    Syntax {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The family mnemonic is not one of the supported ones.
    UnknownFamily {
        /// The offending input.
        input: String,
        /// The unrecognised mnemonic.
        family: String,
    },
    /// The family exists but was given the wrong number of arguments.
    Arity {
        /// The offending input.
        input: String,
        /// The family mnemonic.
        family: String,
        /// Human-readable expected signature.
        expected: &'static str,
        /// Number of arguments received.
        got: usize,
    },
    /// A parameter violates the family's bounds (e.g. a zero degree).
    ParameterOutOfRange {
        /// The rendered spec.
        spec: String,
        /// Which bound was violated.
        reason: &'static str,
    },
    /// The spec describes a network above [`crate::spec::MAX_NODES`]
    /// processors (or one whose size overflows `usize`).
    TooLarge {
        /// The rendered spec.
        spec: String,
        /// The cap that was exceeded.
        max_nodes: usize,
    },
    /// The spec describes a network above [`crate::spec::MAX_LINKS`] arcs or
    /// couplers (dense families hit this long before the node cap).
    TooManyLinks {
        /// The rendered spec.
        spec: String,
        /// The cap that was exceeded.
        max_links: usize,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Syntax { input, reason } => {
                write!(f, "cannot parse network spec '{input}': {reason}")
            }
            SpecError::UnknownFamily { input, family } => write!(
                f,
                "unknown network family '{family}' in '{input}' \
                 (supported: K, DB, KG, II, POPS, SK, SII)"
            ),
            SpecError::Arity { input, family, expected, got } => write!(
                f,
                "wrong number of arguments for {family} in '{input}': expected {expected}, got {got}"
            ),
            SpecError::ParameterOutOfRange { spec, reason } => {
                write!(f, "parameter out of range in {spec}: {reason}")
            }
            SpecError::TooLarge { spec, max_nodes } => {
                write!(f, "{spec} is too large: the facade caps networks at {max_nodes} processors")
            }
            SpecError::TooManyLinks { spec, max_links } => {
                write!(
                    f,
                    "{spec} is too dense: the facade caps networks at {max_links} links/couplers"
                )
            }
        }
    }
}

impl std::error::Error for SpecError {}

/// Any failure surfaced by the [`crate::Network`] facade.
#[derive(Debug, Clone, PartialEq)]
pub enum NetworkError {
    /// The spec string or parameters were invalid.
    Spec(SpecError),
    /// A workload spec was invalid or could not be bound to the network
    /// (e.g. transpose traffic on a non-square processor count).
    Traffic(otis_sim::TrafficError),
    /// The optical design exists but failed its end-to-end verification.
    Verification(VerificationError),
    /// A family without an optical design failed its structural self-check
    /// (closed-form node count, regularity, connectivity, diameter).
    Structure {
        /// The network's name.
        network: String,
        /// What did not hold.
        detail: String,
    },
    /// A streaming result sink refused a row or could not finish — usually
    /// an I/O error from the writer behind a table/CSV/JSONL sink.
    Sink {
        /// The underlying error, rendered.
        detail: String,
    },
    /// The scenario grid's axis product overflows `usize`, so the engine
    /// refuses to expand it (see `ScenarioGrid::checked_cell_count`).
    GridTooLarge {
        /// Length of the spec axis.
        specs: usize,
        /// Length of the workload axis.
        workloads: usize,
        /// Length of the seed axis.
        seeds: usize,
        /// Length of the fault-pattern axis.
        fault_sets: usize,
        /// Length of the fault-schedule axis.
        schedules: usize,
        /// Length of the wavelength-count axis.
        wavelengths: usize,
    },
    /// A point-to-point network has more processors than the hot-potato
    /// simulator's distance table covers
    /// ([`otis_routing::DistanceTable::MAX_NODES`]), so it cannot be
    /// simulated.
    HotPotatoTooLarge {
        /// The network's name.
        network: String,
        /// Its processor count.
        nodes: usize,
    },
    /// A nested fault sweep (`faults N`) asks for more failed nodes than
    /// any spec of the grid has in its fault domain (see
    /// `ScenarioGrid::nested_faults`).
    TooManyFaults {
        /// The requested fault count `N`.
        faults: u64,
        /// The largest fault domain (processors, or quotient groups for
        /// multi-OPS networks) among the grid's specs.
        largest_domain: usize,
    },
    /// A nested fault sweep (`faults N`) whose `N + 1` patterns would hold
    /// more node ids in total (`N·(N+1)/2`) than [`crate::spec::MAX_NODES`],
    /// the most nodes any network of the facade may have (see
    /// `ScenarioGrid::nested_faults`).
    FaultPatternsTooLarge {
        /// The requested fault count `N`.
        faults: usize,
        /// The node ids the patterns would hold, `N·(N+1)/2`.
        node_ids: u128,
    },
    /// A fault schedule could not be bound to a grid cell: an event targets
    /// a node/group outside the network's fault domain, or a scheduled
    /// failure duplicates one of the cell's static faults.
    Schedule(otis_sim::FaultScheduleError),
    /// A wavelength count lies outside `1..=otis_sim::MAX_WAVELENGTHS`.
    Wavelengths(otis_sim::WavelengthCountError),
    /// An `alt_paths` lies outside `1..=otis_sim::MAX_ALT_PATHS`.
    AltPaths(otis_sim::AltPathsError),
    /// A wavelength count whose spectrum map (`⌈W/64⌉` words per link or
    /// coupler, one map per running cell) would exceed
    /// [`crate::spec::MAX_LINKS`] words on this network.
    SpectrumTooLarge {
        /// The network's name.
        network: String,
        /// Its links or couplers.
        links: usize,
        /// The refused wavelength count.
        wavelengths: usize,
    },
}

impl fmt::Display for NetworkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetworkError::Spec(e) => write!(f, "{e}"),
            NetworkError::Traffic(e) => write!(f, "{e}"),
            NetworkError::Verification(e) => write!(f, "design verification failed: {e}"),
            NetworkError::Structure { network, detail } => {
                write!(f, "structural check of {network} failed: {detail}")
            }
            NetworkError::Sink { detail } => {
                write!(f, "result sink failed: {detail}")
            }
            NetworkError::GridTooLarge {
                specs,
                workloads,
                seeds,
                fault_sets,
                schedules,
                wavelengths,
            } => {
                write!(
                    f,
                    "scenario grid is too large: {specs} specs x {workloads} workloads x \
                     {seeds} seeds x {fault_sets} fault patterns x {schedules} fault \
                     schedules x {wavelengths} wavelength counts overflows the cell count"
                )
            }
            NetworkError::HotPotatoTooLarge { network, nodes } => write!(
                f,
                "{network} has {nodes} processors, but the hot-potato simulator's \
                 distance table covers at most {}",
                otis_routing::DistanceTable::MAX_NODES
            ),
            NetworkError::TooManyFaults {
                faults,
                largest_domain,
            } => write!(
                f,
                "{faults} nested faults exceed the largest fault domain among the \
                 specs ({largest_domain} nodes); beyond it every pattern fails the \
                 whole network"
            ),
            NetworkError::FaultPatternsTooLarge { faults, node_ids } => write!(
                f,
                "{faults} nested faults would hold {node_ids} node ids across their \
                 patterns, more than the {} nodes any network may have",
                crate::spec::MAX_NODES
            ),
            NetworkError::Schedule(e) => write!(f, "fault schedule cannot be bound: {e}"),
            NetworkError::Wavelengths(e) => write!(f, "{e}"),
            NetworkError::AltPaths(e) => write!(f, "{e}"),
            NetworkError::SpectrumTooLarge {
                network,
                links,
                wavelengths,
            } => write!(
                f,
                "{network} has {links} links/couplers: a spectrum map of {wavelengths} \
                 wavelengths per link would exceed {} words",
                crate::spec::MAX_LINKS
            ),
        }
    }
}

impl std::error::Error for NetworkError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetworkError::Spec(e) => Some(e),
            NetworkError::Traffic(e) => Some(e),
            NetworkError::Verification(e) => Some(e),
            NetworkError::Structure { .. } => None,
            NetworkError::Sink { .. } => None,
            NetworkError::GridTooLarge { .. } => None,
            NetworkError::HotPotatoTooLarge { .. } => None,
            NetworkError::TooManyFaults { .. } => None,
            NetworkError::FaultPatternsTooLarge { .. } => None,
            NetworkError::Schedule(e) => Some(e),
            NetworkError::Wavelengths(e) => Some(e),
            NetworkError::AltPaths(e) => Some(e),
            NetworkError::SpectrumTooLarge { .. } => None,
        }
    }
}

impl From<otis_sim::FaultScheduleError> for NetworkError {
    fn from(e: otis_sim::FaultScheduleError) -> Self {
        NetworkError::Schedule(e)
    }
}

impl From<otis_sim::WavelengthCountError> for NetworkError {
    fn from(e: otis_sim::WavelengthCountError) -> Self {
        NetworkError::Wavelengths(e)
    }
}

impl From<otis_sim::AltPathsError> for NetworkError {
    fn from(e: otis_sim::AltPathsError) -> Self {
        NetworkError::AltPaths(e)
    }
}

impl From<SpecError> for NetworkError {
    fn from(e: SpecError) -> Self {
        NetworkError::Spec(e)
    }
}

impl From<otis_sim::TrafficError> for NetworkError {
    fn from(e: otis_sim::TrafficError) -> Self {
        NetworkError::Traffic(e)
    }
}

impl From<VerificationError> for NetworkError {
    fn from(e: VerificationError) -> Self {
        NetworkError::Verification(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_are_informative() {
        let e = SpecError::UnknownFamily {
            input: "ZZ(1)".into(),
            family: "ZZ".into(),
        };
        assert!(e.to_string().contains("ZZ"));
        assert!(e.to_string().contains("supported"));
        let n: NetworkError = e.into();
        assert!(n.to_string().contains("ZZ"));
        let v: NetworkError = VerificationError::ProcessorCountMismatch {
            design: 1,
            target: 2,
        }
        .into();
        assert!(v.to_string().contains("verification failed"));
        let s = NetworkError::Structure {
            network: "DB(2,3)".into(),
            detail: "oops".into(),
        };
        assert!(s.to_string().contains("DB(2,3)"));
        let sink = NetworkError::Sink {
            detail: "disk full".into(),
        };
        assert!(sink.to_string().contains("disk full"));
        let big = NetworkError::GridTooLarge {
            specs: usize::MAX,
            workloads: 2,
            seeds: 1,
            fault_sets: 1,
            schedules: 1,
            wavelengths: 1,
        };
        assert!(big.to_string().contains("too large"), "{big}");
        assert!(big.to_string().contains("overflows"), "{big}");
        let hot = NetworkError::HotPotatoTooLarge {
            network: "DB(2,16)".into(),
            nodes: 65_536,
        };
        assert!(hot.to_string().contains("DB(2,16)"), "{hot}");
        assert!(hot.to_string().contains("65535"), "{hot}");
        let sched: NetworkError = otis_sim::FaultScheduleError::TargetOutOfRange {
            target: otis_sim::FaultTarget::Node(9),
            nodes: 6,
        }
        .into();
        assert!(sched.to_string().contains("fault schedule"), "{sched}");
        assert!(sched.to_string().contains('9'), "{sched}");
        let spectrum = NetworkError::SpectrumTooLarge {
            network: "K(4096)".into(),
            links: 16_773_120,
            wavelengths: 4096,
        };
        assert!(spectrum.to_string().contains("K(4096)"), "{spectrum}");
        assert!(
            spectrum.to_string().contains("4096 wavelengths"),
            "{spectrum}"
        );
        let patterns = NetworkError::FaultPatternsTooLarge {
            faults: 32_768,
            node_ids: 536_887_296,
        };
        assert!(
            patterns.to_string().contains("32768 nested faults"),
            "{patterns}"
        );
        assert!(patterns.to_string().contains("536887296"), "{patterns}");
    }
}
