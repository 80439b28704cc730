//! Design verification: does the optical hardware realize the target graph?
//!
//! The paper's Proposition 1 is a proof that a particular assignment of OTIS
//! ports to graph nodes realizes the Imase–Itoh adjacency.  The reproduction
//! goes one step further: every design constructs an explicit netlist, the
//! connectivity is recovered from the netlist by signal tracing alone, and
//! these functions compare the traced connectivity against the target
//! topology arc for arc (point-to-point designs) or hyperarc for hyperarc
//! (multi-OPS designs).  A design "realizes" its topology exactly when
//! verification returns a report rather than an error.

use crate::design::{InducedGraphError, OpticalDesign};
use otis_graphs::{Digraph, StackGraph};
use std::fmt;

/// Why a design failed verification.
#[derive(Debug, Clone, PartialEq)]
pub enum VerificationError {
    /// The design and the target disagree on the number of processors.
    ProcessorCountMismatch {
        /// Processors in the design.
        design: usize,
        /// Nodes in the target topology.
        target: usize,
    },
    /// The design and the target disagree on the number of couplers.
    CouplerCountMismatch {
        /// Couplers in the design.
        design: usize,
        /// Hyperarcs in the target topology.
        target: usize,
    },
    /// The traced adjacency differs from the target adjacency.
    AdjacencyMismatch {
        /// A human-readable description of the first difference found.
        detail: String,
    },
    /// The traced hyperarcs differ from the target hyperarcs.
    HyperarcMismatch {
        /// A human-readable description of the difference.
        detail: String,
    },
    /// The netlist has dangling ports (incomplete wiring).
    IncompleteWiring {
        /// The number of dangling ports.
        dangling: usize,
        /// The first few problems, for diagnostics.
        sample: Vec<String>,
    },
}

impl fmt::Display for VerificationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerificationError::ProcessorCountMismatch { design, target } => {
                write!(
                    f,
                    "processor count mismatch: design has {design}, target has {target}"
                )
            }
            VerificationError::CouplerCountMismatch { design, target } => {
                write!(
                    f,
                    "coupler count mismatch: design has {design}, target has {target}"
                )
            }
            VerificationError::AdjacencyMismatch { detail } => {
                write!(f, "adjacency mismatch: {detail}")
            }
            VerificationError::HyperarcMismatch { detail } => {
                write!(f, "hyperarc mismatch: {detail}")
            }
            VerificationError::IncompleteWiring { dangling, sample } => {
                write!(
                    f,
                    "incomplete wiring: {dangling} dangling ports (e.g. {sample:?})"
                )
            }
        }
    }
}

impl std::error::Error for VerificationError {}

impl From<InducedGraphError> for VerificationError {
    fn from(e: InducedGraphError) -> Self {
        VerificationError::AdjacencyMismatch {
            detail: e.to_string(),
        }
    }
}

/// A successful verification, with the headline facts worth reporting.
#[derive(Debug, Clone, PartialEq)]
pub struct VerificationReport {
    /// Number of processors checked.
    pub processors: usize,
    /// Number of point-to-point links or OPS couplers checked.
    pub links: usize,
    /// Number of optical components in the netlist.
    pub components: usize,
    /// Worst-case transmitter→receiver optical loss, in dB.
    pub worst_case_loss_db: f64,
}

impl fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "verified: {} processors, {} links/couplers, {} optical components, worst-case loss {:.2} dB",
            self.processors, self.links, self.components, self.worst_case_loss_db
        )
    }
}

/// Verifies a point-to-point design against a target digraph: same node
/// count, and the traced arcs (per node, in transmitter order) equal the
/// target's arcs.
pub fn verify_point_to_point(
    design: &OpticalDesign,
    target: &Digraph,
) -> Result<VerificationReport, VerificationError> {
    if design.processor_count() != target.node_count() {
        return Err(VerificationError::ProcessorCountMismatch {
            design: design.processor_count(),
            target: target.node_count(),
        });
    }
    let induced = design.try_induced_digraph()?;
    for u in 0..target.node_count() {
        let got = induced.out_neighbors(u);
        let want = target.out_neighbors(u);
        if got != want {
            return Err(VerificationError::AdjacencyMismatch {
                detail: format!("node {u}: design reaches {got:?}, target expects {want:?}"),
            });
        }
    }
    Ok(VerificationReport {
        processors: design.processor_count(),
        links: target.arc_count(),
        components: design.netlist.component_count(),
        worst_case_loss_db: design.worst_case_loss_db(),
    })
}

/// Verifies a multi-OPS design against a target stack-graph: same processor
/// and coupler counts, the traced hyperarcs equal the target's hyperarcs (as
/// multisets), and the flattened one-hop adjacencies agree.
pub fn verify_multi_ops(
    design: &OpticalDesign,
    target: &StackGraph,
) -> Result<VerificationReport, VerificationError> {
    if design.processor_count() != target.node_count() {
        return Err(VerificationError::ProcessorCountMismatch {
            design: design.processor_count(),
            target: target.node_count(),
        });
    }
    if design.coupler_count() != target.hyperarc_count() {
        return Err(VerificationError::CouplerCountMismatch {
            design: design.coupler_count(),
            target: target.hyperarc_count(),
        });
    }
    let induced_h = design.try_induced_hypergraph()?;
    let target_h = target.to_hypergraph();
    if !induced_h.same_hyperarcs(&target_h) {
        // Find a telling difference for the error message.
        let detail = first_hyperarc_difference(&induced_h, &target_h);
        return Err(VerificationError::HyperarcMismatch { detail });
    }
    let induced_flat = dedup_arcs(&design.try_induced_digraph()?);
    let target_flat = dedup_arcs(&target.flatten());
    if !induced_flat.same_arcs(&target_flat) {
        return Err(VerificationError::AdjacencyMismatch {
            detail: format!(
                "flattened adjacency differs: design has {} arcs, target has {} arcs",
                induced_flat.arc_count(),
                target_flat.arc_count()
            ),
        });
    }
    Ok(VerificationReport {
        processors: design.processor_count(),
        links: design.coupler_count(),
        components: design.netlist.component_count(),
        worst_case_loss_db: design.worst_case_loss_db(),
    })
}

/// Checks that the netlist of a design has no dangling ports.
pub fn verify_fully_wired(design: &OpticalDesign) -> Result<(), VerificationError> {
    let problems = design.netlist.dangling_ports();
    if problems.is_empty() {
        Ok(())
    } else {
        Err(VerificationError::IncompleteWiring {
            dangling: problems.len(),
            sample: problems.into_iter().take(3).collect(),
        })
    }
}

/// Removes parallel arcs (keeps one copy of each (u, v)).  A multi-OPS
/// design's traced digraph and a stack-graph's flattening both repeat a
/// pair once per coupler joining the two groups; the flattened check
/// compares one-hop reachability, the set of pairs.
fn dedup_arcs(g: &Digraph) -> Digraph {
    let mut pairs = g.sorted_arc_list();
    pairs.dedup();
    Digraph::from_edges(g.node_count(), &pairs)
}

fn first_hyperarc_difference(
    got: &otis_graphs::Hypergraph,
    want: &otis_graphs::Hypergraph,
) -> String {
    let mut got_c: Vec<_> = got.hyperarcs().iter().map(|a| a.canonical()).collect();
    let mut want_c: Vec<_> = want.hyperarcs().iter().map(|a| a.canonical()).collect();
    got_c.sort();
    want_c.sort();
    for (g, w) in got_c.iter().zip(want_c.iter()) {
        if g != w {
            return format!("design coupler {g:?} vs target hyperarc {w:?}");
        }
    }
    format!(
        "coupler multisets differ in length: {} vs {}",
        got_c.len(),
        want_c.len()
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use otis_graphs::Digraph;

    #[test]
    fn error_display() {
        let e = VerificationError::ProcessorCountMismatch {
            design: 4,
            target: 8,
        };
        assert!(e.to_string().contains("4"));
        assert!(e.to_string().contains("8"));
        let e2 = VerificationError::AdjacencyMismatch {
            detail: "node 3".into(),
        };
        assert!(e2.to_string().contains("node 3"));
    }

    #[test]
    fn report_display() {
        let r = VerificationReport {
            processors: 72,
            links: 48,
            components: 500,
            worst_case_loss_db: 12.5,
        };
        let text = r.to_string();
        assert!(text.contains("72"));
        assert!(text.contains("48"));
        assert!(text.contains("12.5"));
    }

    #[test]
    fn dedup_arcs_removes_parallels() {
        let g = Digraph::from_edges(2, &[(0, 1), (0, 1), (1, 0)]);
        let d = dedup_arcs(&g);
        assert_eq!(d.arc_count(), 2);
        assert_eq!(d.sorted_arc_list(), vec![(0, 1), (1, 0)]);
    }
}
