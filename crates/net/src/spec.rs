//! The network specification language.
//!
//! Every network family of the reproduction is addressable by a short spec
//! string — `"SK(6,3,2)"`, `"POPS(9,8)"`, `"II(4,12)"`, `"KG(3,4)"`,
//! `"DB(2,8)"`, `"SII(2,3,12)"`, `"K(5)"` — mirroring the paper's notation.
//! [`NetworkSpec`] is the parsed, validated form: a comparison scenario, a
//! sweep or a CLI invocation can then be *data* (a list of spec strings)
//! instead of per-family constructor plumbing.
//!
//! Parsing ([`std::str::FromStr`]) and rendering ([`std::fmt::Display`])
//! round-trip: `spec.to_string().parse()` always yields `spec` back.

use crate::error::SpecError;
use std::fmt;
use std::str::FromStr;

/// Upper bound on the processor count a spec may describe, guarding the
/// constructors (which would otherwise happily allocate) against typos like
/// `"KG(9,12)"`.
pub const MAX_NODES: usize = 1 << 22;

/// Upper bound on the arc/coupler count a spec may describe.  Node and link
/// caps are separate because dense families (the complete digraph above all)
/// reach enormous arc counts at modest node counts.
pub const MAX_LINKS: usize = 1 << 24;

/// Upper bound on the diameter `k` of the word-labelled families (`KG`,
/// `SK`): every node carries a `k`-letter word, and at `d = 1` the node cap
/// never binds (`KG(1, k)` has two nodes for every `k`).  At `d ≥ 2` the
/// node cap binds first (`k ≤ 22`).
const MAX_WORD_LENGTH: usize = 64;

/// A parsed, family-tagged network specification.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetworkSpec {
    /// Complete digraph `K(n)` — `n` nodes, arcs between all ordered pairs.
    Complete {
        /// Number of nodes.
        n: usize,
    },
    /// de Bruijn digraph `DB(d, k)` — `d^k` nodes of degree `d`, diameter `k`.
    DeBruijn {
        /// Degree.
        d: usize,
        /// Diameter.
        k: usize,
    },
    /// Kautz graph `KG(d, k)` — `d^(k-1)(d+1)` nodes of degree `d`,
    /// diameter `k`.
    Kautz {
        /// Degree.
        d: usize,
        /// Diameter.
        k: usize,
    },
    /// Imase–Itoh graph `II(d, n)` — `n` nodes of degree `d`, any `n`.
    ImaseItoh {
        /// Degree.
        d: usize,
        /// Number of nodes.
        n: usize,
    },
    /// Partitioned optical passive star `POPS(t, g)` — `t·g` processors in
    /// `g` groups of `t`, `g²` OPS couplers, single-hop.
    Pops {
        /// Group size (OPS coupler degree).
        t: usize,
        /// Number of groups.
        g: usize,
    },
    /// Stack-Kautz `SK(s, d, k)` — `ς(s, KG⁺(d, k))`, multi-hop multi-OPS.
    StackKautz {
        /// Stacking factor (group size, coupler degree).
        s: usize,
        /// Kautz degree.
        d: usize,
        /// Diameter.
        k: usize,
    },
    /// Stack-Imase–Itoh `SII(s, d, n)` — `ς(s, II⁺(d, n))`, any group count.
    StackImaseItoh {
        /// Stacking factor (group size, coupler degree).
        s: usize,
        /// Imase–Itoh degree.
        d: usize,
        /// Number of groups.
        n: usize,
    },
}

impl NetworkSpec {
    /// The family mnemonic used in the spec syntax (`"SK"`, `"POPS"`, …).
    pub fn family_name(&self) -> &'static str {
        match self {
            NetworkSpec::Complete { .. } => "K",
            NetworkSpec::DeBruijn { .. } => "DB",
            NetworkSpec::Kautz { .. } => "KG",
            NetworkSpec::ImaseItoh { .. } => "II",
            NetworkSpec::Pops { .. } => "POPS",
            NetworkSpec::StackKautz { .. } => "SK",
            NetworkSpec::StackImaseItoh { .. } => "SII",
        }
    }

    /// Whether the spec describes a multi-OPS (stack-graph) network, as
    /// opposed to a point-to-point digraph network.
    pub fn is_multi_ops(&self) -> bool {
        matches!(
            self,
            NetworkSpec::Pops { .. }
                | NetworkSpec::StackKautz { .. }
                | NetworkSpec::StackImaseItoh { .. }
        )
    }

    /// Closed-form processor count, or `None` when it overflows `usize`.
    pub fn node_count(&self) -> Option<usize> {
        match *self {
            NetworkSpec::Complete { n } => Some(n),
            NetworkSpec::DeBruijn { d, k } => checked_pow(d, k),
            NetworkSpec::Kautz { d, k } => kautz_nodes(d, k),
            NetworkSpec::ImaseItoh { n, .. } => Some(n),
            NetworkSpec::Pops { t, g } => t.checked_mul(g),
            NetworkSpec::StackKautz { s, d, k } => kautz_nodes(d, k)?.checked_mul(s),
            NetworkSpec::StackImaseItoh { s, n, .. } => s.checked_mul(n),
        }
    }

    /// The size of the family's fault domain — the id space fault-pattern
    /// node ids (static [`otis_routing::FaultSet`]s and scheduled
    /// fault-timeline events alike) are interpreted over: quotient groups
    /// for multi-OPS families, processors for point-to-point families.
    /// `None` when the closed form overflows `usize`.
    pub fn fault_domain_size(&self) -> Option<usize> {
        match *self {
            NetworkSpec::Pops { g, .. } => Some(g),
            NetworkSpec::StackKautz { d, k, .. } => kautz_nodes(d, k),
            NetworkSpec::StackImaseItoh { n, .. } => Some(n),
            _ => self.node_count(),
        }
    }

    /// Closed-form link count — arcs for point-to-point families, OPS
    /// couplers for multi-OPS families — or `None` when the family has no
    /// simple closed form (`SII`, whose `II⁺` loop count depends on `n`).
    pub fn link_count(&self) -> Option<usize> {
        match *self {
            NetworkSpec::Complete { n } => n.checked_mul(n.saturating_sub(1)),
            NetworkSpec::DeBruijn { d, k } => checked_pow(d, k)?.checked_mul(d),
            NetworkSpec::Kautz { d, k } => kautz_nodes(d, k)?.checked_mul(d),
            NetworkSpec::ImaseItoh { d, n } => n.checked_mul(d),
            NetworkSpec::Pops { g, .. } => g.checked_mul(g),
            NetworkSpec::StackKautz { d, k, .. } => {
                kautz_nodes(d, k)?.checked_mul(d.checked_add(1)?)
            }
            NetworkSpec::StackImaseItoh { .. } => None,
        }
    }

    /// An upper bound on [`NetworkSpec::link_count`], defined for every
    /// family (`SII`'s `II⁺(d, n)` quotient has at most `n·(d+1)` arcs).
    fn link_upper_bound(&self) -> Option<usize> {
        match *self {
            NetworkSpec::StackImaseItoh { d, n, .. } => n.checked_mul(d.checked_add(1)?),
            _ => self.link_count(),
        }
    }

    /// Checks the parameter bounds of the family and the [`MAX_NODES`] /
    /// [`MAX_LINKS`] size caps, so constructing the network cannot panic or
    /// exhaust memory.
    pub fn validate(&self) -> Result<(), SpecError> {
        let bounds_ok = match *self {
            NetworkSpec::Complete { n } => n >= 1,
            NetworkSpec::DeBruijn { d, k } | NetworkSpec::Kautz { d, k } => d >= 1 && k >= 1,
            NetworkSpec::ImaseItoh { d, n } => d >= 1 && n >= 1,
            NetworkSpec::Pops { t, g } => t >= 1 && g >= 1,
            NetworkSpec::StackKautz { s, d, k } => s >= 1 && d >= 1 && k >= 1,
            NetworkSpec::StackImaseItoh { s, d, n } => s >= 1 && d >= 1 && n >= 1,
        };
        if !bounds_ok {
            return Err(SpecError::ParameterOutOfRange {
                spec: self.to_string(),
                reason: "every parameter must be at least 1",
            });
        }
        if let NetworkSpec::Kautz { k, .. } | NetworkSpec::StackKautz { k, .. } = *self {
            if k > MAX_WORD_LENGTH {
                return Err(SpecError::ParameterOutOfRange {
                    spec: self.to_string(),
                    reason: "the Kautz diameter k must be at most 64",
                });
            }
        }
        match self.node_count() {
            Some(n) if n <= MAX_NODES => {}
            _ => {
                return Err(SpecError::TooLarge {
                    spec: self.to_string(),
                    max_nodes: MAX_NODES,
                })
            }
        }
        match self.link_upper_bound() {
            Some(l) if l <= MAX_LINKS => Ok(()),
            _ => Err(SpecError::TooManyLinks {
                spec: self.to_string(),
                max_links: MAX_LINKS,
            }),
        }
    }
}

fn checked_pow(base: usize, exp: usize) -> Option<usize> {
    u32::try_from(exp).ok().and_then(|e| base.checked_pow(e))
}

fn kautz_nodes(d: usize, k: usize) -> Option<usize> {
    checked_pow(d, k.checked_sub(1)?)?.checked_mul(d.checked_add(1)?)
}

impl fmt::Display for NetworkSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            NetworkSpec::Complete { n } => write!(f, "K({n})"),
            NetworkSpec::DeBruijn { d, k } => write!(f, "DB({d},{k})"),
            NetworkSpec::Kautz { d, k } => write!(f, "KG({d},{k})"),
            NetworkSpec::ImaseItoh { d, n } => write!(f, "II({d},{n})"),
            NetworkSpec::Pops { t, g } => write!(f, "POPS({t},{g})"),
            NetworkSpec::StackKautz { s, d, k } => write!(f, "SK({s},{d},{k})"),
            NetworkSpec::StackImaseItoh { s, d, n } => write!(f, "SII({s},{d},{n})"),
        }
    }
}

impl FromStr for NetworkSpec {
    type Err = SpecError;

    fn from_str(input: &str) -> Result<Self, Self::Err> {
        let text = input.trim();
        let open = text.find('(').ok_or_else(|| SpecError::Syntax {
            input: input.to_string(),
            reason: "expected FAMILY(arg, ...)",
        })?;
        if !text.ends_with(')') {
            return Err(SpecError::Syntax {
                input: input.to_string(),
                reason: "missing closing parenthesis",
            });
        }
        let family = text[..open].trim().to_ascii_uppercase();
        let args: Vec<usize> = text[open + 1..text.len() - 1]
            .split(',')
            .map(|a| {
                a.trim().parse::<usize>().map_err(|_| SpecError::Syntax {
                    input: input.to_string(),
                    reason: "arguments must be non-negative integers",
                })
            })
            .collect::<Result<_, _>>()?;

        let arity_error = |expected: &'static str| SpecError::Arity {
            input: input.to_string(),
            family: family.clone(),
            expected,
            got: args.len(),
        };
        let spec = match family.as_str() {
            "K" => match args[..] {
                [n] => NetworkSpec::Complete { n },
                _ => return Err(arity_error("1 argument: K(n)")),
            },
            // "B" is the paper's name for de Bruijn graphs; accept both.
            "DB" | "B" => match args[..] {
                [d, k] => NetworkSpec::DeBruijn { d, k },
                _ => return Err(arity_error("2 arguments: DB(d,k)")),
            },
            "KG" => match args[..] {
                [d, k] => NetworkSpec::Kautz { d, k },
                _ => return Err(arity_error("2 arguments: KG(d,k)")),
            },
            "II" => match args[..] {
                [d, n] => NetworkSpec::ImaseItoh { d, n },
                _ => return Err(arity_error("2 arguments: II(d,n)")),
            },
            "POPS" => match args[..] {
                [t, g] => NetworkSpec::Pops { t, g },
                _ => return Err(arity_error("2 arguments: POPS(t,g)")),
            },
            "SK" => match args[..] {
                [s, d, k] => NetworkSpec::StackKautz { s, d, k },
                _ => return Err(arity_error("3 arguments: SK(s,d,k)")),
            },
            "SII" => match args[..] {
                [s, d, n] => NetworkSpec::StackImaseItoh { s, d, n },
                _ => return Err(arity_error("3 arguments: SII(s,d,n)")),
            },
            _ => {
                return Err(SpecError::UnknownFamily {
                    input: input.to_string(),
                    family,
                })
            }
        };
        spec.validate()?;
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_every_family() {
        let cases = [
            ("K(5)", NetworkSpec::Complete { n: 5 }),
            ("DB(2,8)", NetworkSpec::DeBruijn { d: 2, k: 8 }),
            ("KG(3,4)", NetworkSpec::Kautz { d: 3, k: 4 }),
            ("II(4,12)", NetworkSpec::ImaseItoh { d: 4, n: 12 }),
            ("POPS(9,8)", NetworkSpec::Pops { t: 9, g: 8 }),
            ("SK(6,3,2)", NetworkSpec::StackKautz { s: 6, d: 3, k: 2 }),
            (
                "SII(2,3,12)",
                NetworkSpec::StackImaseItoh { s: 2, d: 3, n: 12 },
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(text.parse::<NetworkSpec>().unwrap(), expected, "{text}");
            // Display round-trips through the parser.
            assert_eq!(expected.to_string(), text);
            assert_eq!(
                expected.to_string().parse::<NetworkSpec>().unwrap(),
                expected
            );
        }
    }

    #[test]
    fn tolerant_syntax() {
        assert_eq!(
            "  sk( 6 , 3 ,2 )  ".parse::<NetworkSpec>().unwrap(),
            NetworkSpec::StackKautz { s: 6, d: 3, k: 2 }
        );
        assert_eq!(
            "B(2,6)".parse::<NetworkSpec>().unwrap(),
            NetworkSpec::DeBruijn { d: 2, k: 6 }
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "SK", "SK(", "SK 6,3,2", "SK(6,3)", "POPS(9)", "XX(1,2)", "KG(a,b)",
        ] {
            assert!(
                bad.parse::<NetworkSpec>().is_err(),
                "{bad} should not parse"
            );
        }
    }

    #[test]
    fn rejects_out_of_range_parameters() {
        for bad in ["K(0)", "KG(0,2)", "POPS(0,3)", "SK(0,2,2)", "SII(1,0,5)"] {
            assert!(
                bad.parse::<NetworkSpec>().is_err(),
                "{bad} should be rejected"
            );
        }
    }

    #[test]
    fn rejects_oversized_networks() {
        let err = "KG(9,12)".parse::<NetworkSpec>().unwrap_err();
        assert!(err.to_string().contains("large"), "{err}");
        // Overflowing node counts are also "too large", not a panic.
        assert!("DB(10,40)".parse::<NetworkSpec>().is_err());
        // An extreme degree must not overflow the d + 1 in the Kautz closed
        // form (typed error, no panic even in debug builds).
        assert!("KG(18446744073709551615,1)".parse::<NetworkSpec>().is_err());
        // KG(1, k) has two nodes for every k, but each carries a k-letter
        // word: the diameter is capped so the labels cannot exhaust memory.
        assert!("KG(1,64)".parse::<NetworkSpec>().is_ok());
        for bad in ["KG(1,65)", "SK(2,1,4294967295)", "KG(1,4294967296)"] {
            let err = bad.parse::<NetworkSpec>().unwrap_err();
            assert!(err.to_string().contains("at most 64"), "{bad}: {err}");
        }
    }

    #[test]
    fn rejects_overdense_networks() {
        // Dense families blow the arc budget long before the node cap: the
        // complete digraph on 10^5 nodes has ~10^10 arcs.
        let err = "K(100000)".parse::<NetworkSpec>().unwrap_err();
        assert!(err.to_string().contains("dense"), "{err}");
        // SII has no exact link closed form; its n·(d+1) bound still caps it.
        assert!("SII(1,8000000,4)".parse::<NetworkSpec>().is_err());
        // Modest sizes stay well within both caps.
        assert!("K(1000)".parse::<NetworkSpec>().is_ok());
    }

    #[test]
    fn closed_forms() {
        let sk: NetworkSpec = "SK(6,3,2)".parse().unwrap();
        assert_eq!(sk.node_count(), Some(72));
        assert_eq!(sk.link_count(), Some(48));
        let pops: NetworkSpec = "POPS(9,8)".parse().unwrap();
        assert_eq!(pops.node_count(), Some(72));
        assert_eq!(pops.link_count(), Some(64));
        let kg: NetworkSpec = "KG(3,4)".parse().unwrap();
        assert_eq!(kg.node_count(), Some(108));
        assert_eq!(kg.link_count(), Some(324));
        assert!(kg.validate().is_ok());
        assert!(!kg.is_multi_ops());
        assert!(sk.is_multi_ops());
        assert_eq!(sk.family_name(), "SK");
    }
}
