//! The workload grammar: [`DemandSpec`]'s spelling, range checks and
//! binding to a network.
//!
//! The paper's throughput and latency claims are made under *traffic*, not
//! just an offered-load scalar, so workloads get the same first-class
//! treatment as networks: a [`DemandSpec`] parses from a short workload
//! string and renders back to it (`FromStr`/`Display`), like the network
//! spec of `otis_net` and the [`crate::FaultSchedule`] grammar next door.
//!
//! The *stationary* patterns of [`crate::traffic`], with loads as per-slot
//! injection probabilities in `[0, 1]`:
//!
//! * `"uniform(0.3)"` — uniform destinations at load 0.3;
//! * `"perm(0.5,7)"` — the static shift permutation `dst = src + 7 mod N`;
//! * `"hotspot(0.4,0,0.2)"` — uniform background with 20% of non-hot
//!   sources' messages aimed at processor 0;
//! * `"transpose(0.5)"` — matrix transpose on a square grid (`N = m²`);
//! * `"bitrev(0.5)"` — bit-reversal on a power-of-two network.
//!
//! The *demand processes* of [`crate::demand`], with rates as expected
//! arrivals per processor per slot (finite, `>= 0`, may exceed 1 — the
//! per-slot injection probability is `1 − e^(−rate)`):
//!
//! * `"poisson(0.3)"` — Poisson arrivals, uniform destinations;
//! * `"poisson(0.3,5)"` — Poisson arrivals, every message aimed at
//!   processor 5 (which itself stays silent);
//! * `"onoff(0.8,5,15)"` — on/off bursts: Poisson arrivals at rate 0.8
//!   during 5-slot ON phases, silence during 15-slot OFF phases,
//!   per-processor phases drawn from the run RNG;
//! * `"mix(0.25,2.0,0.05)"` — elephants-and-mice: a quarter of the
//!   processors inject at rate 2.0, the rest at 0.05;
//! * `"trace(demand.trc)"` — lazy bounded-memory replay of a recorded
//!   `.trc` demand stream.  The path is taken verbatim; it may not be
//!   empty, carry surrounding whitespace, or contain `(`, `)` or `,`, so
//!   it renders back to a spec that parses and splits cleanly in a
//!   comma-separated list.
//!
//! Parsing checks syntax only and then runs [`DemandSpec::validate`], the
//! one place value ranges are checked: `NaN` or negative loads, loads
//! above 1, out-of-range hotspot and mix fractions, `NaN`, infinite or
//! negative rates, zero burst lengths and malformed trace paths are typed
//! [`TrafficError`]s, so a bad workload never reaches a simulator.
//! Topology preconditions (transpose needs a square processor count,
//! bit-reversal a power of two, a hotspot or fixed Poisson destination
//! must exist, a trace's node ids must fit the network) are checked by
//! [`DemandSpec::bind`] against one concrete network size, refusing with a
//! typed error instead of silently degrading.  Binding a trace streams the
//! whole file through [`validate_trace`] once, in O(N) memory, so replay
//! starts from a stream already known to be well-formed.

use crate::demand::{validate_trace, DemandSpec, TraceError};
use crate::traffic::TrafficPattern;
use std::fmt;
use std::str::FromStr;

/// Why a workload string could not be parsed, a workload's values are out
/// of range, or a workload could not be bound to a network.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficError {
    /// The input does not match `pattern(arg, ...)`, or a trace path is
    /// malformed.
    Syntax {
        /// The offending input.
        input: String,
        /// What was wrong with it.
        reason: &'static str,
    },
    /// The pattern mnemonic is not one of the supported ones.
    UnknownPattern {
        /// The offending input.
        input: String,
        /// The unrecognised mnemonic.
        pattern: String,
    },
    /// The pattern exists but was given the wrong number of arguments.
    Arity {
        /// The offending input.
        input: String,
        /// The pattern mnemonic.
        pattern: String,
        /// Human-readable expected signature.
        expected: &'static str,
        /// Number of arguments received.
        got: usize,
    },
    /// A load is `NaN`, infinite, negative or above 1 — it is an injection
    /// probability and must lie in `[0, 1]`.
    LoadOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The offending value, rendered (so `NaN` survives the trip).
        value: String,
    },
    /// A hotspot fraction is `NaN`, infinite, negative or above 1.
    HotFractionOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The offending value, rendered.
        value: String,
    },
    /// The hotspot's hot node does not exist in the bound network.
    HotNodeOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The requested hot node.
        hot_node: usize,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// Transpose traffic bound to a network whose processor count is not a
    /// perfect square.
    NotSquare {
        /// The rendered workload.
        spec: String,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// Bit-reversal traffic bound to a network whose processor count is not
    /// a power of two.
    NotPowerOfTwo {
        /// The rendered workload.
        spec: String,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// A rate is `NaN`, infinite or negative — rates are expected arrivals
    /// per slot and must be finite and `>= 0` (they *may* exceed 1).
    RateOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The offending value, rendered (so `NaN` survives the trip).
        value: String,
    },
    /// An on/off burst length of 0 — the ON phase must last at least one
    /// slot.
    ZeroBurst {
        /// The rendered workload.
        spec: String,
    },
    /// An on/off cycle, `burst_len + idle_len` slots, longer than
    /// `u64::MAX` slots.
    CycleOverflow {
        /// The rendered workload.
        spec: String,
    },
    /// A mix fraction is `NaN`, infinite, negative or above 1.
    MixFractionOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The offending value, rendered.
        value: String,
    },
    /// A fixed Poisson destination does not exist in the bound network.
    DestinationOutOfRange {
        /// The rendered workload.
        spec: String,
        /// The requested destination.
        node: usize,
        /// The bound network's processor count.
        nodes: usize,
    },
    /// The trace file violates the `.trc` format or the bound network size
    /// — the wrapped [`TraceError`] carries the 1-based line number.
    Trace {
        /// The trace file's path.
        path: String,
        /// The first violation found.
        error: TraceError,
    },
    /// The trace file could not be opened or read.
    TraceIo {
        /// The trace file's path.
        path: String,
        /// The I/O error rendered as text.
        detail: String,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::Syntax { input, reason } => {
                write!(f, "cannot parse workload '{input}': {reason}")
            }
            TrafficError::UnknownPattern { input, pattern } => write!(
                f,
                "unknown traffic pattern '{pattern}' in '{input}' \
                 (supported: uniform, perm, hotspot, transpose, bitrev, \
                 poisson, onoff, mix, trace)"
            ),
            TrafficError::Arity {
                input,
                pattern,
                expected,
                got,
            } => write!(
                f,
                "wrong number of arguments for {pattern} in '{input}': \
                 expected {expected}, got {got}"
            ),
            TrafficError::LoadOutOfRange { spec, value } => write!(
                f,
                "load {value} in '{spec}' is out of range: loads are injection \
                 probabilities in [0, 1]"
            ),
            TrafficError::HotFractionOutOfRange { spec, value } => write!(
                f,
                "hotspot fraction {value} in '{spec}' is out of range: \
                 fractions lie in [0, 1]"
            ),
            TrafficError::HotNodeOutOfRange {
                spec,
                hot_node,
                nodes,
            } => write!(
                f,
                "hot node {hot_node} in '{spec}' does not exist: the network \
                 has {nodes} processors"
            ),
            TrafficError::NotSquare { spec, nodes } => write!(
                f,
                "'{spec}' needs a square processor count, but the network has \
                 {nodes} processors"
            ),
            TrafficError::NotPowerOfTwo { spec, nodes } => write!(
                f,
                "'{spec}' needs a power-of-two processor count, but the \
                 network has {nodes} processors"
            ),
            TrafficError::RateOutOfRange { spec, value } => write!(
                f,
                "rate {value} in '{spec}' is out of range: rates are expected \
                 arrivals per slot and must be finite and >= 0"
            ),
            TrafficError::ZeroBurst { spec } => write!(
                f,
                "burst length 0 in '{spec}': the ON phase must last at least \
                 one slot"
            ),
            TrafficError::CycleOverflow { spec } => write!(
                f,
                "on/off cycle of '{spec}' is too long: burst and idle lengths \
                 must sum to at most {} slots",
                u64::MAX
            ),
            TrafficError::MixFractionOutOfRange { spec, value } => write!(
                f,
                "mix fraction {value} in '{spec}' is out of range: fractions \
                 lie in [0, 1]"
            ),
            TrafficError::DestinationOutOfRange { spec, node, nodes } => write!(
                f,
                "destination {node} in '{spec}' does not exist: the network \
                 has {nodes} processors"
            ),
            TrafficError::Trace { path, error } => {
                write!(f, "trace file '{path}': {error}")
            }
            TrafficError::TraceIo { path, detail } => {
                write!(f, "trace file '{path}': {detail}")
            }
        }
    }
}

impl std::error::Error for TrafficError {}

impl DemandSpec {
    /// `true` for `trace(file)` workloads — replay consumes no RNG, so runs
    /// are seed-invariant (the scenario engine warns when a trace is
    /// crossed with several seeds).
    pub fn is_trace(&self) -> bool {
        matches!(self, DemandSpec::Trace { .. })
    }

    /// Checks the value ranges that do not depend on a network: loads and
    /// hotspot/mix fractions must be finite and in `[0, 1]`, rates finite
    /// and `>= 0`, burst lengths at least 1, on/off cycles (burst plus
    /// idle length) at most `u64::MAX` slots, and a trace path non-empty,
    /// free of surrounding whitespace and of `(`, `)` and `,`.  This is the
    /// grammar's only range check: parsing ends with it and
    /// [`DemandSpec::bind`] begins with it, so values built by hand are
    /// checked before a run too.
    pub fn validate(&self) -> Result<(), TrafficError> {
        let rate_check = |rate: f64| -> Result<(), TrafficError> {
            if rate.is_finite() && rate >= 0.0 {
                Ok(())
            } else {
                Err(TrafficError::RateOutOfRange {
                    spec: self.to_string(),
                    value: rate.to_string(),
                })
            }
        };
        match *self {
            DemandSpec::Pattern(ref pattern) => {
                let load = pattern.offered_load();
                if !(0.0..=1.0).contains(&load) {
                    return Err(TrafficError::LoadOutOfRange {
                        spec: self.to_string(),
                        value: load.to_string(),
                    });
                }
                if let TrafficPattern::Hotspot { hot_fraction, .. } = *pattern {
                    if !(0.0..=1.0).contains(&hot_fraction) {
                        return Err(TrafficError::HotFractionOutOfRange {
                            spec: self.to_string(),
                            value: hot_fraction.to_string(),
                        });
                    }
                }
                Ok(())
            }
            DemandSpec::Poisson { rate, .. } => rate_check(rate),
            DemandSpec::OnOff {
                rate,
                burst_len,
                idle_len,
            } => {
                rate_check(rate)?;
                if burst_len == 0 {
                    return Err(TrafficError::ZeroBurst {
                        spec: self.to_string(),
                    });
                }
                if burst_len.checked_add(idle_len).is_none() {
                    return Err(TrafficError::CycleOverflow {
                        spec: self.to_string(),
                    });
                }
                Ok(())
            }
            DemandSpec::Mix {
                fraction,
                elephant_rate,
                mice_rate,
            } => {
                if !(0.0..=1.0).contains(&fraction) {
                    return Err(TrafficError::MixFractionOutOfRange {
                        spec: self.to_string(),
                        value: fraction.to_string(),
                    });
                }
                rate_check(elephant_rate)?;
                rate_check(mice_rate)
            }
            DemandSpec::Trace { ref path, .. } => {
                if path.is_empty() || path.trim() != path || path.contains(['(', ')', ',']) {
                    return Err(TrafficError::Syntax {
                        input: self.to_string(),
                        reason: "trace paths must be non-empty, without surrounding \
                                 whitespace, and may not contain '(', ')' or ','",
                    });
                }
                Ok(())
            }
        }
    }

    /// Binds the workload to a concrete network of `n` processors after
    /// [`DemandSpec::validate`], checking the topology preconditions it
    /// needs: transpose requires `n = m²`, bit-reversal requires `n = 2^b`,
    /// a hotspot's hot node and a fixed Poisson destination must exist, and
    /// a trace's whole file is streamed through [`validate_trace`] (syntax,
    /// node ranges, slot monotonicity — typed, line-numbered
    /// [`TraceError`]s).  That pass reads the file with the byte scanner
    /// replay also uses, which parses ASCII lines in place in an 8 KiB
    /// buffer, so it allocates nothing per line.  Returns the runnable
    /// spec — for a trace, with the file's measured mean load filled in —
    /// or a typed refusal, never a silently-degraded workload.
    pub fn bind(&self, n: usize) -> Result<DemandSpec, TrafficError> {
        self.validate()?;
        match *self {
            DemandSpec::Pattern(TrafficPattern::Hotspot { hot_node, .. }) if hot_node >= n => {
                Err(TrafficError::HotNodeOutOfRange {
                    spec: self.to_string(),
                    hot_node,
                    nodes: n,
                })
            }
            DemandSpec::Pattern(TrafficPattern::Transpose { .. }) if n.isqrt().pow(2) != n => {
                Err(TrafficError::NotSquare {
                    spec: self.to_string(),
                    nodes: n,
                })
            }
            DemandSpec::Pattern(TrafficPattern::BitReversal { .. }) if !n.is_power_of_two() => {
                Err(TrafficError::NotPowerOfTwo {
                    spec: self.to_string(),
                    nodes: n,
                })
            }
            DemandSpec::Poisson { dst: Some(d), .. } if d >= n => {
                Err(TrafficError::DestinationOutOfRange {
                    spec: self.to_string(),
                    node: d,
                    nodes: n,
                })
            }
            DemandSpec::Trace { ref path, .. } => {
                let file = std::fs::File::open(path).map_err(|e| TrafficError::TraceIo {
                    path: path.clone(),
                    detail: e.to_string(),
                })?;
                let stats = validate_trace(std::io::BufReader::new(file), n).map_err(|error| {
                    TrafficError::Trace {
                        path: path.clone(),
                        error,
                    }
                })?;
                // The same streaming pass measures the trace, so the bound
                // spec reports a real offered load instead of a NaN
                // sentinel (an empty trace is load 0, not undefined).
                Ok(DemandSpec::Trace {
                    path: path.clone(),
                    offered_load: Some(stats.offered_load(n)),
                })
            }
            _ => Ok(self.clone()),
        }
    }
}

impl fmt::Display for DemandSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DemandSpec::Pattern(ref pattern) => fmt::Display::fmt(pattern, f),
            DemandSpec::Poisson { rate, dst: None } => write!(f, "poisson({rate})"),
            DemandSpec::Poisson { rate, dst: Some(d) } => write!(f, "poisson({rate},{d})"),
            DemandSpec::OnOff {
                rate,
                burst_len,
                idle_len,
            } => write!(f, "onoff({rate},{burst_len},{idle_len})"),
            DemandSpec::Mix {
                fraction,
                elephant_rate,
                mice_rate,
            } => write!(f, "mix({fraction},{elephant_rate},{mice_rate})"),
            DemandSpec::Trace { ref path, .. } => write!(f, "trace({path})"),
        }
    }
}

/// Parses one argument, mapping a malformed one to a syntax error.
fn arg<T: FromStr>(raw: &str, input: &str, reason: &'static str) -> Result<T, TrafficError> {
    raw.parse().map_err(|_| TrafficError::Syntax {
        input: input.to_string(),
        reason,
    })
}

impl FromStr for DemandSpec {
    type Err = TrafficError;

    fn from_str(input: &str) -> Result<Self, Self::Err> {
        let text = input.trim();
        let open = text.find('(').ok_or_else(|| TrafficError::Syntax {
            input: input.to_string(),
            reason: "expected pattern(arg, ...)",
        })?;
        if !text.ends_with(')') {
            return Err(TrafficError::Syntax {
                input: input.to_string(),
                reason: "missing closing parenthesis",
            });
        }
        let pattern = text[..open].trim().to_ascii_lowercase();
        let inner = text[open + 1..text.len() - 1].trim();
        let args: Vec<&str> = inner.split(',').map(str::trim).collect();

        const LOAD: &str = "loads must be decimal numbers";
        const INDEX: &str = "offsets and node ids must be non-negative integers";
        const RATE: &str = "rates must be decimal numbers";
        const SLOTS: &str = "burst and idle lengths must be non-negative integers";
        let arity_error = |expected: &'static str| TrafficError::Arity {
            input: input.to_string(),
            pattern: pattern.clone(),
            expected,
            got: args.len(),
        };

        let spec = match pattern.as_str() {
            "uniform" => match args[..] {
                [l] => DemandSpec::Pattern(TrafficPattern::Uniform {
                    load: arg(l, input, LOAD)?,
                }),
                _ => return Err(arity_error("1 argument: uniform(load)")),
            },
            "perm" => match args[..] {
                [l, o] => DemandSpec::Pattern(TrafficPattern::Permutation {
                    load: arg(l, input, LOAD)?,
                    offset: arg(o, input, INDEX)?,
                }),
                _ => return Err(arity_error("2 arguments: perm(load,offset)")),
            },
            "hotspot" => match args[..] {
                [l, node, frac] => DemandSpec::Pattern(TrafficPattern::Hotspot {
                    load: arg(l, input, LOAD)?,
                    hot_node: arg(node, input, INDEX)?,
                    hot_fraction: arg(frac, input, "hotspot fractions must be decimal numbers")?,
                }),
                _ => return Err(arity_error("3 arguments: hotspot(load,node,fraction)")),
            },
            "transpose" => match args[..] {
                [l] => DemandSpec::Pattern(TrafficPattern::Transpose {
                    load: arg(l, input, LOAD)?,
                }),
                _ => return Err(arity_error("1 argument: transpose(load)")),
            },
            "bitrev" => match args[..] {
                [l] => DemandSpec::Pattern(TrafficPattern::BitReversal {
                    load: arg(l, input, LOAD)?,
                }),
                _ => return Err(arity_error("1 argument: bitrev(load)")),
            },
            "poisson" => match args[..] {
                [r] => DemandSpec::Poisson {
                    rate: arg(r, input, RATE)?,
                    dst: None,
                },
                [r, d] => DemandSpec::Poisson {
                    rate: arg(r, input, RATE)?,
                    dst: Some(arg(d, input, INDEX)?),
                },
                _ => return Err(arity_error("1 or 2 arguments: poisson(rate[,dst])")),
            },
            "onoff" => match args[..] {
                [r, burst, idle] => DemandSpec::OnOff {
                    rate: arg(r, input, RATE)?,
                    burst_len: arg(burst, input, SLOTS)?,
                    idle_len: arg(idle, input, SLOTS)?,
                },
                _ => return Err(arity_error("3 arguments: onoff(rate,burst_len,idle_len)")),
            },
            "mix" => match args[..] {
                [frac, elephant, mice] => DemandSpec::Mix {
                    fraction: arg(frac, input, "mix fractions must be decimal numbers")?,
                    elephant_rate: arg(elephant, input, RATE)?,
                    mice_rate: arg(mice, input, RATE)?,
                },
                _ => {
                    return Err(arity_error(
                        "3 arguments: mix(fraction,elephant_rate,mice_rate)",
                    ))
                }
            },
            // The whole argument text is the path; validate() refuses the
            // characters that would break the round trip.
            "trace" => DemandSpec::Trace {
                path: inner.to_string(),
                offered_load: None,
            },
            _ => {
                return Err(TrafficError::UnknownPattern {
                    input: input.to_string(),
                    pattern,
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

    fn pattern(pattern: TrafficPattern) -> DemandSpec {
        DemandSpec::Pattern(pattern)
    }

    #[test]
    fn parses_every_pattern() {
        let cases = [
            (
                "uniform(0.3)",
                pattern(TrafficPattern::Uniform { load: 0.3 }),
            ),
            (
                "perm(0.5,7)",
                pattern(TrafficPattern::Permutation {
                    load: 0.5,
                    offset: 7,
                }),
            ),
            (
                "hotspot(0.4,0,0.2)",
                pattern(TrafficPattern::Hotspot {
                    load: 0.4,
                    hot_node: 0,
                    hot_fraction: 0.2,
                }),
            ),
            (
                "transpose(0.5)",
                pattern(TrafficPattern::Transpose { load: 0.5 }),
            ),
            (
                "bitrev(0.5)",
                pattern(TrafficPattern::BitReversal { load: 0.5 }),
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(text.parse::<DemandSpec>().unwrap(), expected, "{text}");
            assert_eq!(expected.to_string(), text);
            assert_eq!(
                expected.to_string().parse::<DemandSpec>().unwrap(),
                expected
            );
        }
    }

    #[test]
    fn tolerant_syntax() {
        assert_eq!(
            "  HOTSPOT( 0.4 , 0 , 0.2 )  "
                .parse::<DemandSpec>()
                .unwrap(),
            pattern(TrafficPattern::Hotspot {
                load: 0.4,
                hot_node: 0,
                hot_fraction: 0.2,
            })
        );
        assert_eq!(
            "Uniform(1)".parse::<DemandSpec>().unwrap(),
            pattern(TrafficPattern::Uniform { load: 1.0 })
        );
    }

    #[test]
    fn rejects_malformed_input() {
        for bad in [
            "uniform",
            "uniform(",
            "uniform 0.3",
            "uniform(0.3,1)",
            "perm(0.3)",
            "hotspot(0.3,0)",
            "gravity(0.3)",
            "perm(0.3,x)",
            "uniform(zero)",
        ] {
            assert!(bad.parse::<DemandSpec>().is_err(), "{bad} should not parse");
        }
    }

    #[test]
    fn rejects_out_of_range_values_with_typed_errors() {
        // NaN, negative and above-1 loads are refused at parse time — the
        // injection machinery never sees them.
        for bad in [
            "uniform(NaN)",
            "uniform(-0.1)",
            "uniform(1.5)",
            "perm(inf,2)",
        ] {
            let err = bad.parse::<DemandSpec>().unwrap_err();
            assert!(
                matches!(err, TrafficError::LoadOutOfRange { .. }),
                "{bad}: {err}"
            );
        }
        let err = "hotspot(0.3,0,1.2)".parse::<DemandSpec>().unwrap_err();
        assert!(matches!(err, TrafficError::HotFractionOutOfRange { .. }));
        let err = "hotspot(0.3,0,NaN)".parse::<DemandSpec>().unwrap_err();
        assert!(matches!(err, TrafficError::HotFractionOutOfRange { .. }));
        // validate() re-checks directly-constructed values.
        assert!(pattern(TrafficPattern::Uniform { load: f64::NAN })
            .validate()
            .is_err());
        assert!(pattern(TrafficPattern::Hotspot {
            load: 0.5,
            hot_node: 0,
            hot_fraction: -1.0
        })
        .validate()
        .is_err());
        assert!(pattern(TrafficPattern::Uniform { load: 0.5 })
            .validate()
            .is_ok());
    }

    #[test]
    fn bind_checks_topology_preconditions() {
        // Transpose needs a square processor count.
        let transpose = pattern(TrafficPattern::Transpose { load: 0.5 });
        assert!(transpose.bind(16).is_ok());
        let err = transpose.bind(24).unwrap_err();
        assert!(
            matches!(err, TrafficError::NotSquare { nodes: 24, .. }),
            "{err}"
        );
        // Bit-reversal needs a power of two.
        let bitrev = pattern(TrafficPattern::BitReversal { load: 0.5 });
        assert!(bitrev.bind(32).is_ok());
        let err = bitrev.bind(24).unwrap_err();
        assert!(
            matches!(err, TrafficError::NotPowerOfTwo { nodes: 24, .. }),
            "{err}"
        );
        // The hot node must exist.
        let hotspot = pattern(TrafficPattern::Hotspot {
            load: 0.4,
            hot_node: 24,
            hot_fraction: 0.2,
        });
        let err = hotspot.bind(24).unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::HotNodeOutOfRange {
                    hot_node: 24,
                    nodes: 24,
                    ..
                }
            ),
            "{err}"
        );
        assert!(hotspot.bind(25).is_ok());
        // Unconstrained patterns bind anywhere.
        assert!(pattern(TrafficPattern::Uniform { load: 0.2 })
            .bind(7)
            .is_ok());
        assert!(pattern(TrafficPattern::Permutation {
            load: 0.2,
            offset: 3
        })
        .bind(7)
        .is_ok());
    }

    #[test]
    fn bound_patterns_match_their_spec() {
        let spec: DemandSpec = "perm(0.5,7)".parse().unwrap();
        assert_eq!(
            spec.bind(10).unwrap(),
            pattern(TrafficPattern::Permutation {
                load: 0.5,
                offset: 7
            })
        );
        assert_eq!(spec.offered_load(), 0.5);
        // effective_load delegates to the pattern's fixed-point accounting.
        let degenerate: DemandSpec = "perm(0.5,10)".parse().unwrap();
        assert_eq!(degenerate.effective_load(10), 0.0);
    }

    #[test]
    fn parses_every_demand_process() {
        let cases = [
            (
                "poisson(0.3)",
                DemandSpec::Poisson {
                    rate: 0.3,
                    dst: None,
                },
            ),
            (
                "poisson(1.5,5)",
                DemandSpec::Poisson {
                    rate: 1.5,
                    dst: Some(5),
                },
            ),
            (
                "onoff(0.8,5,15)",
                DemandSpec::OnOff {
                    rate: 0.8,
                    burst_len: 5,
                    idle_len: 15,
                },
            ),
            (
                "mix(0.25,2,0.05)",
                DemandSpec::Mix {
                    fraction: 0.25,
                    elephant_rate: 2.0,
                    mice_rate: 0.05,
                },
            ),
            (
                "trace(examples/demand.trc)",
                DemandSpec::Trace {
                    path: "examples/demand.trc".into(),
                    offered_load: None,
                },
            ),
        ];
        for (text, expected) in cases {
            assert_eq!(text.parse::<DemandSpec>().unwrap(), expected, "{text}");
            assert_eq!(expected.to_string(), text);
            assert!(expected.validate().is_ok(), "{text}");
        }
    }

    #[test]
    fn rejects_bad_rates_and_bursts_with_typed_errors() {
        for bad in [
            "poisson(NaN)",
            "poisson(-0.3)",
            "onoff(inf,2,2)",
            "mix(0.2,0.5,-1)",
        ] {
            let err = bad.parse::<DemandSpec>().unwrap_err();
            assert!(
                matches!(err, TrafficError::RateOutOfRange { .. }),
                "{bad}: {err}"
            );
        }
        // Rates above 1 are fine — they are arrival rates, not
        // probabilities.
        assert!("poisson(3.5)".parse::<DemandSpec>().is_ok());
        let err = "onoff(0.5,0,10)".parse::<DemandSpec>().unwrap_err();
        assert!(matches!(err, TrafficError::ZeroBurst { .. }), "{err}");
        // The cycle, burst plus idle, must fit in a u64.
        for bad in [
            "onoff(0.3,1,18446744073709551615)",
            "onoff(0.3,18446744073709551615,1)",
            "onoff(0.3,2,18446744073709551614)",
        ] {
            let err = bad.parse::<DemandSpec>().unwrap_err();
            assert!(
                matches!(err, TrafficError::CycleOverflow { .. }),
                "{bad}: {err}"
            );
            assert!(err.to_string().contains("too long"), "{err}");
        }
        assert!("onoff(0.3,1,18446744073709551614)"
            .parse::<DemandSpec>()
            .is_ok());
        assert!("onoff(0.3,18446744073709551615,0)"
            .parse::<DemandSpec>()
            .is_ok());
        let err = "mix(1.5,1,0.1)".parse::<DemandSpec>().unwrap_err();
        assert!(
            matches!(err, TrafficError::MixFractionOutOfRange { .. }),
            "{err}"
        );
        for bad in ["trace()", "poisson(0.3,1,2)", "onoff(0.5,2)", "mix(0.2)"] {
            assert!(bad.parse::<DemandSpec>().is_err(), "{bad}");
        }
        // validate() re-checks directly-constructed values.
        assert!(DemandSpec::Poisson {
            rate: f64::NAN,
            dst: None
        }
        .validate()
        .is_err());
        assert!(DemandSpec::OnOff {
            rate: 0.5,
            burst_len: 0,
            idle_len: 3
        }
        .validate()
        .is_err());
        // bind() begins with validate(), so a hand-built overflowing cycle
        // is refused before it reaches a generator.
        let overflowing = DemandSpec::OnOff {
            rate: 0.3,
            burst_len: 1,
            idle_len: u64::MAX,
        };
        assert!(matches!(
            overflowing.bind(8),
            Err(TrafficError::CycleOverflow { .. })
        ));
    }

    #[test]
    fn malformed_trace_paths_are_syntax_errors() {
        // Parsed: an empty path, and paths whose parentheses or commas
        // would mis-split a comma-separated workload list.
        for bad in [
            "trace()",
            "trace(  )",
            "trace(a)b)",
            "trace(a(b)",
            "trace(a,b)",
        ] {
            let err = bad.parse::<DemandSpec>().unwrap_err();
            assert!(matches!(err, TrafficError::Syntax { .. }), "{bad}: {err}");
        }
        // Built by hand: the same paths, plus surrounding whitespace,
        // whose rendering would not parse back to the value.
        for path in ["", "a,b", "a(b", "a)b", " a", "a "] {
            let spec = DemandSpec::Trace {
                path: path.into(),
                offered_load: None,
            };
            let err = spec.validate().unwrap_err();
            assert!(
                matches!(err, TrafficError::Syntax { .. }),
                "{path:?}: {err}"
            );
            assert!(spec.bind(4).is_err(), "{path:?}");
        }
    }

    #[test]
    fn poisson_destination_is_checked_at_bind_time() {
        let spec: DemandSpec = "poisson(0.3,8)".parse().unwrap();
        assert!(spec.bind(9).is_ok());
        let err = spec.bind(8).unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::DestinationOutOfRange {
                    node: 8,
                    nodes: 8,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn trace_bind_validates_the_file() {
        let dir = std::env::temp_dir();
        let good = dir.join("otis_traffic_spec_good.trc");
        std::fs::write(&good, "0 0 1\n2 1 0\n").unwrap();
        let spec = DemandSpec::Trace {
            path: good.to_str().unwrap().into(),
            offered_load: None,
        };
        assert!(spec.is_trace());
        assert_eq!(
            spec.bind(4).unwrap(),
            DemandSpec::Trace {
                path: good.to_str().unwrap().into(),
                // 2 events over slots 0..=2 on 4 nodes.
                offered_load: Some(2.0 / 12.0),
            }
        );
        // Node ids are validated against the bound network size.
        let err = spec.bind(1).unwrap_err();
        assert!(
            matches!(
                err,
                TrafficError::Trace {
                    error: TraceError::NodeOutOfRange { line: 1, .. },
                    ..
                }
            ),
            "{err}"
        );
        // A missing file is a typed I/O refusal, not a panic.
        let missing: DemandSpec = "trace(/nonexistent/demand.trc)".parse().unwrap();
        let err = missing.bind(4).unwrap_err();
        assert!(matches!(err, TrafficError::TraceIo { .. }), "{err}");
        std::fs::remove_file(&good).ok();
    }

    #[test]
    fn error_displays_are_informative() {
        let err = "gravity(0.3)".parse::<DemandSpec>().unwrap_err();
        assert!(err.to_string().contains("gravity"));
        assert!(err.to_string().contains("supported"));
        let err = "uniform(2)".parse::<DemandSpec>().unwrap_err();
        assert!(err.to_string().contains("[0, 1]"));
        let err = pattern(TrafficPattern::Transpose { load: 0.5 })
            .bind(24)
            .unwrap_err();
        assert!(err.to_string().contains("square"));
        let err = pattern(TrafficPattern::BitReversal { load: 0.5 })
            .bind(24)
            .unwrap_err();
        assert!(err.to_string().contains("power-of-two"));
    }
}
