//! Traffic generators.
//!
//! Each pattern answers one question per processor per slot: "does this
//! processor inject a new message this slot, and to whom?".  Loads are
//! expressed as the per-processor injection probability per slot, so a load
//! of 1.0 means every processor tries to inject every slot.
//!
//! Probabilities are saturated defensively: a `NaN` load or fraction behaves
//! as `0.0`, anything outside `[0, 1]` is clamped.  The typed front door —
//! the workload grammar of [`crate::workload`] — rejects such values before
//! a run; the saturation here only guards direct construction.  A pattern's
//! `Display` is its spelling in that grammar (`"perm(0.5,7)"`).
//!
//! A pattern may *drop* some of its nominal injections because the rule maps
//! a source onto itself (a permutation fixed point): those slots inject
//! nothing.  [`TrafficPattern::offered_load`] reports the nominal load;
//! [`TrafficPattern::effective_load`] reports what actually enters an
//! `n`-processor network once fixed points are accounted for.

use rand::Rng;
use std::fmt;

/// A synthetic workload.
#[derive(Debug, Clone, PartialEq)]
pub enum TrafficPattern {
    /// Every processor injects with probability `load` per slot, destination
    /// chosen uniformly among the other processors.
    Uniform {
        /// Injection probability per processor per slot, in `[0, 1]`.
        load: f64,
    },
    /// Every processor injects with probability `load`, always to the fixed
    /// destination `(source + offset) mod N` — a static permutation.  When
    /// `offset % N == 0` every pair is a fixed point and nothing is injected
    /// ([`TrafficPattern::effective_load`] is `0`).
    Permutation {
        /// Injection probability per processor per slot.
        load: f64,
        /// The shift of the permutation.
        offset: usize,
    },
    /// Like `Uniform`, but skewed towards the single `hot_node`.
    ///
    /// Exact semantics, pinned by test: a source `src != hot_node` that
    /// injects sends to `hot_node` with probability `hot_fraction` and
    /// uniformly to a random *other* processor (which may again be
    /// `hot_node`) with probability `1 − hot_fraction` — so its per-message
    /// probability of hitting the hot spot is
    /// `hot_fraction + (1 − hot_fraction) / (N − 1)`.  The hot node itself
    /// has no valid hot destination; all of its traffic is uniform over the
    /// other processors.  A `hot_node >= N` is out of range and degrades to
    /// plain uniform traffic ([`crate::DemandSpec::bind`] refuses it
    /// instead).
    Hotspot {
        /// Injection probability per processor per slot.
        load: f64,
        /// The hot destination.
        hot_node: usize,
        /// Probability that a non-hot source's message targets `hot_node`,
        /// in `[0, 1]`.
        hot_fraction: f64,
    },
    /// Matrix-transpose traffic on a square processor grid: `N = m²` and
    /// processor `(i, j)` (= `i·m + j`) sends to `(j, i)`.  The `m` diagonal
    /// processors are fixed points and inject nothing.  If `N` is not a
    /// perfect square the pattern is undefined and injects nothing
    /// ([`crate::DemandSpec::bind`] refuses such networks).
    Transpose {
        /// Injection probability per processor per slot.
        load: f64,
    },
    /// Bit-reversal traffic on a power-of-two network: `N = 2^b` and each
    /// source sends to the reversal of its `b`-bit address.  Palindromic
    /// addresses are fixed points and inject nothing.  If `N` is not a power
    /// of two the pattern is undefined and injects nothing
    /// ([`crate::DemandSpec::bind`] refuses such networks).
    BitReversal {
        /// Injection probability per processor per slot.
        load: f64,
    },
}

impl TrafficPattern {
    /// The injection decisions of one slot: for every processor, an optional
    /// destination.  Fills the caller's buffer instead of allocating, so
    /// slot loops can reuse one buffer for the whole run.  The pattern is
    /// matched once per slot; each processor then takes one injection draw
    /// (two for a hotspot source that injects) and, for a uniform
    /// destination, one more.  A network of fewer than two processors, a
    /// non-square transpose and a non-power-of-two bit-reversal draw
    /// nothing.
    pub fn injections_into<R: Rng>(&self, n: usize, rng: &mut R, out: &mut Vec<Option<usize>>) {
        out.clear();
        if n < 2 {
            out.resize(n, None);
            return;
        }
        // A source that maps onto itself still takes its draw, then sends
        // nothing.
        let moved = |src: usize, dst: usize| (dst != src).then_some(dst);
        match *self {
            TrafficPattern::Uniform { load } => {
                let inject = Chance::new(saturate(load));
                out.extend((0..n).map(|src| inject.uniform(src, n, rng)));
            }
            TrafficPattern::Permutation { load, offset } => {
                let inject = Chance::new(saturate(load));
                let shift = offset % n;
                out.extend(
                    (0..n).map(|src| inject.sample(rng).then(|| moved(src, (src + shift) % n))?),
                );
            }
            TrafficPattern::Hotspot {
                load,
                hot_node,
                hot_fraction,
            } => {
                let (inject, hot) = (
                    Chance::new(saturate(load)),
                    Chance::new(saturate(hot_fraction)),
                );
                out.extend((0..n).map(|src| {
                    if !inject.sample(rng) {
                        None
                    } else if hot.sample(rng) && hot_node != src && hot_node < n {
                        Some(hot_node)
                    } else {
                        Some(random_other(src, n, rng))
                    }
                }));
            }
            TrafficPattern::Transpose { load } => {
                let Some(m) = square_side(n) else {
                    out.resize(n, None);
                    return;
                };
                let inject = Chance::new(saturate(load));
                out.extend((0..n).map(|src| {
                    inject
                        .sample(rng)
                        .then(|| moved(src, (src % m) * m + src / m))?
                }));
            }
            TrafficPattern::BitReversal { load } => {
                if !n.is_power_of_two() {
                    out.resize(n, None);
                    return;
                }
                let inject = Chance::new(saturate(load));
                let bits = n.trailing_zeros();
                out.extend((0..n).map(|src| {
                    inject
                        .sample(rng)
                        .then(|| moved(src, src.reverse_bits() >> (usize::BITS - bits)))?
                }));
            }
        }
    }

    /// The nominal offered load (messages per processor per slot), before
    /// any fixed-point drops — see [`TrafficPattern::effective_load`].
    pub fn offered_load(&self) -> f64 {
        match *self {
            TrafficPattern::Uniform { load }
            | TrafficPattern::Permutation { load, .. }
            | TrafficPattern::Hotspot { load, .. }
            | TrafficPattern::Transpose { load }
            | TrafficPattern::BitReversal { load } => load,
        }
    }

    /// The load that actually enters an `n`-processor network: the nominal
    /// load scaled by the fraction of processors that are *not* fixed points
    /// of the pattern (a fixed-point source drops every injection as
    /// self-traffic).  In particular a permutation with `offset % n == 0`
    /// offers nothing, transpose loses its `√n` diagonal processors, and
    /// bit-reversal loses its palindromic addresses.  Patterns undefined for
    /// `n` (non-square transpose, non-power-of-two bit-reversal) and
    /// networks with fewer than two processors offer `0`.
    pub fn effective_load(&self, n: usize) -> f64 {
        if n < 2 {
            return 0.0;
        }
        let load = saturate(self.offered_load());
        let movers = match *self {
            TrafficPattern::Uniform { .. } | TrafficPattern::Hotspot { .. } => n,
            TrafficPattern::Permutation { offset, .. } => {
                if offset % n == 0 {
                    0
                } else {
                    n
                }
            }
            TrafficPattern::Transpose { .. } => match square_side(n) {
                Some(m) => n - m,
                None => 0,
            },
            TrafficPattern::BitReversal { .. } => {
                if n.is_power_of_two() {
                    let bits = n.trailing_zeros();
                    n - (1usize << bits.div_ceil(2))
                } else {
                    0
                }
            }
        };
        load * movers as f64 / n as f64
    }
}

impl fmt::Display for TrafficPattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TrafficPattern::Uniform { load } => write!(f, "uniform({load})"),
            TrafficPattern::Permutation { load, offset } => write!(f, "perm({load},{offset})"),
            TrafficPattern::Hotspot {
                load,
                hot_node,
                hot_fraction,
            } => write!(f, "hotspot({load},{hot_node},{hot_fraction})"),
            TrafficPattern::Transpose { load } => write!(f, "transpose({load})"),
            TrafficPattern::BitReversal { load } => write!(f, "bitrev({load})"),
        }
    }
}

/// Clamps a probability into `[0, 1]`, mapping `NaN` to `0.0` (a bare
/// `f64::clamp` propagates `NaN`, which `rand` implementations may reject).
fn saturate(p: f64) -> f64 {
    if p.is_nan() {
        0.0
    } else {
        p.clamp(0.0, 1.0)
    }
}

/// `Some(m)` when `n == m²`, `None` otherwise.
fn square_side(n: usize) -> Option<usize> {
    let m = n.isqrt();
    (m * m == n).then_some(m)
}

/// A per-slot probability, fixed once and then drawn as one integer
/// compare.  [`Rng::gen_bool`] tests `(x >> 11) · 2^-53 < p` on one draw
/// `x`; both sides scale exactly by `2^53`, so for an integer `x >> 11`
/// the test is `(x >> 11) < ceil(p · 2^53)`, the same answer for the same
/// draw.  Like `gen_bool`, `p ≤ 0` and `p ≥ 1` decide without a draw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Chance {
    /// `p ≤ 0`: false, no draw.
    Never,
    /// `p ≥ 1`: true, no draw.
    Always,
    /// True when the draw's top 53 bits lie below the threshold.
    Below(u64),
}

impl Chance {
    pub(crate) fn new(p: f64) -> Self {
        if p >= 1.0 {
            Chance::Always
        } else if p <= 0.0 {
            Chance::Never
        } else {
            // At most 2^53, so exact; a NaN casts to 0 and, as in
            // `gen_bool`, draws and says false.
            Chance::Below((p * (1u64 << 53) as f64).ceil() as u64)
        }
    }

    /// One Bernoulli decision: `rng.gen_bool(p)`, draw for draw.
    #[inline(always)]
    pub(crate) fn sample<R: Rng>(self, rng: &mut R) -> bool {
        match self {
            Chance::Never => false,
            Chance::Always => true,
            Chance::Below(threshold) => rng.next_u64() >> 11 < threshold,
        }
    }

    /// A uniform injection from `src`: the decision, then, if it injects,
    /// a destination among the other `n − 1` processors.
    #[inline(always)]
    pub(crate) fn uniform<R: Rng>(self, src: usize, n: usize, rng: &mut R) -> Option<usize> {
        self.sample(rng).then(|| random_other(src, n, rng))
    }
}

/// Uniform destination among the other processors.  Every uniform draw of
/// the patterns and the demand processes goes through here, so they
/// consume identically shaped RNG streams.
pub(crate) fn random_other<R: Rng>(src: usize, n: usize, rng: &mut R) -> usize {
    let mut dst = rng.gen_range(0..n - 1);
    if dst >= src {
        dst += 1;
    }
    dst
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};

    /// One slot's decisions in a fresh buffer.
    fn slot(pattern: &TrafficPattern, n: usize, rng: &mut StdRng) -> Vec<Option<usize>> {
        let mut out = Vec::new();
        pattern.injections_into(n, rng, &mut out);
        out
    }

    #[test]
    fn chance_decides_as_gen_bool_draw_for_draw() {
        let tiny = 2f64.powi(-53);
        let mut probabilities = vec![tiny, 0.05, 0.2, 0.5, 0.9, 1.0 - tiny];
        let mut pick = StdRng::seed_from_u64(0xC0FFEE);
        probabilities.extend((0..20).map(|_| (pick.next_u64() >> 11) as f64 * tiny));
        // The cases that draw nothing.
        probabilities.extend([0.0, -0.5, 1.0, 3.0]);
        for (i, &p) in probabilities.iter().enumerate() {
            let chance = Chance::new(p);
            let mut a = StdRng::seed_from_u64(i as u64);
            let mut b = StdRng::seed_from_u64(i as u64);
            for draw in 0..10_000 {
                assert_eq!(chance.sample(&mut a), b.gen_bool(p), "p = {p}, draw {draw}");
            }
            assert_eq!(a.next_u64(), b.next_u64(), "p = {p}: same stream");
        }
        // The thresholds at both ends of the drawing range.
        let half = Chance::new(0.5);
        assert_eq!(half, Chance::Below(1 << 52));
        assert_eq!(Chance::new(tiny), Chance::Below(1));
        assert_eq!(Chance::new(1.0 - tiny), Chance::Below((1 << 53) - 1));
    }

    #[test]
    fn uniform_load_matches_probability() {
        let mut rng = StdRng::seed_from_u64(1);
        let pattern = TrafficPattern::Uniform { load: 0.3 };
        let n = 50;
        let slots = 2000;
        let mut injected = 0usize;
        for _ in 0..slots {
            injected += slot(&pattern, n, &mut rng).iter().flatten().count();
        }
        let rate = injected as f64 / (n as f64 * slots as f64);
        assert!((rate - 0.3).abs() < 0.02, "measured rate {rate}");
    }

    #[test]
    fn uniform_never_self_addresses() {
        let mut rng = StdRng::seed_from_u64(2);
        let pattern = TrafficPattern::Uniform { load: 1.0 };
        for _ in 0..200 {
            for (src, dst) in slot(&pattern, 10, &mut rng).iter().enumerate() {
                assert_ne!(Some(src), *dst);
            }
        }
    }

    #[test]
    fn permutation_is_deterministic_in_destination() {
        let mut rng = StdRng::seed_from_u64(3);
        let pattern = TrafficPattern::Permutation {
            load: 1.0,
            offset: 3,
        };
        for (src, dst) in slot(&pattern, 8, &mut rng).iter().enumerate() {
            assert_eq!(*dst, Some((src + 3) % 8));
        }
        // Offset 0 would self-address; the generator suppresses those.
        let degenerate = TrafficPattern::Permutation {
            load: 1.0,
            offset: 0,
        };
        assert!(slot(&degenerate, 8, &mut rng).iter().all(|d| d.is_none()));
    }

    #[test]
    fn effective_load_accounts_for_permutation_fixed_points() {
        // Regression: a degenerate permutation (offset % n == 0) drops every
        // injection as self-traffic; offered_load used to report `load`
        // anyway with nothing to qualify it.
        let degenerate = TrafficPattern::Permutation {
            load: 0.8,
            offset: 8,
        };
        assert_eq!(degenerate.offered_load(), 0.8);
        assert_eq!(degenerate.effective_load(8), 0.0);
        assert_eq!(degenerate.effective_load(4), 0.0);
        // A real shift moves every processor.
        let shifted = TrafficPattern::Permutation {
            load: 0.8,
            offset: 3,
        };
        assert_eq!(shifted.effective_load(8), 0.8);
        // Offsets wrap: offset 11 on 8 nodes is the same shift as 3.
        let mut rng = StdRng::seed_from_u64(17);
        let wrapped = TrafficPattern::Permutation {
            load: 1.0,
            offset: 11,
        };
        for (src, dst) in slot(&wrapped, 8, &mut rng).iter().enumerate() {
            assert_eq!(*dst, Some((src + 3) % 8));
        }
    }

    #[test]
    fn effective_load_matches_measured_rate_for_fixed_point_patterns() {
        let n = 16; // 4×4 grid and 2^4, so both patterns are defined.
        let slots = 4000;
        for pattern in [
            TrafficPattern::Transpose { load: 0.5 },
            TrafficPattern::BitReversal { load: 0.5 },
            TrafficPattern::Permutation {
                load: 0.5,
                offset: 16,
            },
        ] {
            let mut rng = StdRng::seed_from_u64(23);
            let mut injected = 0usize;
            for _ in 0..slots {
                injected += slot(&pattern, n, &mut rng).iter().flatten().count();
            }
            let rate = injected as f64 / (n as f64 * slots as f64);
            let predicted = pattern.effective_load(n);
            assert!(
                (rate - predicted).abs() < 0.02,
                "{pattern:?}: measured {rate}, predicted {predicted}"
            );
        }
    }

    #[test]
    fn nan_and_out_of_range_probabilities_saturate() {
        // f64::clamp propagates NaN, and real `rand` back-ends panic on a
        // NaN probability — the generators must never forward one.
        let mut rng = StdRng::seed_from_u64(7);
        for pattern in [
            TrafficPattern::Uniform { load: f64::NAN },
            TrafficPattern::Permutation {
                load: f64::NAN,
                offset: 1,
            },
            TrafficPattern::Hotspot {
                load: f64::NAN,
                hot_node: 0,
                hot_fraction: f64::NAN,
            },
            TrafficPattern::Transpose { load: f64::NAN },
            TrafficPattern::BitReversal { load: f64::NAN },
        ] {
            assert!(
                slot(&pattern, 16, &mut rng).iter().all(|d| d.is_none()),
                "{pattern:?} must inject nothing at NaN load"
            );
            assert_eq!(pattern.effective_load(16), 0.0, "{pattern:?}");
        }
        // Out-of-range loads clamp instead of panicking.
        let over = TrafficPattern::Uniform { load: 7.5 };
        assert!(slot(&over, 8, &mut rng).iter().all(|d| d.is_some()));
        let under = TrafficPattern::Uniform { load: -3.0 };
        assert!(slot(&under, 8, &mut rng).iter().all(|d| d.is_none()));
    }

    #[test]
    fn hotspot_skews_towards_hot_node() {
        let mut rng = StdRng::seed_from_u64(4);
        let pattern = TrafficPattern::Hotspot {
            load: 1.0,
            hot_node: 0,
            hot_fraction: 0.5,
        };
        let n = 20;
        let mut to_hot = 0usize;
        let mut total = 0usize;
        for _ in 0..500 {
            for dst in slot(&pattern, n, &mut rng).into_iter().flatten() {
                total += 1;
                if dst == 0 {
                    to_hot += 1;
                }
            }
        }
        let fraction = to_hot as f64 / total as f64;
        assert!(fraction > 0.4, "hot fraction {fraction}");
    }

    #[test]
    fn hotspot_semantics_are_exact_per_source() {
        // Pins the documented semantics: a non-hot source hits the hot node
        // with probability hot_fraction + (1 − hot_fraction)/(N − 1); the
        // hot node itself sends uniformly (its hot roll has no valid
        // destination and falls back to a random other processor).
        let (n, hot_fraction, slots) = (10usize, 0.3f64, 60_000usize);
        let pattern = TrafficPattern::Hotspot {
            load: 1.0,
            hot_node: 2,
            hot_fraction,
        };
        let mut rng = StdRng::seed_from_u64(29);
        let mut to_hot_from_cold = 0usize;
        let mut from_cold = 0usize;
        let mut hot_dst_counts = vec![0usize; n];
        for _ in 0..slots {
            for (src, dst) in slot(&pattern, n, &mut rng).iter().enumerate() {
                let dst = dst.expect("load 1.0 always injects on n >= 2");
                assert_ne!(dst, src, "no self-addressing");
                if src == 2 {
                    hot_dst_counts[dst] += 1;
                } else {
                    from_cold += 1;
                    if dst == 2 {
                        to_hot_from_cold += 1;
                    }
                }
            }
        }
        let expected = hot_fraction + (1.0 - hot_fraction) / (n as f64 - 1.0);
        let measured = to_hot_from_cold as f64 / from_cold as f64;
        assert!(
            (measured - expected).abs() < 0.01,
            "cold-source hot rate {measured}, expected {expected}"
        );
        // The hot node's own traffic is uniform over the other 9 processors.
        for (dst, &count) in hot_dst_counts.iter().enumerate() {
            if dst == 2 {
                assert_eq!(count, 0);
            } else {
                let rate = count as f64 / slots as f64;
                assert!(
                    (rate - 1.0 / (n as f64 - 1.0)).abs() < 0.02,
                    "hot-node traffic to {dst} at rate {rate} is not uniform"
                );
            }
        }
    }

    #[test]
    fn transpose_sends_across_the_diagonal() {
        let mut rng = StdRng::seed_from_u64(31);
        let pattern = TrafficPattern::Transpose { load: 1.0 };
        let m = 4;
        for (src, dst) in slot(&pattern, m * m, &mut rng).iter().enumerate() {
            let (i, j) = (src / m, src % m);
            if i == j {
                assert_eq!(*dst, None, "diagonal processor {src} is a fixed point");
            } else {
                assert_eq!(*dst, Some(j * m + i), "processor ({i},{j})");
            }
        }
        // Non-square networks are undefined: inject nothing, never panic.
        assert!(slot(&pattern, 12, &mut rng).iter().all(|d| d.is_none()));
        assert_eq!(pattern.effective_load(12), 0.0);
        assert!((pattern.effective_load(16) - 12.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn bit_reversal_reverses_addresses() {
        let mut rng = StdRng::seed_from_u64(37);
        let pattern = TrafficPattern::BitReversal { load: 1.0 };
        let n = 8; // 3-bit addresses.
        let expected = [None, Some(4), None, Some(6), Some(1), None, Some(3), None];
        for (src, dst) in slot(&pattern, n, &mut rng).iter().enumerate() {
            assert_eq!(*dst, expected[src], "source {src:03b}");
        }
        // 3-bit palindromes: 000, 010, 101, 111 → 4 fixed points of 8.
        assert!((pattern.effective_load(8) - 0.5).abs() < 1e-12);
        // Non-power-of-two networks are undefined: inject nothing.
        assert!(slot(&pattern, 12, &mut rng).iter().all(|d| d.is_none()));
        assert_eq!(pattern.effective_load(12), 0.0);
    }

    #[test]
    fn tiny_networks_inject_nothing() {
        let mut rng = StdRng::seed_from_u64(5);
        for pattern in [
            TrafficPattern::Uniform { load: 1.0 },
            TrafficPattern::Transpose { load: 1.0 },
            TrafficPattern::BitReversal { load: 1.0 },
        ] {
            assert!(slot(&pattern, 1, &mut rng).iter().all(|d| d.is_none()));
            assert!(slot(&pattern, 0, &mut rng).is_empty());
            assert_eq!(pattern.effective_load(1), 0.0);
        }
    }

    #[test]
    fn offered_load_accessor() {
        assert_eq!(TrafficPattern::Uniform { load: 0.7 }.offered_load(), 0.7);
        assert_eq!(
            TrafficPattern::Hotspot {
                load: 0.2,
                hot_node: 1,
                hot_fraction: 0.3
            }
            .offered_load(),
            0.2
        );
        assert_eq!(TrafficPattern::Transpose { load: 0.4 }.offered_load(), 0.4);
        assert_eq!(
            TrafficPattern::BitReversal { load: 0.9 }.offered_load(),
            0.9
        );
    }
}
