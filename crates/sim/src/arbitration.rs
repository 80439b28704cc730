//! Per-coupler arbitration policies.
//!
//! A single-wavelength OPS coupler carries one message per slot.  When
//! several processors of its tail have a message queued for it, an
//! arbitration policy decides which one transmits — the "distributed
//! control" aspect the POPS and stack-Kautz papers (refs [9], [11]) devote
//! considerable attention to.  The simulator treats the policy as a pluggable
//! rule over the set of competing (processor, message-age) pairs.

use rand::Rng;

/// Who gets the coupler this slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArbitrationPolicy {
    /// Rotating priority per coupler: the winner of the previous grant gets
    /// lowest priority next time (starvation-free TDMA-like behaviour).
    RoundRobin,
    /// The message that has been waiting longest (globally oldest) wins —
    /// an idealised age-based priority scheme.
    OldestFirst,
    /// A uniformly random competitor wins (models simple optical contention
    /// resolution).
    Random,
}

impl ArbitrationPolicy {
    /// Chooses a winner among `candidates`, each described by
    /// `(processor, message created slot)`.  `last_winner` is the processor
    /// that won the previous grant on this coupler, used by round-robin.
    /// Returns the index *within `candidates`* of the winner, or `None` when
    /// there are no candidates.
    pub fn pick<R: Rng>(
        &self,
        candidates: &[(usize, u64)],
        last_winner: Option<usize>,
        rng: &mut R,
    ) -> Option<usize> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            ArbitrationPolicy::Random => Some(rng.gen_range(0..candidates.len())),
            ArbitrationPolicy::OldestFirst => candidates
                .iter()
                .enumerate()
                .min_by_key(|(_, &(proc_id, created))| (created, proc_id))
                .map(|(i, _)| i),
            ArbitrationPolicy::RoundRobin => {
                let mut best: Option<(usize, usize)> = None; // (key, index)
                for (i, &(proc_id, _)) in candidates.iter().enumerate() {
                    let key = round_robin_key(proc_id, last_winner);
                    if best.is_none_or(|(bk, _)| key < bk) {
                        best = Some((key, i));
                    }
                }
                best.map(|(_, i)| i)
            }
        }
    }
}

/// Round-robin priority of `proc_id` after `last_winner` won (lower wins):
/// the lowest processor id strictly greater than `last_winner` comes first,
/// wrapping around when none is greater.
#[inline]
pub(crate) fn round_robin_key(proc_id: usize, last_winner: Option<usize>) -> usize {
    let pivot = last_winner.map(|w| w + 1).unwrap_or(0);
    if proc_id >= pivot {
        proc_id - pivot
    } else {
        proc_id + usize::MAX / 2 - pivot.min(usize::MAX / 2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn empty_candidates() {
        let mut rng = StdRng::seed_from_u64(0);
        for policy in [
            ArbitrationPolicy::RoundRobin,
            ArbitrationPolicy::OldestFirst,
            ArbitrationPolicy::Random,
        ] {
            assert_eq!(policy.pick(&[], None, &mut rng), None);
        }
    }

    #[test]
    fn oldest_first_prefers_smallest_creation_slot() {
        let mut rng = StdRng::seed_from_u64(0);
        let candidates = vec![(3, 10), (7, 4), (1, 9)];
        let winner = ArbitrationPolicy::OldestFirst
            .pick(&candidates, None, &mut rng)
            .unwrap();
        assert_eq!(winner, 1);
    }

    #[test]
    fn round_robin_rotates() {
        let mut rng = StdRng::seed_from_u64(0);
        let candidates = vec![(0, 5), (2, 5), (5, 5)];
        // No previous winner: lowest id wins.
        let w0 = ArbitrationPolicy::RoundRobin
            .pick(&candidates, None, &mut rng)
            .unwrap();
        assert_eq!(candidates[w0].0, 0);
        // Previous winner 0: the next id (2) wins.
        let w1 = ArbitrationPolicy::RoundRobin
            .pick(&candidates, Some(0), &mut rng)
            .unwrap();
        assert_eq!(candidates[w1].0, 2);
        // Previous winner 5 (the largest): wrap around to 0.
        let w2 = ArbitrationPolicy::RoundRobin
            .pick(&candidates, Some(5), &mut rng)
            .unwrap();
        assert_eq!(candidates[w2].0, 0);
    }

    #[test]
    fn random_is_always_a_valid_index() {
        let mut rng = StdRng::seed_from_u64(42);
        let candidates = vec![(0, 1), (1, 1), (2, 1), (3, 1)];
        for _ in 0..100 {
            let w = ArbitrationPolicy::Random
                .pick(&candidates, None, &mut rng)
                .unwrap();
            assert!(w < candidates.len());
        }
    }

    #[test]
    fn random_eventually_picks_everyone() {
        let mut rng = StdRng::seed_from_u64(9);
        let candidates = vec![(0, 1), (1, 1), (2, 1)];
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(
                ArbitrationPolicy::Random
                    .pick(&candidates, None, &mut rng)
                    .unwrap(),
            );
        }
        assert_eq!(seen.len(), 3);
    }
}
