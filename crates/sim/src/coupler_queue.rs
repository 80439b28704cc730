//! Per-coupler queues of the queued multi-OPS discipline.
//!
//! Under overload a coupler's queue grows for the whole run, so a grant
//! must not cost O(queue length).  Each coupler holds a binary min-heap of
//! packed `u64` entries, `(seq << 32) | handle`, where `seq` is a per-run
//! insertion counter: it orders entries exactly as their positions in an
//! insertion-ordered queue would.  The heap is ordered by the oldest-first
//! key `(injected_at, holder, seq)`, read from the caller's message columns
//! through a key function; neither column changes while a message is
//! queued.  Ties therefore resolve as [`oldest`], the one grant rule of
//! the kernel, resolves them over the insertion-ordered queue, and a grant
//! is one O(log q) pop.
//!
//! `seq` has 32 bits.  When the counter reaches 2³², the live entries of
//! every coupler are renumbered by rank, which keeps their relative order
//! and hence the heap shape.

/// The grant rule of a coupler: the position, among `contenders` in
/// insertion order, of the message with the least `(injected_at, holder)`
/// under `key`, the first of equal minima; `None` when there are none.
/// The bufferless discipline applies it to each slot's contender list;
/// [`CouplerQueues::grant`] pops the same message from a heap.
#[inline]
pub(crate) fn oldest<K: Fn(u32) -> (u64, usize)>(contenders: &[u32], key: K) -> Option<usize> {
    contenders
        .iter()
        .enumerate()
        .min_by_key(|&(_, &h)| key(h))
        .map(|(i, _)| i)
}

/// The first insertion sequence number that no longer fits an entry.
const SEQ_LIMIT: u64 = 1 << 32;

#[inline]
fn pack(seq: u64, handle: u32) -> u64 {
    debug_assert!(seq < SEQ_LIMIT);
    (seq << 32) | u64::from(handle)
}

#[inline]
fn handle_of(entry: u64) -> u32 {
    entry as u32
}

/// The heap order of `entry`: oldest injection first, then lowest holder,
/// then insertion order (the entry's high bits).
#[inline]
fn rank<K: Fn(u32) -> (u64, usize)>(entry: u64, key: &K) -> (u64, usize, u64) {
    let (injected_at, holder) = key(handle_of(entry));
    (injected_at, holder, entry)
}

fn sift_up<K: Fn(u32) -> (u64, usize)>(heap: &mut [u64], mut i: usize, key: &K) {
    let entry = heap[i];
    let r = rank(entry, key);
    while i > 0 {
        let parent = (i - 1) / 2;
        if rank(heap[parent], key) < r {
            break;
        }
        heap[i] = heap[parent];
        i = parent;
    }
    heap[i] = entry;
}

fn sift_down<K: Fn(u32) -> (u64, usize)>(heap: &mut [u64], mut i: usize, key: &K) {
    let entry = heap[i];
    let r = rank(entry, key);
    loop {
        let left = 2 * i + 1;
        if left >= heap.len() {
            break;
        }
        let mut child = left;
        let mut child_rank = rank(heap[left], key);
        if left + 1 < heap.len() {
            let right_rank = rank(heap[left + 1], key);
            if right_rank < child_rank {
                child = left + 1;
                child_rank = right_rank;
            }
        }
        if r < child_rank {
            break;
        }
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = entry;
}

/// Removes and returns the heap's least entry, `None` when it is empty.
fn pop<K: Fn(u32) -> (u64, usize)>(heap: &mut Vec<u64>, key: &K) -> Option<u64> {
    let last = heap.pop()?;
    if heap.is_empty() {
        return Some(last);
    }
    let least = std::mem::replace(&mut heap[0], last);
    sift_down(heap, 0, key);
    Some(least)
}

/// The queues of every coupler of one run, plus the run's insertion counter.
///
/// Every method that reorders entries takes the key function
/// `handle → (injected_at, holder)`.  It must return the same value for a
/// handle for as long as the handle is queued.
#[derive(Debug, Default)]
pub(crate) struct CouplerQueues {
    heaps: Vec<Vec<u64>>,
    next_seq: u64,
}

impl CouplerQueues {
    /// Resets to `couplers` empty queues and restarts the insertion counter,
    /// keeping the allocations of the queues that survive.
    pub(crate) fn begin_run(&mut self, couplers: usize) {
        self.heaps.truncate(couplers);
        for heap in &mut self.heaps {
            heap.clear();
        }
        self.heaps.resize_with(couplers, Vec::new);
        self.next_seq = 0;
    }

    /// Messages queued at all couplers.
    pub(crate) fn total_len(&self) -> u64 {
        self.heaps.iter().map(|h| h.len() as u64).sum()
    }

    /// Queues `handle` at the back of `coupler`'s insertion order.
    #[inline]
    pub(crate) fn push<K: Fn(u32) -> (u64, usize)>(&mut self, coupler: usize, handle: u32, key: K) {
        if self.next_seq == SEQ_LIMIT {
            self.renumber();
        }
        let heap = &mut self.heaps[coupler];
        heap.push(pack(self.next_seq, handle));
        self.next_seq += 1;
        let last = heap.len() - 1;
        sift_up(heap, last, &key);
    }

    /// Removes and returns the handle `coupler` grants this slot: the
    /// oldest by `(injected_at, holder)`, the first in insertion order
    /// among equals.  `None` when the queue is empty.
    #[inline]
    pub(crate) fn grant<K: Fn(u32) -> (u64, usize)>(
        &mut self,
        coupler: usize,
        key: K,
    ) -> Option<u32> {
        pop(&mut self.heaps[coupler], &key).map(handle_of)
    }

    /// Empties every queue into `out`, couplers in ascending order and each
    /// in insertion order, then restarts the insertion counter.
    pub(crate) fn drain_into(&mut self, out: &mut Vec<u32>) {
        for heap in &mut self.heaps {
            // Entries are unique and ordered by their `seq` high bits.
            heap.sort_unstable();
            out.extend(heap.drain(..).map(handle_of));
        }
        self.next_seq = 0;
    }

    /// Renumbers each coupler's entries `0..len` in insertion order.  The
    /// order among a coupler's entries is unchanged, so each heap stays
    /// valid in place; the counter resumes past the longest queue.
    fn renumber(&mut self) {
        let mut next = 0;
        for heap in &mut self.heaps {
            let mut sorted = heap.clone();
            sorted.sort_unstable();
            for entry in heap.iter_mut() {
                let seq = sorted.binary_search(entry).expect("entry of this heap");
                *entry = pack(seq as u64, handle_of(*entry));
            }
            next = next.max(heap.len() as u64);
        }
        self.next_seq = next;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn empty_candidates() {
        assert_eq!(oldest(&[], |h| (u64::from(h), 0)), None);
    }

    #[test]
    fn oldest_first_prefers_smallest_creation_slot() {
        // (holder, injected_at) of handles 0, 1, 2.
        let flights = [(3usize, 10u64), (7, 4), (1, 9)];
        let key = |h: u32| (flights[h as usize].1, flights[h as usize].0);
        assert_eq!(oldest(&[0, 1, 2], key), Some(1));
        // Equal ages: the lower holder wins, then the earlier contender.
        let tied = [(5usize, 4u64), (2, 4), (2, 4)];
        let key = |h: u32| (tied[h as usize].1, tied[h as usize].0);
        assert_eq!(oldest(&[0, 1, 2], key), Some(1));
        assert_eq!(oldest(&[2, 1, 0], key), Some(0));
    }

    /// Drives `CouplerQueues` and the executable spec — insertion-ordered
    /// `Vec`s granted by [`oldest`] plus `Vec::remove` — through the same seeded sequence of pushes, grants
    /// and drains, and asserts they agree at every step.  Keys come from
    /// tiny ranges so `injected_at` and `holder` ties are the common case;
    /// released handles are reused, as the message arena reuses them.
    fn assert_matches_oldest(seed: u64, first_seq: u64, steps: usize) {
        const COUPLERS: usize = 3;
        let mut ops = StdRng::seed_from_u64(seed);
        let mut injected_at: Vec<u64> = Vec::new();
        let mut holder: Vec<usize> = Vec::new();
        let mut free: Vec<u32> = Vec::new();
        let mut spec: Vec<Vec<u32>> = vec![Vec::new(); COUPLERS];
        let mut queues = CouplerQueues::default();
        queues.begin_run(COUPLERS);
        queues.next_seq = first_seq;
        let mut grants = 0;
        for step in 0..steps {
            let coupler = ops.gen_range(0..COUPLERS);
            match ops.gen_range(0..16) {
                0..=8 => {
                    let handle = free.pop().unwrap_or_else(|| {
                        injected_at.push(0);
                        holder.push(0);
                        (injected_at.len() - 1) as u32
                    });
                    injected_at[handle as usize] = ops.gen_range(0..4) as u64;
                    holder[handle as usize] = ops.gen_range(0..3);
                    let key = |h: u32| (injected_at[h as usize], holder[h as usize]);
                    queues.push(coupler, handle, key);
                    spec[coupler].push(handle);
                }
                9..=14 => {
                    let key = |h: u32| (injected_at[h as usize], holder[h as usize]);
                    let expected = oldest(&spec[coupler], key).map(|i| spec[coupler].remove(i));
                    let got = queues.grant(coupler, key);
                    assert_eq!(got, expected, "seed {seed} step {step}");
                    if let Some(handle) = got {
                        free.push(handle);
                        grants += 1;
                    }
                }
                _ => {
                    // A kernel swap: drain everything, then re-queue each
                    // handle (at a fresh coupler) in drain order.
                    let mut drained = Vec::new();
                    queues.drain_into(&mut drained);
                    let expected: Vec<u32> = spec.iter_mut().flat_map(|q| q.drain(..)).collect();
                    assert_eq!(drained, expected, "seed {seed} step {step}");
                    for handle in drained {
                        let to = ops.gen_range(0..COUPLERS);
                        let key = |h: u32| (injected_at[h as usize], holder[h as usize]);
                        queues.push(to, handle, key);
                        spec[to].push(handle);
                    }
                }
            }
            for (heap, q) in queues.heaps.iter().zip(&spec) {
                assert_eq!(heap.len(), q.len());
            }
        }
        assert!(grants > steps / 4, "the sequence must exercise grants");
    }

    #[test]
    fn grants_and_drains_exactly_as_oldest_over_a_vec() {
        for seed in 0..8 {
            assert_matches_oldest(seed, 0, 3000);
        }
    }

    #[test]
    fn insertion_counter_renumbers_instead_of_wrapping() {
        // Start five pushes short of 2³²: unless a drain restarts the
        // counter first, the sequence crosses the limit with live entries
        // in every queue and must still match the spec.
        for seed in 0..4 {
            assert_matches_oldest(seed, SEQ_LIMIT - 5, 2000);
        }
        let mut queues = CouplerQueues::default();
        queues.begin_run(2);
        queues.next_seq = SEQ_LIMIT - 2;
        let key = |h: u32| (0u64, h as usize % 2);
        for handle in 0..6 {
            queues.push((handle % 2) as usize, handle, key);
        }
        // Renumbered once, at the third push: one entry per coupler, so
        // both became seq 0 and the counter resumed at 1.
        assert_eq!(queues.next_seq, 5);
        assert!(queues.heaps.iter().flatten().all(|&e| e >> 32 < 5));
        let mut drained = Vec::new();
        queues.drain_into(&mut drained);
        assert_eq!(drained, vec![0, 2, 4, 1, 3, 5]);
    }

    #[test]
    fn oldest_first_pops_in_key_then_insertion_order() {
        let injected_at = [5u64, 3, 3, 5, 3];
        let holder = [1usize, 2, 0, 0, 2];
        let key = |h: u32| (injected_at[h as usize], holder[h as usize]);
        let mut queues = CouplerQueues::default();
        queues.begin_run(1);
        for handle in 0..5 {
            queues.push(0, handle, key);
        }
        let order: Vec<u32> = std::iter::from_fn(|| queues.grant(0, key)).collect();
        assert_eq!(order, vec![2, 1, 4, 3, 0]);
        assert_eq!(queues.total_len(), 0);
    }
}
