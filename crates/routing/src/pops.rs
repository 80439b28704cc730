//! Single-hop communication on the POPS network.
//!
//! In `POPS(t, g)` every ordered pair of processors shares exactly one OPS
//! coupler — the coupler `(source group, destination group)` — so unicast is
//! trivial; what matters is *scheduling*: a single-wavelength coupler carries
//! one message per time slot, so collective operations must be organised into
//! slots with no two senders on the same coupler.  This module provides the
//! coupler-selection rule plus conflict-free slot schedules for one-to-all
//! broadcast and for arbitrary (partial) permutations, the primitives the
//! POPS literature (Chiarulli et al., ref \[9\]) builds its control protocols
//! on.

use otis_topologies::Pops;
use std::collections::HashSet;

/// A slotted transmission schedule: `slots[s]` lists the transmissions
/// `(source processor, destination processor, coupler)` that happen in slot
/// `s`; within a slot every coupler appears at most once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlotSchedule {
    /// The transmissions of each slot.
    pub slots: Vec<Vec<(usize, usize, usize)>>,
}

impl SlotSchedule {
    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Total number of scheduled transmissions.
    pub fn message_count(&self) -> usize {
        self.slots.iter().map(|s| s.len()).sum()
    }

    /// Checks the single-sender-per-coupler-per-slot constraint.
    pub fn is_conflict_free(&self) -> bool {
        for slot in &self.slots {
            let mut used = HashSet::new();
            for &(_, _, coupler) in slot {
                if !used.insert(coupler) {
                    return false;
                }
            }
        }
        true
    }
}

/// Routing and scheduling helper for one POPS instance.
#[derive(Debug, Clone)]
pub struct PopsRouter {
    pops: Pops,
}

impl PopsRouter {
    /// Creates a router for `POPS(t, g)`.
    pub fn new(pops: Pops) -> Self {
        PopsRouter { pops }
    }

    /// The POPS instance served.
    pub fn pops(&self) -> &Pops {
        &self.pops
    }

    /// The coupler a message from `src` to `dst` must use: coupler
    /// `(group(src), group(dst))`.
    pub fn unicast_coupler(&self, src: usize, dst: usize) -> usize {
        let (sg, _) = self.pops.processor_label(src);
        let (dg, _) = self.pops.processor_label(dst);
        self.pops.coupler_index(sg, dg)
    }

    /// One-to-all broadcast from `src`: the source transmits once on each of
    /// the `g` couplers of its group, all in the same slot (it owns `g`
    /// transmitters and the couplers are distinct), reaching every processor.
    /// Returns a single-slot schedule with one entry per destination group
    /// (destination field holds a representative processor of that group).
    pub fn broadcast_schedule(&self, src: usize) -> SlotSchedule {
        let (sg, _) = self.pops.processor_label(src);
        let g = self.pops.group_count();
        let t = self.pops.group_size();
        let mut slot = Vec::with_capacity(g);
        for dg in 0..g {
            let coupler = self.pops.coupler_index(sg, dg);
            let representative = dg * t; // first processor of the group
            slot.push((src, representative, coupler));
        }
        SlotSchedule { slots: vec![slot] }
    }

    /// Schedules an arbitrary set of unicast messages `(src, dst)` into slots
    /// such that no coupler is used twice in a slot (greedy first-fit).
    ///
    /// For a (partial) permutation — every processor sends at most one
    /// message and receives at most one — the number of slots needed is at
    /// most `⌈t/1⌉`-ish in the worst case (all `t` processors of a group
    /// sending into the same destination group serialise on one coupler); the
    /// greedy schedule is within one slot of the per-coupler load maximum,
    /// which tests verify.
    pub fn schedule_messages(&self, messages: &[(usize, usize)]) -> SlotSchedule {
        let mut slots: Vec<Vec<(usize, usize, usize)>> = Vec::new();
        let mut slot_couplers: Vec<HashSet<usize>> = Vec::new();
        for &(src, dst) in messages {
            let coupler = self.unicast_coupler(src, dst);
            // First slot where this coupler is still free.
            let mut placed = false;
            for (slot, used) in slots.iter_mut().zip(slot_couplers.iter_mut()) {
                if !used.contains(&coupler) {
                    slot.push((src, dst, coupler));
                    used.insert(coupler);
                    placed = true;
                    break;
                }
            }
            if !placed {
                slots.push(vec![(src, dst, coupler)]);
                let mut set = HashSet::new();
                set.insert(coupler);
                slot_couplers.push(set);
            }
        }
        SlotSchedule { slots }
    }

    /// The maximum number of messages any single coupler must carry for the
    /// given message set — a lower bound on the number of slots any schedule
    /// needs.
    pub fn coupler_load_bound(&self, messages: &[(usize, usize)]) -> usize {
        let mut load = vec![0usize; self.pops.coupler_count()];
        for &(src, dst) in messages {
            load[self.unicast_coupler(src, dst)] += 1;
        }
        load.into_iter().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unicast_coupler_is_the_group_pair() {
        let router = PopsRouter::new(Pops::new(4, 2));
        let p = router.pops();
        let src = p.processor(0, 2);
        let dst = p.processor(1, 3);
        assert_eq!(router.unicast_coupler(src, dst), p.coupler_index(0, 1));
        let same_group = p.processor(0, 0);
        assert_eq!(
            router.unicast_coupler(src, same_group),
            p.coupler_index(0, 0)
        );
    }

    #[test]
    fn broadcast_reaches_every_group_in_one_slot() {
        let router = PopsRouter::new(Pops::new(3, 4));
        let schedule = router.broadcast_schedule(5);
        assert_eq!(schedule.len(), 1);
        assert_eq!(schedule.message_count(), 4);
        assert!(schedule.is_conflict_free());
        // Every destination group appears once.
        let groups: HashSet<usize> = schedule.slots[0]
            .iter()
            .map(|&(_, dst, _)| router.pops().processor_label(dst).0)
            .collect();
        assert_eq!(groups.len(), 4);
    }

    #[test]
    fn permutation_schedule_is_conflict_free_and_near_optimal() {
        let router = PopsRouter::new(Pops::new(4, 2));
        let n = router.pops().node_count();
        // A full shift permutation: processor i sends to (i + 3) mod n.
        let messages: Vec<(usize, usize)> = (0..n).map(|i| (i, (i + 3) % n)).collect();
        let schedule = router.schedule_messages(&messages);
        assert!(schedule.is_conflict_free());
        assert_eq!(schedule.message_count(), n);
        let bound = router.coupler_load_bound(&messages);
        assert!(
            schedule.len() == bound,
            "greedy first-fit on a fixed coupler assignment is load-optimal: {} vs {}",
            schedule.len(),
            bound
        );
    }

    #[test]
    fn all_to_one_serialises_on_couplers() {
        // Every processor sends to processor 0: the g couplers (i, 0) each
        // carry t messages (t-1 for group 0 plus... well, up to t), so the
        // schedule needs exactly max-coupler-load slots.
        let router = PopsRouter::new(Pops::new(3, 3));
        let n = router.pops().node_count();
        let messages: Vec<(usize, usize)> = (1..n).map(|i| (i, 0)).collect();
        let schedule = router.schedule_messages(&messages);
        assert!(schedule.is_conflict_free());
        assert_eq!(schedule.len(), router.coupler_load_bound(&messages));
        assert_eq!(schedule.message_count(), n - 1);
    }

    #[test]
    fn empty_message_set() {
        let router = PopsRouter::new(Pops::new(2, 2));
        let schedule = router.schedule_messages(&[]);
        assert!(schedule.is_empty());
        assert_eq!(schedule.message_count(), 0);
        assert!(schedule.is_conflict_free());
        assert_eq!(router.coupler_load_bound(&[]), 0);
    }

    #[test]
    fn conflict_detection_works() {
        let bad = SlotSchedule {
            slots: vec![vec![(0, 1, 5), (2, 3, 5)]],
        };
        assert!(!bad.is_conflict_free());
    }
}
