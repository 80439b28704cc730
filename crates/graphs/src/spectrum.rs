//! Per-channel wavelength-occupancy maps backed by word-wide bitmasks.
//!
//! A multi-wavelength OPS coupler (or a WDM point-to-point link) carries up
//! to `W` messages per slot, one per wavelength.  The simulators track which
//! wavelengths of which channel are in use *within the current slot* with a
//! [`SpectrumMap`]: one bitmask per channel, `W` bits wide, packed into
//! `u64` words — the classic `fs_usage` boolean-array idiom of spectrum
//! assignment studies, but word-wide so clearing and searching are a handful
//! of machine operations instead of a per-wavelength loop.
//!
//! The map is allocation-free after construction: [`SpectrumMap::clear`]
//! resets every mask in place, so a slotted simulator can clear it at the
//! top of each slot without touching the allocator — the same per-slot
//! discipline as the prepared kernels' message buffers.

/// Wavelength occupancy of every channel (coupler or arc) of a network,
/// scoped to one time slot.  Bit `w` of channel `c`'s mask is set when
/// wavelength `w` on channel `c` is carrying a message this slot.
#[derive(Debug, Clone)]
pub struct SpectrumMap {
    wavelengths: usize,
    /// Words per channel: `ceil(wavelengths / 64)`.
    words: usize,
    /// The packed masks, `words` consecutive words per channel.
    bits: Vec<u64>,
    /// Cached per-channel occupancy count, so capacity checks are O(1).
    used: Vec<usize>,
}

impl SpectrumMap {
    /// A map over `channels` channels of `wavelengths` wavelengths each,
    /// all free.  `wavelengths` must be at least 1.
    pub fn new(channels: usize, wavelengths: usize) -> Self {
        assert!(
            wavelengths >= 1,
            "a channel carries at least one wavelength"
        );
        let words = wavelengths.div_ceil(64);
        SpectrumMap {
            wavelengths,
            words,
            bits: vec![0; channels * words],
            used: vec![0; channels],
        }
    }

    /// The `u64` words [`SpectrumMap::new`] allocates for `channels`
    /// channels of `wavelengths` wavelengths: `channels × ⌈wavelengths /
    /// 64⌉`, or `None` when that overflows `usize`.  Callers check it
    /// before building a map over a large network.
    pub fn word_count(channels: usize, wavelengths: usize) -> Option<usize> {
        channels.checked_mul(wavelengths.div_ceil(64))
    }

    /// Frees every wavelength of every channel, in place (no allocation) —
    /// called at the top of each simulated slot.
    pub fn clear(&mut self) {
        self.bits.fill(0);
        self.used.fill(0);
    }

    /// The word range of one channel's mask.
    fn span(&self, channel: usize) -> std::ops::Range<usize> {
        let start = channel * self.words;
        start..start + self.words
    }

    /// Whether wavelength `w` of `channel` is free.
    pub fn is_free(&self, channel: usize, w: usize) -> bool {
        debug_assert!(w < self.wavelengths);
        self.bits[channel * self.words + w / 64] & (1u64 << (w % 64)) == 0
    }

    /// Marks wavelength `w` of `channel` busy; returns `false` when it
    /// already was (and leaves the map unchanged).
    pub fn occupy(&mut self, channel: usize, w: usize) -> bool {
        debug_assert!(w < self.wavelengths);
        let word = channel * self.words + w / 64;
        let bit = 1u64 << (w % 64);
        if self.bits[word] & bit != 0 {
            return false;
        }
        self.bits[word] |= bit;
        self.used[channel] += 1;
        true
    }

    /// Frees wavelength `w` of `channel`; returns `false` when it already
    /// was free.
    pub fn release(&mut self, channel: usize, w: usize) -> bool {
        debug_assert!(w < self.wavelengths);
        let word = channel * self.words + w / 64;
        let bit = 1u64 << (w % 64);
        if self.bits[word] & bit == 0 {
            return false;
        }
        self.bits[word] &= !bit;
        self.used[channel] -= 1;
        true
    }

    /// Number of free wavelengths on `channel`.
    pub fn free_count(&self, channel: usize) -> usize {
        self.wavelengths - self.used[channel]
    }

    /// Whether every wavelength of `channel` is busy — the per-slot capacity
    /// check of the wavelength-mode slot loops.
    pub fn is_full(&self, channel: usize) -> bool {
        self.used[channel] == self.wavelengths
    }

    /// The lowest-indexed free wavelength of `channel` (first-fit
    /// assignment), or `None` when the channel is full.  A trailing-zeros
    /// scan over the inverted words, so the cost is O(words), not
    /// O(wavelengths).
    pub fn first_free(&self, channel: usize) -> Option<usize> {
        for (i, word) in self.bits[self.span(channel)].iter().enumerate() {
            let free = !word;
            if free != 0 {
                let w = i * 64 + free.trailing_zeros() as usize;
                return (w < self.wavelengths).then_some(w);
            }
        }
        None
    }

    /// The `n`-th free wavelength of `channel` in increasing index order
    /// (`n` is 0-based), or `None` when fewer than `n + 1` wavelengths are
    /// free — the lookup behind uniform-random assignment.
    pub fn nth_free(&self, channel: usize, n: usize) -> Option<usize> {
        let mut remaining = n;
        for (i, word) in self.bits[self.span(channel)].iter().enumerate() {
            let mut free = !word;
            if i == self.words - 1 && !self.wavelengths.is_multiple_of(64) {
                // Mask off the padding bits past the last real wavelength.
                free &= (1u64 << (self.wavelengths % 64)) - 1;
            }
            let count = free.count_ones() as usize;
            if remaining < count {
                // Select the (remaining+1)-th set bit of `free`.
                let mut bits = free;
                for _ in 0..remaining {
                    bits &= bits - 1;
                }
                return Some(i * 64 + bits.trailing_zeros() as usize);
            }
            remaining -= count;
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_is_all_free() {
        let m = SpectrumMap::new(3, 4);
        for c in 0..3 {
            assert_eq!(m.free_count(c), 4);
            assert!(!m.is_full(c));
            assert_eq!(m.first_free(c), Some(0));
            for w in 0..4 {
                assert!(m.is_free(c, w));
            }
        }
    }

    #[test]
    fn occupy_release_round_trip() {
        let mut m = SpectrumMap::new(2, 3);
        assert!(m.occupy(1, 2));
        assert!(!m.occupy(1, 2), "double occupy must be refused");
        assert!(!m.is_free(1, 2));
        assert_eq!(m.free_count(1), 2);
        assert_eq!(m.free_count(0), 3);
        assert!(m.release(1, 2));
        assert!(!m.release(1, 2), "double release must be refused");
        assert!(m.is_free(1, 2));
        assert_eq!(m.free_count(1), 3);
    }

    #[test]
    fn first_fit_skips_occupied_wavelengths() {
        let mut m = SpectrumMap::new(1, 4);
        m.occupy(0, 0);
        m.occupy(0, 1);
        assert_eq!(m.first_free(0), Some(2));
        m.occupy(0, 2);
        m.occupy(0, 3);
        assert!(m.is_full(0));
        assert_eq!(m.first_free(0), None);
    }

    #[test]
    fn nth_free_indexes_the_free_set() {
        let mut m = SpectrumMap::new(1, 5);
        m.occupy(0, 1);
        m.occupy(0, 3);
        // Free set: {0, 2, 4}.
        assert_eq!(m.nth_free(0, 0), Some(0));
        assert_eq!(m.nth_free(0, 1), Some(2));
        assert_eq!(m.nth_free(0, 2), Some(4));
        assert_eq!(m.nth_free(0, 3), None);
    }

    #[test]
    fn wide_masks_span_multiple_words() {
        let mut m = SpectrumMap::new(2, 130);
        for w in 0..129 {
            assert!(m.occupy(1, w));
        }
        assert_eq!(m.free_count(1), 1);
        assert_eq!(m.first_free(1), Some(129));
        assert_eq!(m.nth_free(1, 0), Some(129));
        assert!(m.occupy(1, 129));
        assert!(m.is_full(1));
        assert_eq!(m.first_free(1), None);
        assert_eq!(m.nth_free(1, 0), None);
        // The other channel is untouched.
        assert_eq!(m.free_count(0), 130);
    }

    #[test]
    fn clear_resets_everything_in_place() {
        let mut m = SpectrumMap::new(3, 2);
        m.occupy(0, 0);
        m.occupy(2, 1);
        m.clear();
        for c in 0..3 {
            assert_eq!(m.free_count(c), 2);
            assert_eq!(m.first_free(c), Some(0));
        }
    }

    #[test]
    fn single_wavelength_degenerates_to_a_busy_flag() {
        let mut m = SpectrumMap::new(2, 1);
        assert_eq!(m.first_free(0), Some(0));
        m.occupy(0, 0);
        assert!(m.is_full(0));
        assert!(!m.is_full(1));
    }

    #[test]
    #[should_panic(expected = "at least one wavelength")]
    fn zero_wavelengths_are_refused() {
        SpectrumMap::new(1, 0);
    }
}
