//! Word-granular shadow-tag storage.
//!
//! The global and local source analyses shadow every written memory word
//! with a one-byte tag. Workloads touch those words millions of times,
//! so the tags sit in the simulator's own [`PageTable`]: one 1 KiB page
//! of tags per 4 KiB page of memory, allocated on first write. A lookup
//! is a few dependent loads instead of a hash-map probe, and the store
//! costs only the pages written. A byte value of `0` means "no tag
//! recorded"; callers layer their own encoding (and any occupancy
//! counting) on top of that.

use instrep_sim::PageTable;

/// Words shadowed per page (4 KiB of simulated memory).
const WORDS_PER_PAGE: usize = 1 << 10;

type Page = [u8; WORDS_PER_PAGE];

/// Index of the word containing `addr` within its page.
#[inline]
fn word(addr: u32) -> usize {
    ((addr >> 2) as usize) & (WORDS_PER_PAGE - 1)
}

/// A sparse map from memory word to tag byte, zero meaning absent.
#[derive(Debug, Default)]
pub(crate) struct ShadowPages {
    pages: PageTable<Page>,
}

impl ShadowPages {
    /// Tag byte of the word containing `addr` (0 when never set).
    #[inline]
    pub(crate) fn get(&self, addr: u32) -> u8 {
        self.pages.get(addr).map_or(0, |p| p[word(addr)])
    }

    /// Mutable tag byte of the word containing `addr`, materializing its
    /// (zero-filled) page on first touch.
    #[inline]
    pub(crate) fn slot_mut(&mut self, addr: u32) -> &mut u8 {
        &mut self.pages.get_or_insert_with(addr, || [0u8; WORDS_PER_PAGE])[word(addr)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_words_read_zero_and_writes_round_trip() {
        let mut s = ShadowPages::default();
        assert_eq!(s.get(0x1000_0000), 0);
        assert_eq!(s.get(0xffff_fffc), 0);
        *s.slot_mut(0x1000_0000) = 7;
        assert_eq!(s.get(0x1000_0000), 7);
        // Sub-word addresses alias their containing word.
        assert_eq!(s.get(0x1000_0003), 7);
        *s.slot_mut(0x1000_0002) = 9;
        assert_eq!(s.get(0x1000_0000), 9);
        // Neighbouring words are independent.
        assert_eq!(s.get(0x1000_0004), 0);
        // The last word of a page and the first of the next are distinct.
        *s.slot_mut(0x1000_0ffc) = 3;
        assert_eq!(s.get(0x1000_1000), 0);
        assert_eq!(s.get(0x1000_0fff), 3);
    }
}
