/// Sparse paged byte-addressable memory.
///
/// The 32-bit address space is backed by 4 KiB pages allocated on first
/// touch and zero-filled, which matches the behaviour the workloads
/// expect of BSS, heap, and stack memory. The pages live in a
/// [`PageTable`], so an untouched memory costs one 8 KiB root and a load
/// costs two dereferences past it.
///
/// # Examples
///
/// ```
/// use instrep_sim::Memory;
///
/// let mut m = Memory::new();
/// m.store_u32(0x1000_0000, 0xdead_beef);
/// assert_eq!(m.load_u32(0x1000_0000), 0xdead_beef);
/// assert_eq!(m.load_u8(0x1000_0003), 0xde); // little-endian
/// assert_eq!(m.load_u32(0x7fff_0000), 0);   // untouched memory reads 0
/// ```
#[derive(Debug, Default)]
pub struct Memory {
    pages: PageTable<Page>,
}

const PAGE_BITS: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// Address bits that pick a directory in a [`PageTable`]'s root.
const DIR_BITS: u32 = 10;
const DIR_SLOTS: usize = 1 << DIR_BITS;
/// Pages per directory: the address bits between the root index and the
/// page offset.
const PAGE_SLOTS: usize = 1 << (32 - DIR_BITS - PAGE_BITS);

type Page = [u8; PAGE_SIZE];
type Dir<P> = [Option<Box<P>>; PAGE_SLOTS];

/// A sparse two-level table holding one `P` per 4 KiB page of the 32-bit
/// address space.
///
/// The root has 1,024 directory slots of 4 MiB each, and each directory
/// has 1,024 page slots. Directories and pages are allocated when a page
/// is first touched, so a table costs its 8 KiB root, 8 KiB per touched
/// 4 MiB and the touched pages, and dropping it visits only those. Both
/// indices are cut out of the address with shifts and masks, so a lookup
/// needs no bounds check. [`Memory`] keeps its bytes here; the analyses
/// keep one shadow tag per memory word here.
///
/// # Examples
///
/// ```
/// use instrep_sim::PageTable;
///
/// let mut t: PageTable<[u8; 16]> = PageTable::new();
/// assert!(t.get(0x1000_0000).is_none());
/// t.get_or_insert_with(0x1000_0abc, || [0; 16])[3] = 7;
/// assert_eq!(t.get(0x1000_0000).map(|p| p[3]), Some(7)); // same page
/// assert_eq!(t.resident_pages(), 1);
/// ```
pub struct PageTable<P> {
    dirs: Box<[Option<Box<Dir<P>>>; DIR_SLOTS]>,
    resident: usize,
}

#[inline]
fn dir_index(addr: u32) -> usize {
    (addr >> (32 - DIR_BITS)) as usize
}

#[inline]
fn slot_index(addr: u32) -> usize {
    ((addr >> PAGE_BITS) as usize) & (PAGE_SLOTS - 1)
}

impl<P> PageTable<P> {
    /// Creates a table with no pages.
    pub fn new() -> PageTable<P> {
        PageTable { dirs: Box::new([const { None }; DIR_SLOTS]), resident: 0 }
    }

    /// The page holding `addr`, if it was ever touched.
    #[inline]
    pub fn get(&self, addr: u32) -> Option<&P> {
        self.dirs[dir_index(addr)].as_deref()?[slot_index(addr)].as_deref()
    }

    /// The page holding `addr`, created by `new_page` on first touch.
    #[inline]
    pub fn get_or_insert_with(&mut self, addr: u32, new_page: impl FnOnce() -> P) -> &mut P {
        let PageTable { dirs, resident } = self;
        let dir = dirs[dir_index(addr)].get_or_insert_with(new_dir);
        dir[slot_index(addr)].get_or_insert_with(|| {
            *resident += 1;
            new_box(new_page)
        })
    }

    /// Number of pages touched so far.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }
}

// Allocation stays out of line: a first touch is rare, and every load
// and store inlines `get` or `get_or_insert_with`.
#[cold]
fn new_dir<P>() -> Box<Dir<P>> {
    Box::new([const { None }; PAGE_SLOTS])
}

#[cold]
fn new_box<P>(new_page: impl FnOnce() -> P) -> Box<P> {
    Box::new(new_page())
}

impl<P> Default for PageTable<P> {
    fn default() -> PageTable<P> {
        PageTable::new()
    }
}

impl<P> std::fmt::Debug for PageTable<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PageTable").field("resident_pages", &self.resident).finish_non_exhaustive()
    }
}

impl Memory {
    /// Creates empty (all-zero) memory.
    pub fn new() -> Memory {
        Memory { pages: PageTable::new() }
    }

    #[inline]
    fn page(&self, addr: u32) -> Option<&Page> {
        self.pages.get(addr)
    }

    #[inline]
    fn page_mut(&mut self, addr: u32) -> &mut Page {
        self.pages.get_or_insert_with(addr, || [0u8; PAGE_SIZE])
    }

    /// Loads one byte.
    #[inline]
    pub fn load_u8(&self, addr: u32) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr as usize) & (PAGE_SIZE - 1)],
            None => 0,
        }
    }

    /// Loads a little-endian halfword.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 2-aligned. Alignment is a hard contract:
    /// a misaligned halfword at a page end would otherwise index past
    /// the 4 KiB page array. Callers (the interpreter tiers) trap
    /// misaligned accesses as [`SimError::Unaligned`] before calling.
    ///
    /// [`SimError::Unaligned`]: crate::SimError::Unaligned
    #[inline]
    pub fn load_u16(&self, addr: u32) -> u16 {
        assert!(addr.is_multiple_of(2), "misaligned halfword load at {addr:#010x}");
        match self.page(addr) {
            Some(p) => {
                let i = (addr as usize) & (PAGE_SIZE - 1);
                u16::from_le_bytes([p[i], p[i + 1]])
            }
            None => 0,
        }
    }

    /// Loads a little-endian word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-aligned (see [`Memory::load_u16`]).
    #[inline]
    pub fn load_u32(&self, addr: u32) -> u32 {
        assert!(addr.is_multiple_of(4), "misaligned word load at {addr:#010x}");
        match self.page(addr) {
            Some(p) => {
                let i = (addr as usize) & (PAGE_SIZE - 1);
                u32::from_le_bytes([p[i], p[i + 1], p[i + 2], p[i + 3]])
            }
            None => 0,
        }
    }

    /// Stores one byte.
    #[inline]
    pub fn store_u8(&mut self, addr: u32, v: u8) {
        let i = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[i] = v;
    }

    /// Stores a little-endian halfword.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 2-aligned (see [`Memory::load_u16`]).
    #[inline]
    pub fn store_u16(&mut self, addr: u32, v: u16) {
        assert!(addr.is_multiple_of(2), "misaligned halfword store at {addr:#010x}");
        let i = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[i..i + 2].copy_from_slice(&v.to_le_bytes());
    }

    /// Stores a little-endian word.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not 4-aligned (see [`Memory::load_u16`]).
    #[inline]
    pub fn store_u32(&mut self, addr: u32, v: u32) {
        assert!(addr.is_multiple_of(4), "misaligned word store at {addr:#010x}");
        let i = (addr as usize) & (PAGE_SIZE - 1);
        self.page_mut(addr)[i..i + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Copies a byte slice into memory starting at `addr`, a page at a
    /// time. Addresses wrap past `0xffff_ffff`, and every page the slice
    /// covers becomes resident, even where the bytes are zero.
    pub fn write_bytes(&mut self, mut addr: u32, bytes: &[u8]) {
        let mut rest = bytes;
        while !rest.is_empty() {
            let in_page = (addr as usize) & (PAGE_SIZE - 1);
            let (chunk, tail) = rest.split_at((PAGE_SIZE - in_page).min(rest.len()));
            self.page_mut(addr)[in_page..in_page + chunk.len()].copy_from_slice(chunk);
            addr = addr.wrapping_add(chunk.len() as u32);
            rest = tail;
        }
    }

    /// Reads `len` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u32, len: u32) -> Vec<u8> {
        let mut out = Vec::with_capacity(len as usize);
        self.read_into(addr, len, &mut out);
        out
    }

    /// Appends `len` bytes starting at `addr` to `out`, page-chunk-wise
    /// (absent pages contribute zeros). Unlike [`Memory::read_bytes`]
    /// this never materializes a `len`-sized intermediate buffer, so
    /// callers can bound allocation by what they actually keep.
    pub fn read_into(&self, addr: u32, len: u32, out: &mut Vec<u8>) {
        let mut addr = u64::from(addr);
        let end = addr + u64::from(len);
        while addr < end {
            let in_page = (addr as usize) & (PAGE_SIZE - 1);
            let chunk = (PAGE_SIZE - in_page).min((end - addr) as usize);
            match self.page(addr as u32) {
                Some(p) => out.extend_from_slice(&p[in_page..in_page + chunk]),
                None => out.resize(out.len() + chunk, 0),
            }
            addr += chunk as u64;
        }
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.resident_pages()
    }

    /// Bytes held by resident pages (page-granular: each touched page
    /// accounts for its full 4 KiB backing allocation).
    pub fn resident_bytes(&self) -> usize {
        self.resident_pages() * PAGE_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_fill_and_round_trip() {
        let mut m = Memory::new();
        assert_eq!(m.load_u32(0x1234_5678 & !3), 0);
        m.store_u32(0x1000_0000, 0x0102_0304);
        assert_eq!(m.load_u8(0x1000_0000), 0x04);
        assert_eq!(m.load_u8(0x1000_0003), 0x01);
        assert_eq!(m.load_u16(0x1000_0000), 0x0304);
        assert_eq!(m.load_u16(0x1000_0002), 0x0102);
        m.store_u8(0x1000_0001, 0xff);
        assert_eq!(m.load_u32(0x1000_0000), 0x0102_ff04);
        m.store_u16(0x1000_0002, 0xbeef);
        assert_eq!(m.load_u32(0x1000_0000), 0xbeef_ff04);
    }

    #[test]
    fn cross_page_bytes() {
        let mut m = Memory::new();
        let boundary = 0x2000_1000 - 2;
        m.write_bytes(boundary, &[1, 2, 3, 4]);
        assert_eq!(m.read_bytes(boundary, 4), vec![1, 2, 3, 4]);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn high_addresses() {
        let mut m = Memory::new();
        m.store_u32(0xffff_fffc, 7);
        assert_eq!(m.load_u32(0xffff_fffc), 7);
    }

    #[test]
    fn aligned_accesses_at_page_boundaries() {
        // The last aligned halfword/word of a page must stay in-page.
        let mut m = Memory::new();
        m.store_u16(0x2000_0ffe, 0xabcd);
        m.store_u32(0x3000_0ffc, 0xdead_beef);
        assert_eq!(m.load_u16(0x2000_0ffe), 0xabcd);
        assert_eq!(m.load_u32(0x3000_0ffc), 0xdead_beef);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    #[should_panic(expected = "misaligned halfword load")]
    fn misaligned_u16_load_panics_at_page_end() {
        // A misaligned halfword at the last byte of a page would index
        // one past the page array; the hard contract catches it even in
        // release builds.
        let m = Memory::new();
        let _ = m.load_u16(0x2000_0fff);
    }

    #[test]
    #[should_panic(expected = "misaligned word load")]
    fn misaligned_u32_load_panics_at_page_end() {
        let m = Memory::new();
        let _ = m.load_u32(0x2000_0ffd);
    }

    #[test]
    #[should_panic(expected = "misaligned halfword store")]
    fn misaligned_u16_store_panics() {
        let mut m = Memory::new();
        m.store_u16(0x2000_0fff, 1);
    }

    #[test]
    #[should_panic(expected = "misaligned word store")]
    fn misaligned_u32_store_panics() {
        let mut m = Memory::new();
        m.store_u32(0x2000_0ffe, 1);
    }

    #[test]
    fn reads_of_untouched_memory_allocate_no_pages() {
        let mut m = Memory::new();
        assert_eq!(m.load_u8(0x1000_0001), 0);
        assert_eq!(m.load_u16(0x1040_0000), 0);
        assert_eq!(m.load_u32(0xffff_fffc), 0);
        assert_eq!(m.read_bytes(0x103f_f000, 3 * PAGE_SIZE as u32), vec![0; 3 * PAGE_SIZE]);
        let mut out = Vec::new();
        m.read_into(0xffff_fff0, 32, &mut out);
        assert_eq!(out, vec![0; 32]);
        assert_eq!(m.resident_pages(), 0);
        assert_eq!(m.resident_bytes(), 0);
        // Touching one page of a directory does not make its neighbours
        // resident.
        m.store_u8(0x1040_0000, 1);
        assert_eq!(m.load_u8(0x1040_1000), 0);
        assert_eq!(m.resident_pages(), 1);
    }

    #[test]
    fn write_straddling_a_directory_boundary_counts_two_pages() {
        // 0x1040_0000 starts a new 4 MiB directory.
        let mut m = Memory::new();
        m.write_bytes(0x1040_0000 - 3, &[1, 2, 3, 4, 5, 6]);
        assert_eq!(m.resident_pages(), 2);
        assert_eq!(m.resident_bytes(), 2 * PAGE_SIZE);
        assert_eq!(m.read_bytes(0x1040_0000 - 3, 6), vec![1, 2, 3, 4, 5, 6]);
        assert_eq!(m.load_u32(0x1040_0000), 0x0006_0504);
    }

    #[test]
    fn write_bytes_wraps_and_materializes_zero_pages() {
        let mut m = Memory::new();
        m.write_bytes(0xffff_fffe, &[7, 8, 9, 10]);
        assert_eq!(m.load_u16(0xffff_fffe), 0x0807);
        assert_eq!(m.load_u16(0), 0x0a09);
        assert_eq!(m.resident_pages(), 2);
        // Zero bytes still make their pages resident, as stores do.
        m.write_bytes(0x2000_0ffc, &[0; PAGE_SIZE + 8]);
        assert_eq!(m.resident_pages(), 5);
        m.write_bytes(0x3000_0000, &[]);
        assert_eq!(m.resident_pages(), 5);
    }

    #[test]
    fn read_into_streams_across_pages_and_holes() {
        let mut m = Memory::new();
        let boundary = 0x2000_1000 - 2;
        m.write_bytes(boundary, &[1, 2, 3, 4]);
        let mut out = vec![9];
        m.read_into(boundary, 4, &mut out);
        assert_eq!(out, vec![9, 1, 2, 3, 4]);
        // An absent page in the middle of the range reads as zeros.
        let mut out = Vec::new();
        m.read_into(0x2000_0ffc, 8, &mut out);
        assert_eq!(out, vec![0, 0, 1, 2, 3, 4, 0, 0]);
        // Matches read_bytes byte-for-byte.
        assert_eq!(out, m.read_bytes(0x2000_0ffc, 8));
    }
}
