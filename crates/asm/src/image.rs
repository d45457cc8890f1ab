use std::collections::HashMap;
use std::sync::Arc;

use instrep_isa::abi;

/// Symbol table mapping label names to absolute addresses, kept in
/// definition order.
#[derive(Debug, Clone, Default)]
pub struct SymbolTable {
    /// `(name, address)` in definition order.
    syms: Vec<(Arc<str>, u32)>,
    /// Each name's index in `syms`.
    index: HashMap<Arc<str>, usize>,
}

impl SymbolTable {
    /// Creates an empty table.
    pub fn new() -> SymbolTable {
        SymbolTable::default()
    }

    /// Defines `name` at `addr`. Returns `false`, and moves the symbol
    /// to `addr`, if `name` was already defined.
    pub(crate) fn insert(&mut self, name: &str, addr: u32) -> bool {
        if let Some(&i) = self.index.get(name) {
            self.syms[i].1 = addr;
            return false;
        }
        let name: Arc<str> = Arc::from(name);
        self.index.insert(Arc::clone(&name), self.syms.len());
        self.syms.push((name, addr));
        true
    }

    /// Looks up a symbol's address.
    pub fn get(&self, name: &str) -> Option<u32> {
        self.index.get(name).map(|&i| self.syms[i].1)
    }

    /// Number of symbols defined.
    pub fn len(&self) -> usize {
        self.syms.len()
    }

    /// Whether no symbols are defined.
    pub fn is_empty(&self) -> bool {
        self.syms.is_empty()
    }

    /// Iterates over `(name, address)` pairs in definition order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u32)> {
        self.syms.iter().map(|(name, addr)| (&**name, *addr))
    }

    /// The name of the first symbol defined at exactly `addr`, so a
    /// listing names an address the same way in every run.
    pub fn name_at(&self, addr: u32) -> Option<&str> {
        self.syms.iter().find(|(_, a)| *a == addr).map(|(name, _)| &**name)
    }
}

/// Static metadata for one function, recorded from `.func`/`.endfunc`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FuncMeta {
    /// Function name.
    pub name: String,
    /// Address of the first instruction.
    pub entry: u32,
    /// Address one past the last instruction.
    pub end: u32,
    /// Number of declared parameters.
    pub arity: u8,
}

impl FuncMeta {
    /// Static size of the function in instructions.
    pub fn size_insns(&self) -> u32 {
        (self.end - self.entry) / instrep_isa::INSN_BYTES
    }

    /// Whether `pc` falls inside this function's body.
    pub fn contains(&self, pc: u32) -> bool {
        (self.entry..self.end).contains(&pc)
    }
}

/// An assembled executable: text and data images plus symbol and function
/// metadata.
#[derive(Debug, Clone, Default)]
pub struct Image {
    /// Encoded instruction words, loaded at [`abi::TEXT_BASE`].
    pub text: Vec<u32>,
    /// Source line of each text word, parallel to `text`, recorded from
    /// `.loc` directives (0 = no line information). Every word of a
    /// pseudo-instruction expansion inherits the active `.loc` line.
    pub lines: Vec<u32>,
    /// Data segment bytes, loaded at [`abi::DATA_BASE`]. Includes both
    /// initialized data and `.space` (zero) regions.
    pub data: Vec<u8>,
    /// Absolute address ranges of bytes written by explicit initializers
    /// (`.word`/`.half`/`.byte`/`.ascii*`), merged and sorted. The
    /// analyses treat reads of these as *global init data*; `.space`
    /// bytes are BSS-like and start out uninitialized.
    pub init_ranges: Vec<std::ops::Range<u32>>,
    /// Entry-point address (`__start` if defined).
    pub entry: u32,
    /// Label addresses.
    pub symbols: SymbolTable,
    /// Function metadata from `.func` directives, in source order.
    pub funcs: Vec<FuncMeta>,
}

impl Image {
    /// First address past the data image.
    pub fn data_end(&self) -> u32 {
        abi::DATA_BASE + self.data.len() as u32
    }

    /// First address past the text image.
    pub fn text_end(&self) -> u32 {
        abi::TEXT_BASE + (self.text.len() as u32) * instrep_isa::INSN_BYTES
    }

    /// The function containing `pc`, if any.
    pub fn func_at(&self, pc: u32) -> Option<&FuncMeta> {
        self.funcs.iter().find(|f| f.contains(pc))
    }

    /// Source line of the text word at instruction index `index`
    /// (0 = unknown: no `.loc` covered it, or the image has no line
    /// information at all).
    pub fn line_at(&self, index: usize) -> u32 {
        self.lines.get(index).copied().unwrap_or(0)
    }

    /// Whether the byte at `addr` was written by an explicit data
    /// initializer (versus `.space` / unmapped).
    pub fn is_initialized(&self, addr: u32) -> bool {
        // Ranges are sorted by start and non-overlapping.
        self.init_ranges
            .binary_search_by(|r| {
                if addr < r.start {
                    std::cmp::Ordering::Greater
                } else if addr >= r.end {
                    std::cmp::Ordering::Less
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_table_basics() {
        let mut t = SymbolTable::new();
        assert!(t.is_empty());
        assert!(t.insert("a", 4));
        assert!(!t.insert("a", 8)); // duplicate
        assert_eq!(t.get("a"), Some(8));
        assert_eq!(t.get("b"), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name_at(8), Some("a"));
        assert_eq!(t.name_at(4), None);
    }

    #[test]
    fn symbols_keep_definition_order() {
        let mut t = SymbolTable::new();
        for (name, addr) in [("z", 8), ("b", 4), ("y", 8), ("a", 4), ("x", 12)] {
            assert!(t.insert(name, addr));
        }
        let names: Vec<_> = t.iter().map(|(name, _)| name).collect();
        assert_eq!(names, ["z", "b", "y", "a", "x"]);
        assert_eq!(t.name_at(8), Some("z"));
        assert_eq!(t.name_at(4), Some("b"));
        assert_eq!(t.get("y"), Some(8));
    }

    #[test]
    fn func_meta_geometry() {
        let f = FuncMeta { name: "f".into(), entry: 0x40_0010, end: 0x40_0020, arity: 2 };
        assert_eq!(f.size_insns(), 4);
        assert!(f.contains(0x40_0010));
        assert!(f.contains(0x40_001c));
        assert!(!f.contains(0x40_0020));
    }

    #[test]
    fn initialized_ranges() {
        let img = Image { init_ranges: vec![10..20, 30..34], ..Image::default() };
        assert!(!img.is_initialized(9));
        assert!(img.is_initialized(10));
        assert!(img.is_initialized(19));
        assert!(!img.is_initialized(20));
        assert!(img.is_initialized(33));
        assert!(!img.is_initialized(34));
    }

    #[test]
    fn image_bounds() {
        let img = Image { text: vec![0; 3], data: vec![0; 10], ..Image::default() };
        assert_eq!(img.text_end(), abi::TEXT_BASE + 12);
        assert_eq!(img.data_end(), abi::DATA_BASE + 10);
    }
}
