// Property tests are feature-gated: run with `--features proptest`.
#![cfg(feature = "proptest")]

//! Never-panics sweep for the assembler: `assemble` returns `Ok` or
//! `Err` on any text, and never panics. The parser slices lines at byte
//! offsets it finds by scanning bytes, so the inputs here mix arbitrary
//! bytes and multi-byte characters into assembly-shaped text, to catch a
//! slice that lands inside a character.
//!
//! Two sources of text: arbitrary byte strings decoded as UTF-8 (lossily,
//! so invalid bytes become U+FFFD), and the compiler output of the ten
//! workload families with random line deletions, duplications,
//! truncations and single-character edits. A panic found here becomes a
//! plain regression test in `instrep-asm`, as the overflowing values in
//! `layout::tests::overflowing_values_do_not_panic` did.

use std::panic::catch_unwind;
use std::sync::OnceLock;

use instrep_asm::assemble;
use proptest::prelude::*;

/// Characters that steer random text into the parser's special cases,
/// with multi-byte ones (2, 3 and 4 bytes, and Unicode whitespace) that a
/// byte scanner must never split.
const ALPHABET: &[char] = &[
    '$', ',', '(', ')', '"', '\'', '\\', '#', '/', ':', '.', '%', '-', '+', '0', '1', '9', 'x',
    'a', 't', 's', 'p', 'l', 'w', ' ', '\t', '\n', '\r', '\u{b}', 'é', '\u{a0}', '\u{85}',
    '\u{2028}', '中', '🦀', '\u{fffd}',
];

/// Assembles `src`, failing the test with the input if `assemble` panics.
fn assert_no_panic(src: &str) {
    assert!(catch_unwind(|| assemble(src)).is_ok(), "assemble panicked on {src:?}");
}

/// Every family's compiler output, split into lines.
fn family_lines() -> &'static [Vec<String>] {
    static LINES: OnceLock<Vec<Vec<String>>> = OnceLock::new();
    LINES.get_or_init(|| {
        instrep_workloads::all()
            .iter()
            .map(|wl| {
                let asm = instrep_minicc::compile_to_asm(&wl.full_source()).expect("compiles");
                asm.lines().map(str::to_string).collect()
            })
            .collect()
    })
}

/// The largest char boundary of `s` at or below `at`.
fn floor_boundary(s: &str, at: usize) -> usize {
    (0..=at.min(s.len())).rev().find(|&i| s.is_char_boundary(i)).unwrap_or(0)
}

/// One random edit of a line-split program. Each field is reduced modulo
/// the size it indexes when the edit is applied.
#[derive(Debug, Clone, Copy)]
enum Edit {
    Delete(usize),
    Duplicate(usize),
    /// Cut line `.0` at byte `.1`.
    Truncate(usize, usize),
    /// Replace the char at byte `.1` of line `.0` with `ALPHABET[.2]`.
    Replace(usize, usize, usize),
    /// Insert `ALPHABET[.2]` at byte `.1` of line `.0`.
    Insert(usize, usize, usize),
}

fn arb_edit() -> impl Strategy<Value = Edit> {
    let at = || (any::<usize>(), 0usize..80, 0..ALPHABET.len());
    prop_oneof![
        any::<usize>().prop_map(Edit::Delete),
        any::<usize>().prop_map(Edit::Duplicate),
        (any::<usize>(), 0usize..80).prop_map(|(l, b)| Edit::Truncate(l, b)),
        at().prop_map(|(l, b, c)| Edit::Replace(l, b, c)),
        at().prop_map(|(l, b, c)| Edit::Insert(l, b, c)),
    ]
}

fn apply(lines: &mut Vec<String>, edit: Edit) {
    if lines.is_empty() {
        return;
    }
    let n = lines.len();
    match edit {
        Edit::Delete(l) => {
            lines.remove(l % n);
        }
        Edit::Duplicate(l) => {
            let line = lines[l % n].clone();
            lines.insert(l % n, line);
        }
        Edit::Truncate(l, b) => {
            let line = &mut lines[l % n];
            line.truncate(floor_boundary(line, b));
        }
        Edit::Replace(l, b, c) => {
            let line = &mut lines[l % n];
            let at = floor_boundary(line, b);
            if let Some(old) = line[at..].chars().next() {
                line.replace_range(at..at + old.len_utf8(), ALPHABET[c].encode_utf8(&mut [0; 4]));
            }
        }
        Edit::Insert(l, b, c) => {
            let line = &mut lines[l % n];
            line.insert(floor_boundary(line, b), ALPHABET[c]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..400)) {
        assert_no_panic(&String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn assembly_flavoured_text_never_panics(
        picks in proptest::collection::vec((any::<bool>(), any::<u8>(), 0..ALPHABET.len()), 0..400),
    ) {
        // Half the characters come from the alphabet, half are raw bytes.
        let mut bytes = Vec::new();
        for (raw, byte, c) in picks {
            if raw {
                bytes.push(byte);
            } else {
                bytes.extend_from_slice(ALPHABET[c].encode_utf8(&mut [0; 4]).as_bytes());
            }
        }
        assert_no_panic(&String::from_utf8_lossy(&bytes));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn mutated_compiler_output_never_panics(
        family in 0usize..10,
        edits in proptest::collection::vec(arb_edit(), 1..12),
        cut in any::<u64>(),
    ) {
        let mut lines = family_lines()[family % family_lines().len()].clone();
        for edit in edits {
            apply(&mut lines, edit);
        }
        let mut src = lines.join("\n");
        assert_no_panic(&src);
        // The same program truncated mid-file, where a statement or a
        // character may be cut.
        src.truncate(floor_boundary(&src, (cut % (src.len() as u64 + 1)) as usize));
        assert_no_panic(&src);
    }
}
