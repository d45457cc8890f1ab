// Property tests are feature-gated: run with `--features proptest`.
#![cfg(feature = "proptest")]

//! Property test: the paged [`Memory`] agrees with a naive
//! byte-map reference model under arbitrary interleavings of
//! byte/half/word stores and loads and multi-page bulk writes and
//! reads, and its resident-page count is the number of distinct pages
//! stored to.

use std::collections::{BTreeMap, BTreeSet};

use instrep_sim::Memory;
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    StoreB(u32, u8),
    StoreH(u32, u16),
    StoreW(u32, u32),
    LoadB(u32),
    LoadH(u32),
    LoadW(u32),
    WriteBytes(u32, Vec<u8>),
    ReadInto(u32, u32),
}

fn arb_addr() -> impl Strategy<Value = u32> {
    // Cluster addresses around page boundaries to stress page crossing,
    // around a 4 MiB directory boundary of the two-level page table, on
    // pages one page-index bit away from that boundary (a table that
    // drops or misplaces an index bit makes two of them alias), and at
    // both ends of the address space, where bulk spans wrap.
    prop_oneof![
        any::<u32>(),
        (0u32..8).prop_map(|d| 0x1000_1000u32.wrapping_sub(4).wrapping_add(d)),
        (0u32..64).prop_map(|d| 0x7fff_f000u32.wrapping_sub(32).wrapping_add(d)),
        (0u32..0x4000).prop_map(|d| 0x1040_0000u32 - 0x2000 + d),
        (12u32..33, 0u32..0x1000)
            .prop_map(|(bit, d)| (0x1040_0000u32 ^ 1u32.checked_shl(bit).unwrap_or(0)) + d),
        0u32..64,
        (0u32..64).prop_map(|d| 0xffff_fffcu32.wrapping_sub(32).wrapping_add(d)),
    ]
}

/// Bulk span lengths: mostly short, one in eight up to 9 KiB (over two
/// pages). Long spans stay rare so the byte-map model stays fast.
fn arb_span() -> impl Strategy<Value = usize> {
    (0u8..8, 0usize..16, 0usize..9 * 1024)
        .prop_map(|(pick, short, long)| if pick == 0 { long } else { short })
}

fn arb_op() -> impl Strategy<Value = Op> {
    (arb_addr(), any::<u32>(), 0u8..8, arb_span()).prop_map(|(a, v, k, n)| match k {
        0 => Op::StoreB(a, v as u8),
        1 => Op::StoreH(a & !1, v as u16),
        2 => Op::StoreW(a & !3, v),
        3 => Op::LoadB(a),
        4 => Op::LoadH(a & !1),
        5 => Op::LoadW(a & !3),
        // Patterned bytes from the value: cheap to generate, and the
        // zero bytes in it must still make their pages resident.
        6 => Op::WriteBytes(a, (0..n).map(|i| (v as usize).wrapping_mul(i) as u8).collect()),
        _ => Op::ReadInto(a, n as u32),
    })
}

/// The reference: every byte stored, and the pages those bytes are on.
#[derive(Default)]
struct Model {
    bytes: BTreeMap<u32, u8>,
    pages: BTreeSet<u32>,
}

impl Model {
    fn put(&mut self, a: u32, v: u8) {
        self.bytes.insert(a, v);
        self.pages.insert(a >> 12);
    }

    fn get(&self, a: u32) -> u8 {
        *self.bytes.get(&a).unwrap_or(&0)
    }

    fn put_le(&mut self, a: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.put(a.wrapping_add(i as u32), b);
        }
    }

    fn get_le<const N: usize>(&self, a: u32) -> [u8; N] {
        std::array::from_fn(|i| self.get(a.wrapping_add(i as u32)))
    }
}

proptest! {
    #[test]
    fn matches_byte_map_reference(ops in proptest::collection::vec(arb_op(), 1..200)) {
        let mut mem = Memory::new();
        let mut model = Model::default();
        for op in &ops {
            match op {
                &Op::StoreB(a, v) => {
                    mem.store_u8(a, v);
                    model.put(a, v);
                }
                &Op::StoreH(a, v) => {
                    mem.store_u16(a, v);
                    model.put_le(a, &v.to_le_bytes());
                }
                &Op::StoreW(a, v) => {
                    mem.store_u32(a, v);
                    model.put_le(a, &v.to_le_bytes());
                }
                &Op::LoadB(a) => {
                    prop_assert_eq!(mem.load_u8(a), model.get(a));
                }
                &Op::LoadH(a) => {
                    prop_assert_eq!(mem.load_u16(a), u16::from_le_bytes(model.get_le(a)));
                }
                &Op::LoadW(a) => {
                    prop_assert_eq!(mem.load_u32(a), u32::from_le_bytes(model.get_le(a)));
                }
                Op::WriteBytes(a, bytes) => {
                    mem.write_bytes(*a, bytes);
                    model.put_le(*a, bytes);
                }
                &Op::ReadInto(a, n) => {
                    let want: Vec<u8> = (0..n).map(|i| model.get(a.wrapping_add(i))).collect();
                    let mut out = vec![0xa5];
                    mem.read_into(a, n, &mut out);
                    prop_assert_eq!(out[0], 0xa5);
                    prop_assert_eq!(&out[1..], &want[..]);
                    prop_assert_eq!(mem.read_bytes(a, n), want);
                }
            }
            prop_assert_eq!(mem.resident_pages(), model.pages.len(), "after {:?}", op);
        }
    }

    #[test]
    fn bulk_io_round_trips(addr in any::<u32>(), bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let mut mem = Memory::new();
        mem.write_bytes(addr, &bytes);
        prop_assert_eq!(mem.read_bytes(addr, bytes.len() as u32), bytes);
    }
}
