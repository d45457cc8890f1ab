use super::*;
use instrep_asm::FuncMeta;
use instrep_isa::{encode, AluOp, MemOp, MemWidth};
use instrep_sim::MemEffect;

const F_ENTRY: u32 = abi::TEXT_BASE;

fn mem(op: MemOp, rt: Reg, base: Reg) -> Insn {
    Insn::Mem { op, rt, base, off: 0 }
}

/// Every instruction the tests feed, in text order: each event carries
/// the index of its instruction here.
fn text() -> Vec<Insn> {
    let (load, store) = (MemOp::Load(MemWidth::Word), MemOp::Store(MemWidth::Word));
    let add = |rd, rs| Insn::alu(AluOp::Add, rd, rs, Reg::ZERO);
    vec![
        Insn::Jump { link: true, target: F_ENTRY >> 2 },
        Insn::Jr { rs: Reg::RA },
        Insn::imm(ImmOp::Addi, Reg::SP, Reg::SP, -32),
        Insn::imm(ImmOp::Addi, Reg::SP, Reg::SP, 32),
        Insn::imm(ImmOp::Addi, Reg::T0, Reg::SP, 16),
        Insn::imm(ImmOp::Addi, Reg::T0, Reg::GP, -32000),
        Insn::imm(ImmOp::Ori, Reg::T1, Reg::T1, 0x24),
        Insn::Lui { rt: Reg::T1, imm: 0x1001 },
        Insn::Lui { rt: Reg::T2, imm: 0x0001 },
        add(Reg::S0, Reg::ZERO),
        add(Reg::T0, Reg::A0),
        add(Reg::T0, Reg::V0),
        add(Reg::T1, Reg::T0),
        add(Reg::T1, Reg::A2),
        mem(store, Reg::S0, Reg::SP),
        mem(store, Reg::S1, Reg::SP),
        mem(store, Reg::RA, Reg::SP),
        mem(store, Reg::T0, Reg::SP),
        mem(load, Reg::S0, Reg::SP),
        mem(load, Reg::T0, Reg::SP),
        mem(load, Reg::T3, Reg::SP),
        mem(load, Reg::T0, Reg::T5),
        mem(load, Reg::T2, Reg::T5),
    ]
}

/// The test text, with functions `f` (arity 2) and `g` (arity 0).
fn image() -> Image {
    Image {
        text: text().iter().map(encode).collect(),
        funcs: vec![
            FuncMeta { name: "f".into(), entry: F_ENTRY, end: F_ENTRY + 0x40, arity: 2 },
            FuncMeta { name: "g".into(), entry: F_ENTRY + 0x40, end: F_ENTRY + 0x80, arity: 0 },
        ],
        ..Image::default()
    }
}

/// An event of `insn`, which must be in the test text.
fn ev(insn: Insn, in1: u32, in2: u32, out: Option<u32>) -> Event {
    let index = text().iter().position(|&i| i == insn).expect("instruction in the test text");
    let index = index as u32;
    Event { pc: abi::TEXT_BASE + 4 * index, index, insn, in1, in2, out, mem: None, ctrl: None }
}

fn call(target: u32, sp: u32) -> Event {
    let mut e = ev(Insn::Jump { link: true, target: target >> 2 }, 0, 0, Some(F_ENTRY + 4));
    e.ctrl = Some(CtrlEffect::Call { target, args: [0; 8], sp, ra: F_ENTRY + 4 });
    e
}

fn ret() -> Event {
    let mut e = ev(Insn::Jr { rs: Reg::RA }, F_ENTRY + 4, 0, None);
    e.ctrl = Some(CtrlEffect::Return { target: F_ENTRY + 4, v0: 1 });
    e
}

fn store(rt: Reg, base: Reg, addr: u32, value: u32) -> Event {
    let mut e = ev(mem(MemOp::Store(MemWidth::Word), rt, base), addr, value, None);
    e.mem = Some(MemEffect { addr, width: MemWidth::Word, value, is_load: false });
    e
}

fn load(rt: Reg, base: Reg, addr: u32, value: u32) -> Event {
    let mut e = ev(mem(MemOp::Load(MemWidth::Word), rt, base), addr, 0, Some(value));
    e.mem = Some(MemEffect { addr, width: MemWidth::Word, value, is_load: true });
    e
}

fn cat_count(la: &LocalAnalysis, cat: LocalCat) -> u64 {
    la.counts().overall[cat as usize]
}

#[test]
fn frame_alloc_is_prologue_dealloc_epilogue() {
    let mut la = LocalAnalysis::new(&image());
    let alloc = ev(Insn::imm(ImmOp::Addi, Reg::SP, Reg::SP, -32), 0, 0, Some(0));
    la.observe(&alloc, false, true, None);
    assert_eq!(cat_count(&la, LocalCat::Prologue), 1);
    let dealloc = ev(Insn::imm(ImmOp::Addi, Reg::SP, Reg::SP, 32), 0, 0, Some(0));
    la.observe(&dealloc, false, true, None);
    assert_eq!(cat_count(&la, LocalCat::Epilogue), 1);
}

#[test]
fn callee_saves_and_restores() {
    let mut la = LocalAnalysis::new(&image());
    let sp = abi::STACK_TOP - 64;
    la.observe(&call(F_ENTRY, abi::STACK_TOP), false, true, None);
    // Save $s0 (unwritten in this frame) to the stack => prologue.
    la.observe(&store(Reg::S0, Reg::SP, sp + 8, 17), false, true, Some(Region::Stack));
    assert_eq!(cat_count(&la, LocalCat::Prologue), 1);
    // Reload from the same slot => epilogue.
    la.observe(&load(Reg::S0, Reg::SP, sp + 8, 17), false, true, Some(Region::Stack));
    assert_eq!(cat_count(&la, LocalCat::Epilogue), 1);
    // Saving $ra also counts as prologue.
    la.observe(&store(Reg::RA, Reg::SP, sp + 12, 0), false, true, Some(Region::Stack));
    assert_eq!(cat_count(&la, LocalCat::Prologue), 2);
}

#[test]
fn written_register_store_is_not_prologue() {
    let mut la = LocalAnalysis::new(&image());
    la.observe(&call(F_ENTRY, abi::STACK_TOP), false, true, None);
    // Write $s0 first.
    la.observe(
        &ev(Insn::alu(AluOp::Add, Reg::S0, Reg::ZERO, Reg::ZERO), 0, 0, Some(0)),
        false,
        true,
        None,
    );
    // Now a store of $s0 is an ordinary (spill) store, not prologue.
    la.observe(&store(Reg::S0, Reg::SP, abi::STACK_TOP - 24, 0), false, true, Some(Region::Stack));
    assert_eq!(cat_count(&la, LocalCat::Prologue), 0);
}

#[test]
fn returns_and_sp_ops() {
    let mut la = LocalAnalysis::new(&image());
    la.observe(&ret(), false, true, None);
    assert_eq!(cat_count(&la, LocalCat::Return), 1);
    let sp_addr = ev(Insn::imm(ImmOp::Addi, Reg::T0, Reg::SP, 16), 0, 0, Some(0));
    la.observe(&sp_addr, false, true, None);
    assert_eq!(cat_count(&la, LocalCat::Sp), 1);
}

#[test]
fn glb_addr_calc_sequences() {
    let mut la = LocalAnalysis::new(&image());
    // addi t0, gp, -32000 => gp-relative address formation.
    let gp_form = ev(
        Insn::imm(ImmOp::Addi, Reg::T0, Reg::GP, -32000),
        abi::GP_INIT,
        0,
        Some(abi::DATA_BASE + 768),
    );
    la.observe(&gp_form, false, true, None);
    assert_eq!(cat_count(&la, LocalCat::GlbAddrCalc), 1);

    // lui/ori pair materializing a data address.
    let lui = ev(Insn::Lui { rt: Reg::T1, imm: 0x1001 }, 0, 0, Some(0x1001_0000));
    la.observe(&lui, false, true, None);
    assert_eq!(cat_count(&la, LocalCat::GlbAddrCalc), 2);
    let ori = ev(Insn::imm(ImmOp::Ori, Reg::T1, Reg::T1, 0x24), 0x1001_0000, 0, Some(0x1001_0024));
    la.observe(&ori, false, true, None);
    assert_eq!(cat_count(&la, LocalCat::GlbAddrCalc), 3);

    // lui of a non-address constant is function internals.
    let lui2 = ev(Insn::Lui { rt: Reg::T2, imm: 0x0001 }, 0, 0, Some(0x0001_0000));
    la.observe(&lui2, false, true, None);
    assert_eq!(cat_count(&la, LocalCat::FuncInternal), 1);
}

#[test]
fn source_tags_flow_through_loads() {
    let mut la = LocalAnalysis::new(&image());
    // Load from the data segment => Global category, result tagged global.
    la.observe(&load(Reg::T0, Reg::T5, abi::DATA_BASE, 9), false, true, Some(Region::Data));
    assert_eq!(cat_count(&la, LocalCat::Global), 1);
    // Arithmetic on the loaded value stays Global.
    la.observe(
        &ev(Insn::alu(AluOp::Add, Reg::T1, Reg::T0, Reg::ZERO), 9, 0, Some(9)),
        false,
        true,
        None,
    );
    assert_eq!(cat_count(&la, LocalCat::Global), 2);
    // Heap load => Heap.
    let heap = abi::DATA_BASE + 0x10;
    la.observe(&load(Reg::T2, Reg::T5, heap, 3), false, true, Some(Region::Heap));
    assert_eq!(cat_count(&la, LocalCat::Heap), 1);
}

#[test]
fn argument_tags_set_at_call() {
    let mut la = LocalAnalysis::new(&image());
    la.observe(&call(F_ENTRY, abi::STACK_TOP), false, true, None); // f has arity 2
                                                                   // Use of a0 inside the callee is an argument-slice instruction.
    la.observe(
        &ev(Insn::alu(AluOp::Add, Reg::T0, Reg::A0, Reg::ZERO), 5, 0, Some(5)),
        false,
        true,
        None,
    );
    assert_eq!(cat_count(&la, LocalCat::Argument), 1);
    // a2 is beyond f's arity: not tagged argument.
    la.observe(
        &ev(Insn::alu(AluOp::Add, Reg::T1, Reg::A2, Reg::ZERO), 0, 0, Some(0)),
        false,
        true,
        None,
    );
    assert_eq!(cat_count(&la, LocalCat::Argument), 1);
    // FuncInternal: the jal itself plus the a2 use.
    assert_eq!(cat_count(&la, LocalCat::FuncInternal), 2);
}

#[test]
fn return_value_tags_after_return() {
    let mut la = LocalAnalysis::new(&image());
    la.observe(&call(F_ENTRY, abi::STACK_TOP), false, true, None);
    la.observe(&ret(), false, true, None);
    la.observe(
        &ev(Insn::alu(AluOp::Add, Reg::T0, Reg::V0, Reg::ZERO), 1, 0, Some(1)),
        false,
        true,
        None,
    );
    assert_eq!(cat_count(&la, LocalCat::ReturnValue), 1);
}

#[test]
fn spills_preserve_provenance() {
    let mut la = LocalAnalysis::new(&image());
    la.observe(&call(F_ENTRY, abi::STACK_TOP), false, true, None);
    // Write a0's tag into t0 first (argument), then spill t0 and reload.
    la.observe(
        &ev(Insn::alu(AluOp::Add, Reg::T0, Reg::A0, Reg::ZERO), 5, 0, Some(5)),
        false,
        true,
        None,
    );
    let slot = abi::STACK_TOP - 40;
    la.observe(&store(Reg::T0, Reg::SP, slot, 5), false, true, Some(Region::Stack));
    la.observe(&load(Reg::T3, Reg::SP, slot, 5), false, true, Some(Region::Stack));
    // The a0 use, the spill store, and the reload are all on the
    // argument slice (provenance preserved through the stack).
    assert_eq!(cat_count(&la, LocalCat::Argument), 3);
}

#[test]
fn stack_args_tagged_argument() {
    // g has arity 0 so use an unknown target (assumed arity 4)... instead
    // extend: call a function with arity > 4 via unknown entry.
    let img = Image {
        funcs: vec![FuncMeta { name: "big".into(), entry: F_ENTRY, end: F_ENTRY + 0x40, arity: 6 }],
        ..image()
    };
    let mut la = LocalAnalysis::new(&img);
    let sp = abi::STACK_TOP - 64;
    la.observe(&call(F_ENTRY, sp), false, true, None);
    // Callee loads its 5th argument from sp+16 (the caller's outgoing area).
    la.observe(&load(Reg::T0, Reg::SP, sp + 16, 42), false, true, Some(Region::Stack));
    assert_eq!(cat_count(&la, LocalCat::Argument), 1);
}

#[test]
fn prologue_report_table9() {
    let mut la = LocalAnalysis::new(&image());
    let sp = abi::STACK_TOP - 64;
    la.observe(&call(F_ENTRY, abi::STACK_TOP), false, true, None);
    // Repeated prologue store (tracker says repeated).
    la.observe(&store(Reg::S0, Reg::SP, sp + 8, 17), true, true, Some(Region::Stack));
    la.observe(&store(Reg::S1, Reg::SP, sp + 12, 3), true, true, Some(Region::Stack));
    let (rows, coverage) = la.prologue_report(5);
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0].0, "f");
    assert_eq!(rows[0].1, 16); // 0x40 bytes = 16 instructions
    assert_eq!(rows[0].2, 2);
    assert_eq!(coverage, 1.0);
}

#[test]
fn load_value_coverage_figure6() {
    let mut la = LocalAnalysis::new(&image());
    // One static load sees value 7 four times and value 9 twice.
    for v in [7u32, 7, 7, 7, 9, 9] {
        la.observe(&load(Reg::T0, Reg::T5, abi::DATA_BASE, v), true, true, Some(Region::Data));
    }
    let cov = la.load_value_coverage(5);
    // Repetitions: value 7 -> 3, value 9 -> 1; top-1 covers 3/4.
    assert!((cov[0] - 0.75).abs() < 1e-9);
    assert!((cov[1] - 1.0).abs() < 1e-9);
}

#[test]
fn counting_gate() {
    let mut la = LocalAnalysis::new(&image());
    la.observe(&ret(), true, false, None);
    assert_eq!(la.counts().total(), 0);
}

#[test]
fn shares_and_propensity_math() {
    let mut c = LocalCounts::default();
    c.overall[LocalCat::Global as usize] = 50;
    c.overall[LocalCat::Heap as usize] = 50;
    c.repeated[LocalCat::Global as usize] = 40;
    c.repeated[LocalCat::Heap as usize] = 10;
    assert!((c.overall_share(LocalCat::Global) - 0.5).abs() < 1e-9);
    assert!((c.repeated_share(LocalCat::Global) - 0.8).abs() < 1e-9);
    assert!((c.propensity(LocalCat::Heap) - 0.2).abs() < 1e-9);
    assert_eq!(c.propensity(LocalCat::Sp), 0.0);
}
