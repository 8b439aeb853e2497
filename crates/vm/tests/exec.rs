//! End-to-end VM tests with hand-assembled programs, including a manually
//! instrumented Spectre-V1 gadget that exercises the complete pipeline:
//! checkpoint → trampoline misprediction → ASan verdict → Kasper taint
//! policy → gadget report → rollback.

use teapot_asm::Assembler;
use teapot_isa::{sys, AccessSize, AluOp, Cc, Inst, MemRef, Operand, Reg};
use teapot_obj::{BinFlags, Binary, Linker};
use teapot_rt::layout::{STACK_LIMIT, STACK_TOP};
use teapot_rt::{Channel, Controllability, TeapotMeta};
use teapot_vm::{
    DispatchTier, EmuStyle, ExecContext, ExitStatus, Fault, Machine, MemFault, Program, RunOptions,
    SpecHeuristics, PAGE_SIZE,
};

fn run(bin: &Binary, opts: RunOptions) -> teapot_vm::RunOutcome {
    let mut heur = SpecHeuristics::default();
    Machine::new(bin, opts).run(&mut heur)
}

fn exit_with(f: &mut teapot_asm::FuncAsm, reg: Reg) {
    f.ins(Inst::MovRR {
        dst: Reg::R1,
        src: reg,
    });
    f.ins(Inst::Syscall { num: sys::EXIT });
}

#[test]
fn arithmetic_and_exit_code() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 6,
    });
    f.ins(Inst::MovRI {
        dst: Reg::R7,
        imm: 7,
    });
    f.ins(Inst::Alu {
        op: AluOp::Mul,
        dst: Reg::R6,
        src: Operand::Reg(Reg::R7),
    });
    exit_with(&mut f, Reg::R6);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(&bin, RunOptions::default());
    assert_eq!(out.status, ExitStatus::Exit(42));
    assert!(out.cost > 0);
    assert_eq!(out.insts, 5);
}

#[test]
fn loop_with_memory() {
    // Sum 1..=10 into a stack slot.
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    let top = f.fresh_label();
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 10,
    }); // i
    f.ins(Inst::StoreI {
        imm: 0,
        mem: MemRef::base_disp(Reg::SP, -8),
        size: AccessSize::B8,
    });
    f.bind(top);
    f.ins(Inst::Load {
        dst: Reg::R7,
        mem: MemRef::base_disp(Reg::SP, -8),
        size: AccessSize::B8,
        sext: false,
    });
    f.ins(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R7,
        src: Operand::Reg(Reg::R6),
    });
    f.ins(Inst::Store {
        src: Reg::R7,
        mem: MemRef::base_disp(Reg::SP, -8),
        size: AccessSize::B8,
    });
    f.ins(Inst::Alu {
        op: AluOp::Sub,
        dst: Reg::R6,
        src: Operand::Imm(1),
    });
    f.jcc(Cc::Ne, top);
    f.ins(Inst::Load {
        dst: Reg::R0,
        mem: MemRef::base_disp(Reg::SP, -8),
        size: AccessSize::B8,
        sext: false,
    });
    exit_with(&mut f, Reg::R0);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    assert_eq!(
        run(&bin, RunOptions::default()).status,
        ExitStatus::Exit(55)
    );
}

#[test]
fn call_and_return() {
    let mut asm = Assembler::new("t");
    let mut g = asm.func("add_one");
    g.ins(Inst::MovRR {
        dst: Reg::R0,
        src: Reg::R1,
    });
    g.ins(Inst::Alu {
        op: AluOp::Add,
        dst: Reg::R0,
        src: Operand::Imm(1),
    });
    g.raw(Inst::Ret);
    asm.finish_func(g).unwrap();
    let mut f = asm.func("_start");
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 41,
    });
    f.call_sym("add_one");
    exit_with(&mut f, Reg::R0);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    assert_eq!(
        run(&bin, RunOptions::default()).status,
        ExitStatus::Exit(42)
    );
}

#[test]
fn division_by_zero_faults_in_normal_execution() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 1,
    });
    f.ins(Inst::MovRI {
        dst: Reg::R7,
        imm: 0,
    });
    f.ins(Inst::Alu {
        op: AluOp::Div,
        dst: Reg::R6,
        src: Operand::Reg(Reg::R7),
    });
    f.raw(Inst::Halt);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(&bin, RunOptions::default());
    assert!(matches!(
        out.status,
        ExitStatus::Fault(Fault::DivByZero { .. })
    ));
}

#[test]
fn unmapped_access_faults() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 0x6666_6666,
    });
    f.ins(Inst::Load {
        dst: Reg::R0,
        mem: MemRef::base(Reg::R6),
        size: AccessSize::B8,
        sext: false,
    });
    f.raw(Inst::Halt);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(&bin, RunOptions::default());
    assert!(matches!(
        out.status,
        ExitStatus::Fault(Fault::Mem(MemFault::Unmapped { .. }))
    ));
}

#[test]
fn writes_to_text_fault() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    f.lea_global(Reg::R6, "_start", 0);
    f.ins(Inst::Store {
        src: Reg::R6,
        mem: MemRef::base(Reg::R6),
        size: AccessSize::B8,
    });
    f.raw(Inst::Halt);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(&bin, RunOptions::default());
    assert!(
        matches!(
            out.status,
            ExitStatus::Fault(Fault::Mem(MemFault::ReadOnly { .. }))
        ),
        "got {:?}",
        out.status
    );
}

#[test]
fn read_input_and_write_output() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    // buf = sp-64; n = read_input(buf, 16); write(buf, n); exit(n)
    f.ins(Inst::Lea {
        dst: Reg::R1,
        mem: MemRef::base_disp(Reg::SP, -64),
    });
    f.ins(Inst::MovRI {
        dst: Reg::R2,
        imm: 16,
    });
    f.ins(Inst::Syscall {
        num: sys::READ_INPUT,
    });
    f.ins(Inst::MovRR {
        dst: Reg::R9,
        src: Reg::R0,
    });
    f.ins(Inst::Lea {
        dst: Reg::R1,
        mem: MemRef::base_disp(Reg::SP, -64),
    });
    f.ins(Inst::MovRR {
        dst: Reg::R2,
        src: Reg::R9,
    });
    f.ins(Inst::Syscall { num: sys::WRITE });
    exit_with(&mut f, Reg::R9);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(
        &bin,
        RunOptions {
            input: b"hello".to_vec(),
            ..RunOptions::default()
        },
    );
    assert_eq!(out.status, ExitStatus::Exit(5));
    assert_eq!(out.output, b"hello");
}

#[test]
fn malloc_free_round_trip() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 64,
    });
    f.ins(Inst::Syscall { num: sys::MALLOC });
    f.ins(Inst::MovRR {
        dst: Reg::R9,
        src: Reg::R0,
    });
    // store + reload through the heap pointer
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 1234,
    });
    f.ins(Inst::Store {
        src: Reg::R6,
        mem: MemRef::base(Reg::R9),
        size: AccessSize::B8,
    });
    f.ins(Inst::Load {
        dst: Reg::R7,
        mem: MemRef::base(Reg::R9),
        size: AccessSize::B8,
        sext: false,
    });
    f.ins(Inst::MovRR {
        dst: Reg::R1,
        src: Reg::R9,
    });
    f.ins(Inst::Syscall { num: sys::FREE });
    exit_with(&mut f, Reg::R7);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(&bin, RunOptions::default());
    assert_eq!(out.status, ExitStatus::Exit(1234));
}

/// Builds a manually instrumented Spectre-V1 victim equivalent to the
/// paper's Listing 1 + Figure 4, with Real and Shadow copies laid out by
/// hand and a `.teapot.meta` note wired up.
///
/// foo has SIZE=8 elements; foo[idx] is guarded by `idx < 8`. The shadow
/// copy reads foo[idx] after the trampoline forces the wrong path, then
/// uses the loaded value as an index into bar (the transmitter).
fn spectre_v1_binary(nested: bool) -> Binary {
    let mut asm = Assembler::new("v1");
    // foo: 8 in-bounds elements; adjacent "secret" data follows in .data.
    asm.data("foo", &[1u8; 8]);
    asm.data("secret", &[0x41u8; 64]);
    asm.data("bar", &[0u8; 64]);
    // Input buffer the driver reads into (tainted USER by read_input).
    asm.bss("inbuf", 16);

    // --- Real copy: _start reads input, bounds-checks, indexes foo.
    let mut f = asm.func("_start");
    let ok = f.fresh_label();
    let out = f.fresh_label();
    let tramp = f.fresh_label();
    let shadow_ok = f.fresh_label();
    let shadow_out = f.fresh_label();

    f.lea_global(Reg::R1, "inbuf", 0);
    f.ins(Inst::MovRI {
        dst: Reg::R2,
        imm: 8,
    });
    f.ins(Inst::Syscall {
        num: sys::READ_INPUT,
    });
    // idx = first input byte
    f.load_global(Reg::R6, "inbuf", 0, AccessSize::B1, false);
    f.ins(Inst::Cmp {
        lhs: Reg::R6,
        rhs: Operand::Imm(8),
    });
    f.sim_start(tramp);
    f.jcc(Cc::B, ok);
    f.jmp(out);
    f.bind(ok);
    // In-bounds real access.
    f.load_global_indexed(Reg::R7, "foo", Reg::R6, 1, AccessSize::B1, false);
    f.bind(out);
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 0,
    });
    f.ins(Inst::Syscall { num: sys::EXIT });

    // --- Trampoline (same condition, swapped targets — paper §5.2).
    f.bind(tramp);
    f.jcc(Cc::B, shadow_out); // mispredict: taken-in-real goes to "out"
    f.jmp(shadow_ok);

    // --- Shadow copy of the `ok` path, with policy instrumentation.
    f.bind(shadow_ok);
    if nested {
        // A second conditional branch inside the speculative window.
        let t2 = f.fresh_label();
        let after = f.fresh_label();
        f.ins(Inst::Cmp {
            lhs: Reg::R6,
            rhs: Operand::Imm(200),
        });
        f.sim_start(t2);
        f.jcc(Cc::B, after);
        f.jmp(after);
        f.bind(t2);
        f.jcc(Cc::B, after);
        f.jmp(after);
        f.bind(after);
    }
    f.ins(Inst::AsanCheck {
        mem: MemRef {
            base: None,
            index: Some(Reg::R6),
            scale: 1,
            disp: 0,
        },
        size: AccessSize::B1,
        is_write: false,
    });
    // L1: load secret = foo[idx] (idx attacker-controlled, OOB for idx>=8;
    // foo's 8 bytes are followed by `secret` in .data).
    f.load_global_indexed(Reg::R7, "foo", Reg::R6, 1, AccessSize::B1, false);
    f.raw(Inst::TagProp);
    // L2: transmit: bar[secret]
    f.ins(Inst::AsanCheck {
        mem: MemRef {
            base: None,
            index: Some(Reg::R7),
            scale: 1,
            disp: 0,
        },
        size: AccessSize::B1,
        is_write: false,
    });
    f.load_global_indexed(Reg::R8, "bar", Reg::R7, 1, AccessSize::B1, false);
    f.raw(Inst::SimCheck);
    f.bind(shadow_out);
    f.raw(Inst::SimEnd);
    // Unreachable tail: if sim ended we never get here.
    f.raw(Inst::Halt);

    asm.finish_func(f).unwrap();
    let flags = BinFlags {
        instrumented: true,
        asan: true,
        dift: true,
        nested_speculation: nested,
        single_copy: false,
    };
    let mut bin = Linker::new()
        .flags(flags)
        .add_object(asm.finish())
        .link("_start")
        .unwrap();

    // Hand-built metadata: everything is one function here, so mark the
    // whole text as both "real" (before tramp) and shadow (after).
    let text = bin.section(".text").unwrap();
    let tramp_off = text.bytes.len();
    let _ = tramp_off;
    let (lo, hi) = (text.vaddr, text.end());
    // The trampoline label is not directly recoverable here; approximate
    // the real/shadow split at the `exit` syscall (end of real path).
    // For this hand-made test we treat the full range as shadow-legal and
    // no real range, which disables the escape safety net.
    let meta = TeapotMeta {
        real_range: (0, 0),
        shadow_range: (lo, hi),
        indirect_map: vec![],
        addr_map: vec![],
    };
    bin.sections.push(teapot_obj::LoadedSection {
        name: ".teapot.meta".into(),
        kind: teapot_obj::SectionKind::Note,
        vaddr: 0,
        bytes: meta.to_bytes(),
        mem_size: 0,
    });
    bin
}

#[test]
fn spectre_v1_gadget_detected_with_kasper_policy() {
    let bin = spectre_v1_binary(false);
    // Out-of-bounds index 40: foo[40] reaches the `secret` data.
    let out = run(
        &bin,
        RunOptions {
            input: vec![40],
            ..RunOptions::default()
        },
    );
    assert_eq!(out.status, ExitStatus::Exit(0), "program exits cleanly");
    assert!(out.sim_entries >= 1, "simulation entered");
    assert!(out.rollbacks >= 1, "simulation rolled back");
    let buckets: Vec<String> = out.gadgets.iter().map(|g| g.bucket()).collect();
    // MDS: the secret was loaded. Cache: it composed the bar[] address.
    assert!(
        buckets.iter().any(|b| b == "User-MDS"),
        "expected User-MDS, got {buckets:?}"
    );
    assert!(
        buckets.iter().any(|b| b == "User-Cache"),
        "expected User-Cache, got {buckets:?}"
    );
    // Architectural state was fully restored: exit code unaffected.
}

#[test]
fn in_bounds_input_produces_no_gadget() {
    let bin = spectre_v1_binary(false);
    let out = run(
        &bin,
        RunOptions {
            input: vec![3],
            ..RunOptions::default()
        },
    );
    assert_eq!(out.status, ExitStatus::Exit(0));
    // Simulation still happens (the branch is simulated), but the access
    // foo[3] is in bounds: no ASan verdict, no secret, no report.
    assert!(out.sim_entries >= 1);
    assert!(
        out.gadgets.is_empty(),
        "unexpected gadgets: {:?}",
        out.gadgets
    );
}

#[test]
fn rollback_restores_architectural_state() {
    // The shadow path writes R7/R8; after rollback the real path must see
    // pristine registers. We verify by exiting with R7's value.
    let mut asm = Assembler::new("t");
    asm.data("arr", &[9u8; 8]);
    let mut f = asm.func("_start");
    let tramp = f.fresh_label();
    let real_done = f.fresh_label();
    let shadow = f.fresh_label();
    f.ins(Inst::MovRI {
        dst: Reg::R7,
        imm: 77,
    });
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 1,
    });
    f.ins(Inst::Cmp {
        lhs: Reg::R6,
        rhs: Operand::Imm(0),
    });
    f.sim_start(tramp);
    f.jcc(Cc::Ne, real_done);
    f.bind(real_done);
    exit_with(&mut f, Reg::R7);
    f.bind(tramp);
    f.jcc(Cc::Ne, shadow); // inverted entry
    f.bind(shadow);
    f.ins(Inst::MovRI {
        dst: Reg::R7,
        imm: 0,
    }); // clobber
    f.store_global(Reg::R7, "arr", 0, AccessSize::B8); // memory side effect
    f.raw(Inst::SimEnd);
    f.raw(Inst::Halt);
    asm.finish_func(f).unwrap();
    let flags = BinFlags {
        instrumented: true,
        asan: false,
        dift: false,
        nested_speculation: false,
        single_copy: true, // no meta: treat as single copy, no escape net
    };
    let bin = Linker::new()
        .flags(flags)
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(&bin, RunOptions::default());
    assert_eq!(out.status, ExitStatus::Exit(77));
    assert_eq!(out.rollbacks, 1);
}

#[test]
fn nested_speculation_reaches_deeper_gadgets() {
    let bin = spectre_v1_binary(true);
    let out = run(
        &bin,
        RunOptions {
            input: vec![40],
            ..RunOptions::default()
        },
    );
    assert!(out.gadgets.iter().any(|g| g.bucket() == "User-MDS"));
    // With nesting on, at least one nested entry happened (depth 2).
    assert!(out.sim_entries >= 2, "sim entries: {}", out.sim_entries);
}

#[test]
fn spectaint_emulation_finds_v1_pattern_without_instrumentation() {
    // Uninstrumented victim: bounds check + dependent double load.
    let mut asm = Assembler::new("t");
    asm.data("foo", &[1u8; 8]);
    asm.data("secret", &[0x41u8; 64]);
    asm.data("bar", &[0u8; 256]);
    asm.bss("inbuf", 16);
    let mut f = asm.func("_start");
    let ok = f.fresh_label();
    let out = f.fresh_label();
    f.lea_global(Reg::R1, "inbuf", 0);
    f.ins(Inst::MovRI {
        dst: Reg::R2,
        imm: 8,
    });
    f.ins(Inst::Syscall {
        num: sys::READ_INPUT,
    });
    f.load_global(Reg::R6, "inbuf", 0, AccessSize::B1, false);
    f.ins(Inst::Cmp {
        lhs: Reg::R6,
        rhs: Operand::Imm(8),
    });
    f.jcc(Cc::B, ok);
    f.jmp(out);
    f.bind(ok);
    f.load_global_indexed(Reg::R7, "foo", Reg::R6, 1, AccessSize::B1, false);
    f.load_global_indexed(Reg::R8, "bar", Reg::R7, 1, AccessSize::B1, false);
    f.bind(out);
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 0,
    });
    f.ins(Inst::Syscall { num: sys::EXIT });
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();

    let out = run(
        &bin,
        RunOptions {
            input: vec![40],
            emu: EmuStyle::SpecTaint,
            ..RunOptions::default()
        },
    );
    assert_eq!(out.status, ExitStatus::Exit(0));
    assert!(
        out.gadgets
            .iter()
            .any(|g| g.key.channel == Channel::Cache
                && g.key.controllability == Controllability::User),
        "SpecTaint should flag the transmission: {:?}",
        out.gadgets
    );
    // Emulation cost must dwarf native cost for the same program.
    let native = run(
        &bin,
        RunOptions {
            input: vec![40],
            ..RunOptions::default()
        },
    );
    assert!(out.cost > native.cost * 20);
}

#[test]
fn spectaint_five_tries_heuristic_limits_simulation() {
    // A loop executes the same branch 50 times; SpecTaint simulates it at
    // most 5 times, Teapot-style heuristics every time.
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    let top = f.fresh_label();
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 50,
    });
    f.bind(top);
    f.ins(Inst::Alu {
        op: AluOp::Sub,
        dst: Reg::R6,
        src: Operand::Imm(1),
    });
    f.jcc(Cc::Ne, top);
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 0,
    });
    f.ins(Inst::Syscall { num: sys::EXIT });
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let mut heur = SpecHeuristics::new(teapot_vm::HeurStyle::SpecTaintFive);
    let out = Machine::new(
        &bin,
        RunOptions {
            emu: EmuStyle::SpecTaint,
            ..RunOptions::default()
        },
    )
    .run(&mut heur);
    assert_eq!(out.status, ExitStatus::Exit(0));
    assert_eq!(out.sim_entries, 5);
}

#[test]
fn fuel_limit_stops_runaway_programs() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    let top = f.fresh_label();
    f.bind(top);
    f.jmp(top);
    asm.finish_func(f).unwrap();
    let bin = Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(
        &bin,
        RunOptions {
            fuel: 10_000,
            ..RunOptions::default()
        },
    );
    assert_eq!(out.status, ExitStatus::OutOfFuel);
    assert!(out.cost >= 10_000);
}

#[test]
fn guard_instructions_cost_more_than_nothing() {
    // Two identical programs, one with `guard` noise: the guarded one
    // must cost more — the effect Speculation Shadows removes.
    let build = |guards: bool| {
        let mut asm = Assembler::new("t");
        let mut f = asm.func("_start");
        for _ in 0..100 {
            if guards {
                f.raw(Inst::Guard);
            }
            f.ins(Inst::Alu {
                op: AluOp::Add,
                dst: Reg::R6,
                src: Operand::Imm(1),
            });
        }
        f.ins(Inst::MovRI {
            dst: Reg::R1,
            imm: 0,
        });
        f.ins(Inst::Syscall { num: sys::EXIT });
        asm.finish_func(f).unwrap();
        Linker::new()
            .add_object(asm.finish())
            .link("_start")
            .unwrap()
    };
    let plain = run(&build(false), RunOptions::default());
    let guarded = run(&build(true), RunOptions::default());
    assert_eq!(plain.status, ExitStatus::Exit(0));
    assert_eq!(guarded.status, ExitStatus::Exit(0));
    assert_eq!(
        guarded.cost - plain.cost,
        100 * teapot_rt::cost::GUARD,
        "guard overhead is exactly the modeled cost"
    );
}

#[test]
fn coverage_maps_distinguish_normal_and_speculative() {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    let tramp = f.fresh_label();
    let done = f.fresh_label();
    let shadow = f.fresh_label();
    f.ins(Inst::CovTrace { guard: 1 });
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: 1,
    });
    f.ins(Inst::Cmp {
        lhs: Reg::R6,
        rhs: Operand::Imm(0),
    });
    f.sim_start(tramp);
    f.jcc(Cc::Ne, done);
    f.bind(done);
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 0,
    });
    f.ins(Inst::Syscall { num: sys::EXIT });
    f.bind(tramp);
    f.jcc(Cc::Ne, shadow);
    f.bind(shadow);
    f.ins(Inst::CovNote { guard: 2 });
    f.raw(Inst::SimEnd);
    f.raw(Inst::Halt);
    asm.finish_func(f).unwrap();
    let flags = BinFlags {
        instrumented: true,
        single_copy: true,
        ..BinFlags::default()
    };
    let bin = Linker::new()
        .flags(flags)
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let out = run(&bin, RunOptions::default());
    assert_eq!(out.status, ExitStatus::Exit(0));
    assert_eq!(out.cov_normal.get(1), 1);
    assert_eq!(out.cov_spec.get(2), 1, "lazy note flushed at rollback");
    assert_eq!(out.cov_normal.get(2), 0);
}

/// Lowest address of the guest stack.
const STACK_BOTTOM: u64 = STACK_TOP - STACK_LIMIT;

fn load8(f: &mut teapot_asm::FuncAsm, dst: Reg, base: Reg, disp: i32) {
    f.ins(Inst::Load {
        dst,
        mem: MemRef::base_disp(base, disp),
        size: AccessSize::B8,
        sext: false,
    });
}

/// Reads the lowest stack word, then an untouched word on the page
/// above it, stores 90 to the lowest word and exits with the sum of the
/// three loads: 90 only if both first loads read zero.
fn stack_bottom_program() -> Binary {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: STACK_BOTTOM as i64,
    });
    load8(&mut f, Reg::R8, Reg::R6, 0);
    load8(&mut f, Reg::R9, Reg::R6, PAGE_SIZE as i32 + 16);
    f.ins(Inst::StoreI {
        imm: 90,
        mem: MemRef::base(Reg::R6),
        size: AccessSize::B8,
    });
    load8(&mut f, Reg::R7, Reg::R6, 0);
    for r in [Reg::R8, Reg::R9] {
        f.ins(Inst::Alu {
            op: AluOp::Add,
            dst: Reg::R7,
            src: Operand::Reg(r),
        });
    }
    exit_with(&mut f, Reg::R7);
    asm.finish_func(f).unwrap();
    Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap()
}

/// Stores 8 bytes at `addr`, then exits 0.
fn store_program(addr: u64) -> Binary {
    let mut asm = Assembler::new("t");
    let mut f = asm.func("_start");
    f.ins(Inst::MovRI {
        dst: Reg::R6,
        imm: addr as i64,
    });
    f.ins(Inst::StoreI {
        imm: -1,
        mem: MemRef::base(Reg::R6),
        size: AccessSize::B8,
    });
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 0,
    });
    f.ins(Inst::Syscall { num: sys::EXIT });
    asm.finish_func(f).unwrap();
    Linker::new()
        .add_object(asm.finish())
        .link("_start")
        .unwrap()
}

/// Runs `bin` twice on one reused context, on `tier`.
fn run_twice(bin: &Binary, tier: DispatchTier) -> [ExitStatus; 2] {
    let prog = Program::shared(bin);
    let mut ctx = ExecContext::new(&prog);
    std::array::from_fn(|_| {
        let mut m = Machine::with_context(&prog, &mut ctx, RunOptions::default());
        m.set_dispatch_tier(tier);
        m.run_stats(&mut SpecHeuristics::default()).status
    })
}

#[test]
fn the_whole_stack_is_mapped_zeroed_and_writable_on_every_run() {
    let unmapped = |addr| ExitStatus::Fault(Fault::Mem(MemFault::Unmapped { addr }));
    for tier in [DispatchTier::Compiled, DispatchTier::Step] {
        // The reused context's second run reads zero where the first
        // one stored.
        assert_eq!(
            run_twice(&stack_bottom_program(), tier),
            [ExitStatus::Exit(90); 2],
            "{tier:?}"
        );
        // One page below the stack is unmapped.
        assert_eq!(
            run_twice(&store_program(STACK_BOTTOM - PAGE_SIZE), tier),
            [unmapped(STACK_BOTTOM - PAGE_SIZE); 2],
            "{tier:?}"
        );
        // A store straddling the bottom faults at its first byte; one
        // straddling the top lands its low half, then faults at the top.
        assert_eq!(
            run_twice(&store_program(STACK_BOTTOM - 4), tier),
            [unmapped(STACK_BOTTOM - 4); 2],
            "{tier:?}"
        );
        assert_eq!(
            run_twice(&store_program(STACK_TOP - 4), tier),
            [unmapped(STACK_TOP); 2],
            "{tier:?}"
        );
    }
}
