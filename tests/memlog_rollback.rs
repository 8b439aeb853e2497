//! Exact rollback with the once-per-level memory log.
//!
//! A speculation window logs a store's old bytes only when its
//! checkpoint level has not logged every one of them yet; rollback
//! still charges `ROLLBACK_PER_LOG` for every store whose old bytes
//! read back. This hand-assembled window walks every case the elision
//! has to get right — repeated stores to one word, a narrow store
//! before and after a wide one, a store straddling two words, a nested
//! level re-storing words its outer level already logged, and a store
//! that faults mid-window — and checks on both dispatch tiers that
//! memory and DIFT tags come back pristine and that the run costs
//! exactly what per-store logging charges.

use teapot_asm::{Assembler, FuncAsm};
use teapot_isa::{sys, AccessSize, Cc, Inst, MemRef, Operand, Reg};
use teapot_obj::{BinFlags, Binary, Linker};
use teapot_rt::{cost, Tag};
use teapot_vm::{
    DispatchTier, ExecContext, ExitStatus, Machine, Program, RunOptions, SpecHeuristics,
};

/// Input bytes read into `inbuf[0..40]` (tainted USER); `inbuf[40..48]`
/// stays zero and clean.
const INPUT_LEN: usize = 40;
const BUF_LEN: usize = 48;

/// The window's stores: `(displacement from inbuf, width, payload)`.
/// Each is followed by a `tag.prop` marker, so the compiled tier folds
/// a marker run into every store record after the first.
const OUTER: [(i32, AccessSize, i32); 8] = [
    (0, AccessSize::B8, 0x11),  // word 0: logged
    (0, AccessSize::B8, 0x12),  // word 0 again: covered
    (11, AccessSize::B1, 0x21), // word 1, byte 3: logged
    (8, AccessSize::B8, 0x22),  // word 1 whole: not covered, logged
    (16, AccessSize::B8, 0x31), // word 2 whole: logged
    (21, AccessSize::B1, 0x32), // word 2, byte 5: covered
    (28, AccessSize::B8, 0x51), // straddles words 3/4: always logged
    (28, AccessSize::B8, 0x52), // straddles again: logged again
];

/// Stores after the nested `sim.start`: they run once in the nested
/// level (fresh generation: word 0 and word 1 are logged again) and,
/// after its rollback, once more in the outer level.
const INNER: [(i32, AccessSize, i32); 4] = [
    (0, AccessSize::B8, 0x41),
    (0, AccessSize::B8, 0x42),
    (10, AccessSize::B2, 0x43),
    (10, AccessSize::B2, 0x44),
];

/// Emits one window store, or — for the reference twin — a `mov` of
/// the same cost class that touches no memory.
fn store(f: &mut FuncAsm, (disp, size, imm): (i32, AccessSize, i32), real: bool) {
    if real {
        f.ins(Inst::StoreI {
            imm,
            mem: MemRef::base_disp(Reg::R9, disp),
            size,
        });
    } else {
        f.ins(Inst::MovRI {
            dst: Reg::R11,
            imm: imm as i64,
        });
    }
    f.raw(Inst::TagProp);
}

/// Loads the word at `inbuf + disp` and, unless it equals `want`, runs
/// four extra instructions: a wrong restore inside the window shows up
/// as extra cost.
fn check_word(f: &mut FuncAsm, disp: i32, want: u64) {
    let ok = f.fresh_label();
    f.ins(Inst::Load {
        dst: Reg::R12,
        mem: MemRef::base_disp(Reg::R9, disp),
        size: AccessSize::B8,
        sext: false,
    });
    f.ins(Inst::MovRI {
        dst: Reg::R13,
        imm: want as i64,
    });
    f.ins(Inst::Cmp {
        lhs: Reg::R12,
        rhs: Operand::Reg(Reg::R13),
    });
    f.jcc(Cc::E, ok);
    for _ in 0..4 {
        f.ins(Inst::MovRI {
            dst: Reg::R11,
            imm: 0,
        });
    }
    f.bind(ok);
}

/// The pristine little-endian word `w` of `inbuf`.
fn input_word(w: u8) -> u64 {
    u64::from_le_bytes(std::array::from_fn(|i| 8 * w + i as u8 + 1))
}

/// Builds the program; `stores == false` gives the twin whose window
/// runs the same instructions minus the memory effects of the stores.
fn window_program(stores: bool) -> Binary {
    let mut asm = Assembler::new("memlog");
    asm.bss("inbuf", BUF_LEN as u64);
    let mut f = asm.func("_start");
    let tramp = f.fresh_label();
    let shadow = f.fresh_label();
    let real_done = f.fresh_label();
    let nested = f.fresh_label();
    let after = f.fresh_label();

    f.lea_global(Reg::R1, "inbuf", 0);
    f.ins(Inst::MovRI {
        dst: Reg::R2,
        imm: INPUT_LEN as i64,
    });
    f.ins(Inst::Syscall {
        num: sys::READ_INPUT,
    });
    f.lea_global(Reg::R9, "inbuf", 0);
    f.ins(Inst::MovRI {
        dst: Reg::R10,
        imm: 0x10, // unmapped: the faulting store's target
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
    f.ins(Inst::MovRI {
        dst: Reg::R1,
        imm: 0,
    });
    f.ins(Inst::Syscall { num: sys::EXIT });

    f.bind(tramp);
    f.jcc(Cc::Ne, shadow);
    f.bind(shadow);
    for s in OUTER {
        store(&mut f, s, stores);
    }
    // Nested level: both directions continue at `after`.
    f.ins(Inst::Cmp {
        lhs: Reg::R6,
        rhs: Operand::Imm(0),
    });
    f.sim_start(nested);
    f.jcc(Cc::Ne, after);
    f.jmp(after);
    f.bind(nested);
    f.jcc(Cc::Ne, after);
    f.jmp(after);
    f.bind(after);
    // Both levels must find the outer level's words here: the nested
    // level's rollback has to restore what the outer level stored.
    let (w0, w1) = if stores {
        (0x12, 0x22)
    } else {
        (input_word(0), input_word(1))
    };
    check_word(&mut f, 0, w0);
    check_word(&mut f, 8, w1);
    for s in INNER {
        store(&mut f, s, stores);
    }
    // Faults mid-window in both levels and rolls the level back. A
    // faulting store reads no old bytes, so it is no logical entry: the
    // twin faults with a load, which never logs.
    let unmapped = MemRef::base_disp(Reg::R10, 0);
    if stores {
        f.ins(Inst::StoreI {
            imm: 0x66,
            mem: unmapped,
            size: AccessSize::B8,
        });
    } else {
        f.ins(Inst::Load {
            dst: Reg::R12,
            mem: unmapped,
            size: AccessSize::B8,
            sext: false,
        });
    }
    f.raw(Inst::SimEnd);
    f.raw(Inst::Halt);
    asm.finish_func(f).unwrap();
    let flags = BinFlags {
        instrumented: true,
        asan: false,
        dift: true,
        nested_speculation: true,
        single_copy: false,
    };
    Linker::new()
        .flags(flags)
        .add_object(asm.finish())
        .link("_start")
        .unwrap()
}

/// What one run leaves behind.
struct Outcome {
    status: ExitStatus,
    cost: u64,
    sim_entries: u64,
    rollbacks: u64,
    bytes: Vec<u8>,
    tags: Vec<Tag>,
    replayed: u64,
}

fn run(bin: &Binary, tier: DispatchTier) -> Outcome {
    let inbuf = bin.find_symbol("inbuf").expect("inbuf symbol").addr;
    let prog = Program::shared(bin);
    let mut ctx = ExecContext::new(&prog);
    let opts = RunOptions {
        input: (1..=INPUT_LEN as u8).collect(),
        ..RunOptions::default()
    };
    let (stats, bytes, tags) = {
        let mut m = Machine::with_context(&prog, &mut ctx, opts);
        m.set_dispatch_tier(tier);
        let stats = m.run_stats(&mut SpecHeuristics::default());
        let mut bytes = vec![0u8; BUF_LEN];
        m.mem().read_n(inbuf, &mut bytes).expect("inbuf mapped");
        let tags = (0..BUF_LEN as u64)
            .map(|i| m.taint().mem_tag(inbuf + i))
            .collect();
        (stats, bytes, tags)
    };
    Outcome {
        status: stats.status,
        cost: stats.cost,
        sim_entries: stats.sim_entries,
        rollbacks: stats.rollbacks,
        bytes,
        tags,
        replayed: ctx.telemetry().memlog_bytes_replayed,
    }
}

#[test]
fn once_per_level_log_restores_exactly_and_charges_per_store() {
    // Every store of the window, counted the way per-store logging
    // counts them: the outer stores once, the inner ones in both levels.
    let logical = (OUTER.len() + 2 * INNER.len()) as u64;
    // Replayed bytes: outer words 0, 1 (byte 3, then whole), 2 and both
    // straddles (8 + 1 + 8 + 8 + 8 + 8); per level of the inner block,
    // word 0 once and word 1's two bytes once (8 + 2). Logging every
    // store would replay 90.
    let replayed = 41 + 2 * 10;

    let mut pristine_bytes: Vec<u8> = (1..=INPUT_LEN as u8).collect();
    pristine_bytes.resize(BUF_LEN, 0);
    let mut pristine_tags = vec![Tag::USER; INPUT_LEN];
    pristine_tags.resize(BUF_LEN, Tag::CLEAN);

    let with = window_program(true);
    let twin = window_program(false);
    for tier in [DispatchTier::Compiled, DispatchTier::Step] {
        let got = run(&with, tier);
        let base = run(&twin, tier);
        assert_eq!(got.status, ExitStatus::Exit(0), "{tier:?}");
        assert_eq!((got.sim_entries, got.rollbacks), (2, 2), "{tier:?}");
        assert_eq!(got.bytes, pristine_bytes, "{tier:?}: memory not restored");
        assert_eq!(got.tags, pristine_tags, "{tier:?}: tags not restored");
        assert_eq!(base.bytes, pristine_bytes, "{tier:?}");
        assert_eq!(base.tags, pristine_tags, "{tier:?}");
        assert_eq!(
            got.cost - base.cost,
            logical * cost::ROLLBACK_PER_LOG,
            "{tier:?}: rollback must charge every logical entry"
        );
        assert_eq!(got.replayed, replayed, "{tier:?}");
        assert_eq!(base.replayed, 0);
    }
}
