//! End-to-end Speculation Shadows tests: compile MiniC → strip → rewrite
//! → execute on the VM. These exercise the complete paper pipeline
//! (Fig. 3): semantic preservation, gadget detection with the Kasper
//! policy, indirect-branch integrity, jump-table retargeting, and the
//! guard-free performance property.

use teapot_cc::{compile_to_binary, Options, SwitchLowering};
use teapot_core::{rewrite, RewriteOptions};
use teapot_obj::Binary;
use teapot_vm::{ExitStatus, Machine, RunOptions, SpecHeuristics};

fn cots(src: &str, opts: &Options) -> Binary {
    let mut bin = compile_to_binary(src, opts).expect("compile");
    bin.strip();
    bin
}

fn run(bin: &Binary, input: &[u8]) -> teapot_vm::RunOutcome {
    let mut heur = SpecHeuristics::default();
    Machine::new(
        bin,
        RunOptions {
            input: input.to_vec(),
            ..RunOptions::default()
        },
    )
    .run(&mut heur)
}

/// The paper's Listing 1 in MiniC: the canonical Spectre-V1 victim.
/// `foo` is heap-allocated so binary ASan can see the speculative
/// out-of-bounds access (globals are unprotected, §6.2.1).
const LISTING1: &str = "
    char bar[256];
    int baz;
    char inbuf[8];
    int main() {
        char *foo = malloc(16);
        read_input(inbuf, 8);
        int index = inbuf[0];
        if (index < 10) {
            int secret = foo[index];
            baz = bar[secret];
        }
        return index;
    }";

/// The same victim with a *global* array: per the paper (§7.3) these
/// out-of-bounds accesses are invisible to binary ASan and the gadget is
/// a documented false negative.
const LISTING1_GLOBAL: &str = "
    char foo[16];
    char bar[256];
    int baz;
    char inbuf[8];
    int main() {
        read_input(inbuf, 8);
        int index = inbuf[0];
        if (index < 10) {
            int secret = foo[index];
            baz = bar[secret];
        }
        return index;
    }";

#[test]
fn rewriting_preserves_semantics() {
    let orig = cots(LISTING1, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).expect("rewrite");
    for input in [&[3u8][..], &[9], &[200], &[0], b"xyz"] {
        let a = run(&orig, input);
        let b = run(&inst, input);
        assert_eq!(a.status, b.status, "input {input:?}");
        assert_eq!(a.output, b.output);
        assert_eq!(b.escapes, 0, "no control-flow escapes");
    }
}

#[test]
fn listing1_gadget_is_detected() {
    let orig = cots(LISTING1, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).expect("rewrite");
    // In-bounds *for the bounds check* (index < 10) but the misprediction
    // path is entered with index >= 10: a value like 200 trains nothing —
    // the simulation always runs the wrong path, so index=200 drives the
    // speculative foo[200] out-of-bounds read.
    let out = run(&inst, &[200]);
    assert_eq!(out.status, ExitStatus::Exit(200));
    let buckets: Vec<String> = out.gadgets.iter().map(|g| g.bucket()).collect();
    assert!(
        buckets.iter().any(|b| b == "User-MDS"),
        "User-MDS expected (secret loaded), got {buckets:?}"
    );
    assert!(
        buckets.iter().any(|b| b == "User-Cache"),
        "User-Cache expected (bar[secret] transmit), got {buckets:?}"
    );
    // Report coordinates are in the ORIGINAL binary's text range.
    let (lo, hi) = {
        let t = orig.section(".text").unwrap();
        (t.vaddr, t.vaddr + t.bytes.len() as u64)
    };
    for g in &out.gadgets {
        assert!(
            g.key.pc >= lo && g.key.pc < hi,
            "report pc {:#x} not in original text",
            g.key.pc
        );
    }
}

#[test]
fn global_array_gadgets_are_missed_as_documented() {
    // Paper §7.3: "Teapot admittedly misses gadgets that leak via global
    // array out-of-bounds accesses". Reproduce the limitation.
    let orig = cots(LISTING1_GLOBAL, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let out = run(&inst, &[200]);
    assert_eq!(out.status, ExitStatus::Exit(200));
    assert!(
        out.gadgets.is_empty(),
        "global-array OOB must be a (documented) miss: {:?}",
        out.gadgets
    );
}

#[test]
fn in_bounds_only_inputs_report_nothing() {
    let orig = cots(LISTING1, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let out = run(&inst, &[2]);
    assert_eq!(out.status, ExitStatus::Exit(2));
    assert!(out.gadgets.is_empty(), "got {:?}", out.gadgets);
    assert!(out.sim_entries >= 1, "branch was still simulated");
    assert!(out.rollbacks >= 1);
}

#[test]
fn computational_programs_survive_rewriting() {
    let progs: &[(&str, i64)] = &[
        (
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
             int main() { return fib(12); }",
            144,
        ),
        (
            "int main() {
                 int s = 0;
                 for (int i = 0; i < 20; i++) {
                     if (i % 3 == 0) { s += i; } else { s -= 1; }
                 }
                 return s;
             }",
            (0..20).filter(|i| i % 3 == 0).sum::<i64>() - 13,
        ),
        (
            "int sq(int x) { return x * x; }
             int main() { fnptr f = &sq; return f(9); }",
            81,
        ),
    ];
    for (src, expected) in progs {
        let orig = cots(src, &Options::gcc_like());
        let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
        let out = run(&inst, &[]);
        assert_eq!(out.status, ExitStatus::Exit(*expected), "program: {src}");
        assert_eq!(out.escapes, 0);
    }
}

#[test]
fn jump_table_binaries_are_rewritten_correctly() {
    let src = "int sink;
               int f(int v) {
                   switch (v) {
                       case 0: return 40;
                       case 1: return 41;
                       case 2: return 42;
                       case 3: return 43;
                       default: return 9;
                   }
               }
               char inbuf[4];
               int main() {
                   read_input(inbuf, 4);
                   return f(inbuf[0]);
               }";
    let orig = cots(
        src,
        &Options {
            switch_lowering: SwitchLowering::JumpTable,
            ..Options::gcc_like()
        },
    );
    let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
    // The copied jump table in rodata must be retargeted to the Real Copy:
    // execution through the table must still work for every case.
    for (input, expected) in [(0u8, 40i64), (1, 41), (2, 42), (3, 43), (200, 9)] {
        let out = run(&inst, &[input]);
        assert_eq!(out.status, ExitStatus::Exit(expected), "case {input}");
        assert_eq!(out.escapes, 0);
    }
}

#[test]
fn indirect_calls_in_speculation_are_redirected_not_escaped() {
    // A function pointer called under a mispredicted branch: during
    // simulation the CallInd target is a Real Copy address; ind.check must
    // redirect it to the Shadow Copy (paper Fig. 5b).
    let src = "int leaky(int x) { return x + 1; }
               char inbuf[8];
               int main() {
                   read_input(inbuf, 8);
                   fnptr f = &leaky;
                   int v = inbuf[0];
                   int r = 0;
                   if (v < 5) {
                       r = f(v);
                   }
                   return r;
               }";
    let orig = cots(src, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
    for input in [[2u8], [9u8]] {
        let out = run(&inst, &input);
        assert!(matches!(out.status, ExitStatus::Exit(_)));
        assert_eq!(out.escapes, 0, "ind.check must redirect, not escape");
        assert!(out.rollbacks >= 1);
    }
}

#[test]
fn returns_during_simulation_are_contained() {
    // fib recursion: simulation windows will span call/return pairs
    // (paper Fig. 5a). All returns must stay in the shadow world.
    let src = "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
               int main() { return fib(9); }";
    let orig = cots(src, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let out = run(&inst, &[]);
    assert_eq!(out.status, ExitStatus::Exit(34));
    assert_eq!(out.escapes, 0);
    assert!(out.rollbacks > 10, "plenty of simulations happened");
}

#[test]
fn real_copy_has_no_guards_and_no_asan() {
    // The Speculation Shadows property (paper §5.1): the Real Copy carries
    // no `guard` and no ASan checks; they exist only in the Shadow Copy.
    use teapot_isa::{decode_at, Inst};
    let orig = cots(LISTING1, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let shadow_copies = inst.symbols.iter().filter(|s| s.name.ends_with("$spec"));
    assert!(shadow_copies.count() >= 2, "main and _start are duplicated");
    let meta =
        teapot_rt::TeapotMeta::from_bytes(&inst.note(".teapot.meta").unwrap().bytes).unwrap();
    let text = inst.section(".text").unwrap();
    let mut pc = text.vaddr;
    let mut real_asan = 0;
    let mut shadow_asan = 0;
    let mut guards = 0;
    let mut real_sim_starts = 0;
    let mut markers = 0;
    let mut ind_checks = 0;
    while pc < text.vaddr + text.bytes.len() as u64 {
        let off = (pc - text.vaddr) as usize;
        let (i, len) = decode_at(&text.bytes[off..], pc).unwrap();
        match i {
            Inst::AsanCheck { .. } => {
                if meta.in_real(pc) {
                    real_asan += 1;
                } else {
                    shadow_asan += 1;
                }
            }
            Inst::Guard => guards += 1,
            Inst::SimStart { .. } if meta.in_real(pc) => real_sim_starts += 1,
            Inst::MarkerNop => markers += 1,
            Inst::IndCheck { .. } => ind_checks += 1,
            _ => {}
        }
        pc += len as u64;
    }
    assert_eq!(real_asan, 0, "Real Copy must not carry ASan checks");
    assert!(shadow_asan >= 2, "foo[index] + bar[secret]: {shadow_asan}");
    assert_eq!(guards, 0, "Speculation Shadows eliminates all guards");
    assert!(real_sim_starts >= 1, "a checkpoint before every branch");
    assert!(markers >= 1, "return site of main");
    assert!(ind_checks >= 1, "ret in shadow copies");
    // The Shadow region is larger than the Real region: the
    // instrumentation lives there.
    assert!(meta.shadow_range.1 - meta.shadow_range.0 > meta.real_range.1 - meta.real_range.0);
    assert!(!meta.addr_map.is_empty());
}

#[test]
fn nested_speculation_disabled_reduces_sim_entries() {
    let src = "char a[4]; char b[4]; char c[256]; int g; char inbuf[8];
               int main() {
                   read_input(inbuf, 8);
                   int i = inbuf[0];
                   if (i < 4) {
                       if (i < 3) {
                           g = c[a[i] + b[i]];
                       }
                   }
                   return 0;
               }";
    let orig = cots(src, &Options::gcc_like());
    let nested = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let flat = rewrite(&orig, &RewriteOptions::perf_comparison()).unwrap();
    let out_nested = run(&nested, &[100]);
    let out_flat = run(&flat, &[100]);
    assert!(out_nested.sim_entries > out_flat.sim_entries);
}

#[test]
fn rewriting_instrumented_binary_is_rejected() {
    let orig = cots(LISTING1, &Options::gcc_like());
    let once = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let err = rewrite(&once, &RewriteOptions::default()).unwrap_err();
    assert!(matches!(
        err,
        teapot_core::RewriteError::Dis(teapot_dis::DisError::AlreadyInstrumented)
    ));
}

#[test]
fn asan_only_policy_ablation() {
    // Policy::AsanOnly puts SpecFuzz-like detection on the Speculation
    // Shadows architecture: OOB accesses are flagged without taint, so
    // reports appear even for uncontrolled indices — and no DIFT
    // instrumentation is emitted at all.
    use teapot_core::Policy;
    use teapot_isa::{decode_at, Inst};
    let orig = cots(LISTING1, &Options::gcc_like());
    let opts = RewriteOptions {
        policy: Policy::AsanOnly,
        ..RewriteOptions::default()
    };
    let inst = rewrite(&orig, &opts).unwrap();
    assert!(!inst.flags.dift);
    // No tag-propagation opcodes anywhere.
    let text = inst.section(".text").unwrap();
    let mut pc = text.vaddr;
    while pc < text.vaddr + text.bytes.len() as u64 {
        let off = (pc - text.vaddr) as usize;
        let (i, len) = decode_at(&text.bytes[off..], pc).unwrap();
        assert!(
            !matches!(i, Inst::TagProp | Inst::TagBlockProp { .. }),
            "DIFT op at {pc:#x} under AsanOnly"
        );
        pc += len as u64;
    }
    // The OOB is still reported (as an unclassified SpecFuzz-style hit).
    let out = run(&inst, &[200]);
    assert!(!out.gadgets.is_empty());
    // The Kasper build reports strictly classified buckets instead.
    let kasper = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let out_k = run(&kasper, &[200]);
    assert!(out_k.gadgets.iter().any(|g| g.bucket() == "User-Cache"));
}

#[test]
fn reports_deduplicate_across_real_and_shadow_copies() {
    // The same original instruction reached through different simulation
    // paths must produce ONE report key (meta address translation).
    let orig = cots(LISTING1, &Options::gcc_like());
    let inst = rewrite(&orig, &RewriteOptions::default()).unwrap();
    let mut heur = SpecHeuristics::default();
    let mut keys = std::collections::HashSet::new();
    for _ in 0..10 {
        let out = Machine::new(
            &inst,
            RunOptions {
                input: vec![200],
                ..RunOptions::default()
            },
        )
        .run(&mut heur);
        for g in out.gadgets {
            keys.insert(g.key);
        }
    }
    // Exactly one User-Cache transmit site exists in Listing 1.
    let cache_user: Vec<_> = keys
        .iter()
        .filter(|k| {
            k.channel == teapot_rt::Channel::Cache
                && k.controllability == teapot_rt::Controllability::User
        })
        .collect();
    assert_eq!(cache_user.len(), 1, "{cache_user:?}");
}
