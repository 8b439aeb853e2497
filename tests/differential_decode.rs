//! Differential decode test: the predecoded-`Program` dispatch path must
//! be observably identical to the seed's per-step live decoding.
//!
//! The execution-pipeline refactor replaced the per-run lazy instruction
//! cache with a binary-wide predecoded table. The live decoder is kept
//! behind a test hook (`Machine::set_uncached_decode`); this suite runs
//! the full workload set through **both** paths — Teapot-instrumented
//! native execution, the single-copy SpecFuzz baseline, and SpecTaint
//! emulation of the original binary — and asserts bit-identical
//! `RunOutcome`s: status, cost accounting, instruction counts, gadget
//! reports, both coverage maps, program output and simulation counters.
//!
//! The dispatch half of the suite differences the compiled execution
//! tier against single-step interpretation (via
//! `Machine::set_dispatch_tier`) over the same workloads, model sets and
//! adversarial inputs, plus a deterministic random-fuel sweep that cuts
//! runs off mid-window and a provenance sweep that compares the origin
//! shadow's witness traces (tainted-access origins and leak sites).

use teapot::cc::Options;
use teapot::core::{rewrite, RewriteOptions};
use teapot::obj::Binary;
use teapot::rt::TraceEvent;
use teapot::vm::{DispatchTier, EmuStyle, Machine, RunOptions, SpecHeuristics, SpecModelSet};

fn outcome(
    bin: &Binary,
    input: &[u8],
    emu: EmuStyle,
    fuel: u64,
    uncached: bool,
) -> teapot::vm::RunOutcome {
    let mut heur = SpecHeuristics::default();
    let mut m = Machine::new(
        bin,
        RunOptions {
            input: input.to_vec(),
            emu,
            fuel,
            ..RunOptions::default()
        },
    );
    m.set_uncached_decode(uncached);
    m.run(&mut heur)
}

/// Like [`outcome`] but forcing an explicit dispatch tier (compiled
/// windows / single-step) instead of the decode path,
/// under an explicit model set and fuel budget.
fn outcome_tier(
    bin: &Binary,
    input: &[u8],
    models: SpecModelSet,
    tier: DispatchTier,
    fuel: u64,
) -> teapot::vm::RunOutcome {
    let mut heur = SpecHeuristics::default();
    let mut m = Machine::new(
        bin,
        RunOptions {
            input: input.to_vec(),
            models,
            fuel,
            ..RunOptions::default()
        },
    );
    m.set_dispatch_tier(tier);
    m.run(&mut heur)
}

/// Runs the same input on both dispatch tiers and asserts the
/// `RunOutcome`s are bit-identical, with single-step as the reference.
fn assert_tiers_agree(bin: &Binary, input: &[u8], models: SpecModelSet, fuel: u64, what: &str) {
    let step = outcome_tier(bin, input, models, DispatchTier::Step, fuel);
    let compiled = outcome_tier(bin, input, models, DispatchTier::Compiled, fuel);
    assert_outcomes_equal(&compiled, &step, &format!("{what}: compiled vs step"));
}

fn assert_outcomes_equal(a: &teapot::vm::RunOutcome, b: &teapot::vm::RunOutcome, what: &str) {
    assert_eq!(a.status, b.status, "{what}: status");
    assert_eq!(a.cost, b.cost, "{what}: cost units");
    assert_eq!(a.insts, b.insts, "{what}: instruction count");
    assert_eq!(a.gadgets, b.gadgets, "{what}: gadget reports");
    assert_eq!(a.cov_normal.raw(), b.cov_normal.raw(), "{what}: normal cov");
    assert_eq!(a.cov_spec.raw(), b.cov_spec.raw(), "{what}: spec cov");
    assert_eq!(a.output, b.output, "{what}: program output");
    assert_eq!(a.sim_entries, b.sim_entries, "{what}: sim entries");
    assert_eq!(a.rollbacks, b.rollbacks, "{what}: rollbacks");
    assert_eq!(a.escapes, b.escapes, "{what}: escapes");
}

fn assert_paths_agree(bin: &Binary, input: &[u8], emu: EmuStyle, fuel: u64, what: &str) {
    let cached = outcome(bin, input, emu, fuel, false);
    let live = outcome(bin, input, emu, fuel, true);
    assert_eq!(cached.status, live.status, "{what}: status");
    assert_eq!(cached.cost, live.cost, "{what}: cost units");
    assert_eq!(cached.insts, live.insts, "{what}: instruction count");
    assert_eq!(cached.gadgets, live.gadgets, "{what}: gadget reports");
    assert_eq!(
        cached.cov_normal.raw(),
        live.cov_normal.raw(),
        "{what}: normal coverage map"
    );
    assert_eq!(
        cached.cov_spec.raw(),
        live.cov_spec.raw(),
        "{what}: speculative coverage map"
    );
    assert_eq!(cached.output, live.output, "{what}: program output");
    assert_eq!(cached.sim_entries, live.sim_entries, "{what}: sim entries");
    assert_eq!(cached.rollbacks, live.rollbacks, "{what}: rollbacks");
    assert_eq!(cached.escapes, live.escapes, "{what}: escapes");
}

/// A second, adversarial input per workload: flip bytes of the first
/// seed so runs stray from the happy path (crashes and wild speculative
/// control flow exercise the fallback decoder too).
fn mangled(seed: &[u8]) -> Vec<u8> {
    let mut v = seed.to_vec();
    if v.is_empty() {
        v = vec![0xff; 8];
    }
    for (i, b) in v.iter_mut().enumerate() {
        if i % 3 == 0 {
            *b ^= 0xa5;
        }
    }
    v
}

#[test]
fn teapot_instrumented_runs_identically_on_both_decode_paths() {
    for w in teapot::workloads::all() {
        let mut cots = w.build(&Options::gcc_like()).unwrap();
        cots.strip();
        let inst = rewrite(&cots, &RewriteOptions::default()).unwrap();
        for (i, seed) in w.seeds.iter().take(2).enumerate() {
            assert_paths_agree(
                &inst,
                seed,
                EmuStyle::Native,
                RunOptions::default().fuel,
                &format!("{} (teapot, seed {i})", w.name),
            );
        }
        let bad = mangled(&w.seeds[0]);
        assert_paths_agree(
            &inst,
            &bad,
            EmuStyle::Native,
            RunOptions::default().fuel,
            &format!("{} (teapot, mangled)", w.name),
        );
    }
}

#[test]
fn single_copy_baseline_runs_identically_on_both_decode_paths() {
    let w = teapot::workloads::jsmn_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    let sf =
        teapot::baselines::specfuzz_rewrite(&cots, &teapot::baselines::SpecFuzzOptions::default())
            .unwrap();
    for (i, seed) in w.seeds.iter().take(2).enumerate() {
        assert_paths_agree(
            &sf,
            seed,
            EmuStyle::Native,
            RunOptions::default().fuel,
            &format!("jsmn (specfuzz, seed {i})"),
        );
    }
    assert_paths_agree(
        &sf,
        &mangled(&w.seeds[0]),
        EmuStyle::Native,
        RunOptions::default().fuel,
        "jsmn (specfuzz, mangled)",
    );
}

#[test]
fn spectaint_emulation_runs_identically_on_both_decode_paths() {
    let w = teapot::workloads::jsmn_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    // Emulation is ~150× costlier per instruction; a tighter fuel budget
    // keeps the test fast while still ending both paths the same way.
    let fuel = 20_000_000;
    assert_paths_agree(
        &cots,
        &w.seeds[0],
        EmuStyle::SpecTaint,
        fuel,
        "jsmn (spectaint, seed 0)",
    );
    assert_paths_agree(
        &cots,
        &mangled(&w.seeds[0]),
        EmuStyle::SpecTaint,
        fuel,
        "jsmn (spectaint, mangled)",
    );
}

#[test]
fn pooled_context_reuse_matches_fresh_machines() {
    // The other half of the refactor: a single ExecContext reset in
    // place between runs must be indistinguishable from building a
    // fresh Machine (new address space, shadows, coverage) per input —
    // including after a crashing run and after a run that left
    // simulation state behind.
    use teapot::vm::{ExecContext, Program};
    let w = teapot::workloads::jsmn_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    let inst = rewrite(&cots, &RewriteOptions::default()).unwrap();

    let prog = Program::shared(&inst);
    let mut ctx = ExecContext::new(&prog);
    let mut inputs: Vec<Vec<u8>> = w.seeds.iter().take(2).cloned().collect();
    inputs.push(mangled(&w.seeds[0]));
    inputs.push(w.seeds[0].clone()); // repeat: reuse after other inputs

    for (i, input) in inputs.iter().enumerate() {
        let opts = RunOptions {
            input: input.clone(),
            ..RunOptions::default()
        };
        let mut h_pooled = SpecHeuristics::default();
        let stats = Machine::with_context(&prog, &mut ctx, opts.clone()).run_stats(&mut h_pooled);
        let mut h_fresh = SpecHeuristics::default();
        let fresh = Machine::new(&inst, opts).run(&mut h_fresh);

        assert_eq!(stats.status, fresh.status, "input {i}: status");
        assert_eq!(stats.cost, fresh.cost, "input {i}: cost");
        assert_eq!(stats.insts, fresh.insts, "input {i}: insts");
        assert_eq!(stats.sim_entries, fresh.sim_entries, "input {i}");
        assert_eq!(stats.rollbacks, fresh.rollbacks, "input {i}");
        assert_eq!(ctx.gadgets(), &fresh.gadgets[..], "input {i}: gadgets");
        assert_eq!(
            ctx.cov_normal().raw(),
            fresh.cov_normal.raw(),
            "input {i}: normal coverage"
        );
        assert_eq!(
            ctx.cov_spec().raw(),
            fresh.cov_spec.raw(),
            "input {i}: speculative coverage"
        );
        assert_eq!(ctx.output(), &fresh.output[..], "input {i}: output");
    }
}

#[test]
fn dispatch_matrix_is_identical_on_compiled_and_step() {
    // The compiled-window fast path must be observably identical to
    // per-instruction dispatch — across the full workload suite
    // (Teapot-instrumented), the planted RSB/STL ground-truth programs,
    // and the full speculation-model set (checkpoint pushes,
    // store-buffer bypasses and RSB mispredictions all cut compiled
    // windows short mid-run).
    let all_models = SpecModelSet::parse("pht,rsb,stl").unwrap();
    let fuel = RunOptions::default().fuel;
    let mut suite = teapot::workloads::all();
    suite.extend(teapot::workloads::spec_suite());
    for w in suite {
        let mut cots = w.build(&Options::gcc_like()).unwrap();
        cots.strip();
        let inst = rewrite(&cots, &RewriteOptions::default()).unwrap();
        for models in [SpecModelSet::PHT_ONLY, all_models] {
            for (i, seed) in w.seeds.iter().take(2).enumerate() {
                assert_tiers_agree(
                    &inst,
                    seed,
                    models,
                    fuel,
                    &format!("{} (models {models}, seed {i})", w.name),
                );
            }
            let bad = mangled(&w.seeds[0]);
            assert_tiers_agree(
                &inst,
                &bad,
                models,
                fuel,
                &format!("{} (models {models}, mangled)", w.name),
            );
        }
    }
}

#[test]
fn dispatch_matrix_matches_on_single_copy_baseline() {
    // Single-copy (SpecFuzz-style) layouts exercise the cost-zeroing
    // rule and in-place simulation; the compiled tier must reproduce them.
    let w = teapot::workloads::jsmn_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    let sf =
        teapot::baselines::specfuzz_rewrite(&cots, &teapot::baselines::SpecFuzzOptions::default())
            .unwrap();
    let fuel = RunOptions::default().fuel;
    for (i, seed) in w.seeds.iter().take(2).enumerate() {
        assert_tiers_agree(
            &sf,
            seed,
            SpecModelSet::PHT_ONLY,
            fuel,
            &format!("jsmn specfuzz seed {i}"),
        );
    }
    let bad = mangled(&w.seeds[0]);
    assert_tiers_agree(
        &sf,
        &bad,
        SpecModelSet::PHT_ONLY,
        fuel,
        "jsmn specfuzz mangled",
    );
}

#[test]
fn random_fuel_limits_land_identically_on_both_tiers() {
    // A deterministic xorshift sweep of fuel budgets cuts runs off at
    // arbitrary points — including mid-compiled-window, where the
    // compiled tier must decline the window rather than overshoot the
    // budget — and both tiers must land the same fault or exit at the
    // same cost.
    let w = teapot::workloads::jsmn_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    let inst = rewrite(&cots, &RewriteOptions::default()).unwrap();
    let models = SpecModelSet::parse("pht,rsb,stl").unwrap();

    // A full run's cost bounds the interesting fuel range.
    let full = outcome_tier(
        &inst,
        &w.seeds[0],
        models,
        DispatchTier::Step,
        RunOptions::default().fuel,
    );
    let span = full.cost.max(1);

    let mut state = 0x243f_6a88_85a3_08d3u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for round in 0..24u32 {
        let fuel = 1 + next() % span;
        let input = if round % 2 == 0 {
            w.seeds[0].clone()
        } else {
            mangled(&w.seeds[0])
        };
        assert_tiers_agree(
            &inst,
            &input,
            models,
            fuel,
            &format!("jsmn fuel sweep round {round} (fuel {fuel})"),
        );
    }
}

/// One provenance replay on a forced tier: witness recording and the
/// origin shadow on, everything read back out of the pooled context.
fn provenance_run(
    prog: &std::sync::Arc<teapot::vm::Program>,
    input: &[u8],
    models: SpecModelSet,
    tier: DispatchTier,
) -> (teapot::vm::RunOutcome, Vec<TraceEvent>) {
    let mut ctx = teapot::vm::ExecContext::new(prog);
    ctx.set_witness_recording(true);
    ctx.set_provenance(true);
    let mut heur = SpecHeuristics::default();
    let opts = RunOptions {
        input: input.to_vec(),
        models,
        ..RunOptions::default()
    };
    let mut m = Machine::with_context(prog, &mut ctx, opts);
    m.set_dispatch_tier(tier);
    let stats = m.run_stats(&mut heur);
    let trace = ctx.trace().to_vec();
    let outcome = teapot::vm::RunOutcome {
        status: stats.status,
        cost: stats.cost,
        insts: stats.insts,
        gadgets: ctx.take_gadgets(),
        cov_normal: ctx.cov_normal().clone(),
        cov_spec: ctx.cov_spec().clone(),
        output: ctx.output().to_vec(),
        sim_entries: stats.sim_entries,
        rollbacks: stats.rollbacks,
        escapes: stats.escapes,
    };
    (outcome, trace)
}

#[test]
fn provenance_replays_are_identical_on_compiled_and_step() {
    // Provenance replays run on the compiled tier with the full
    // memory-access templates; they must resolve exactly the origins
    // and leak sites the reference interpreter resolves.
    let all_models = SpecModelSet::parse("pht,rsb,stl").unwrap();
    // The planted spectre-* trigger (OOB index 20) makes the spec
    // suite leak, so the origin comparison is never vacuous.
    let trigger: &[u8] = &[0x14, 0x00];
    let mut origin_events = 0usize;
    let mut suite = teapot::workloads::all();
    suite.extend(teapot::workloads::spec_suite());
    for w in suite {
        let mut cots = w.build(&Options::gcc_like()).unwrap();
        cots.strip();
        let inst = rewrite(&cots, &RewriteOptions::default()).unwrap();
        let prog = teapot::vm::Program::shared(&inst);
        let mut inputs: Vec<Vec<u8>> = w.seeds.iter().take(2).cloned().collect();
        inputs.push(mangled(&w.seeds[0]));
        inputs.push(trigger.to_vec());
        for models in [SpecModelSet::PHT_ONLY, all_models] {
            for (i, input) in inputs.iter().enumerate() {
                let what = format!("{} (models {models}, input {i}, provenance)", w.name);
                let (step, step_trace) = provenance_run(&prog, input, models, DispatchTier::Step);
                let (compiled, compiled_trace) =
                    provenance_run(&prog, input, models, DispatchTier::Compiled);
                assert_outcomes_equal(&compiled, &step, &format!("{what}: compiled vs step"));
                assert_eq!(compiled_trace, step_trace, "{what}: witness trace");
                origin_events += step_trace
                    .iter()
                    .filter(|e| e.origin().offsets().is_some())
                    .count();
            }
        }
    }
    assert!(origin_events > 0, "no run resolved any input origin");
}

/// A hand-made instrumented program whose control flow lands where no
/// walked instruction starts. In the Real Copy: a `sim.start` whose
/// Shadow-Copy window jumps into a data island of the Real Copy (an
/// escape), then an architectural jump into the 64-bit immediate of a
/// `mov`, whose bytes decode as seven `nop`s and a marker, then a jump
/// into the island (an invalid-instruction fault). Returns the binary,
/// the island's address and the number of instructions inside the
/// immediate.
fn off_walk_program() -> (Binary, u64, u64) {
    use teapot::asm::Assembler;
    use teapot::isa::{encode, Inst, Reg};
    use teapot::obj::{BinFlags, Linker, LoadedSection, SectionKind};
    use teapot::rt::TeapotMeta;

    let body = [[Inst::Nop; 7].as_slice(), &[Inst::MarkerNop]].concat();
    let imm_bytes: Vec<u8> = body.iter().flat_map(|i| encode(i).bytes).collect();
    let host = Inst::MovRI {
        dst: Reg::R7,
        imm: i64::from_le_bytes(imm_bytes.clone().try_into().unwrap()),
    };
    let Some((imm_at, 8)) = encode(&host).patch.imm_at else {
        panic!("the host mov must carry a 64-bit immediate");
    };
    let placeholder = Inst::MovRI {
        dst: Reg::R9,
        imm: 0,
    };
    let island_len = encode(&placeholder).bytes.len();

    let mut asm = Assembler::new("offwalk");
    let mut f = asm.func("_start");
    let tramp = f.fresh_label();
    f.sim_start(tramp);
    f.ins_imm_sym(Reg::R6, "host", imm_at as i64);
    f.raw(Inst::JmpInd { target: Reg::R6 });
    f.bind_symbol("host");
    f.raw(host);
    f.ins_imm_sym(Reg::R6, "island", 0);
    f.raw(Inst::JmpInd { target: Reg::R6 });
    f.bind_symbol("island");
    f.raw(placeholder);
    f.bind_symbol("shadow");
    f.bind(tramp);
    f.ins_imm_sym(Reg::R6, "island", 1);
    f.raw(Inst::JmpInd { target: Reg::R6 });
    asm.finish_func(f).unwrap();
    let flags = BinFlags {
        instrumented: true,
        asan: false,
        dift: false,
        nested_speculation: false,
        single_copy: false,
    };
    let mut bin = Linker::new()
        .flags(flags)
        .add_object(asm.finish())
        .link("_start")
        .unwrap();
    let addr = |name: &str| bin.symbols.iter().find(|s| s.name == name).unwrap().addr;
    let (island, shadow) = (addr("island"), addr("shadow"));
    let text = bin.sections.iter_mut().find(|s| s.name == ".text").unwrap();
    let at = (island - text.vaddr) as usize;
    text.bytes[at..at + island_len].fill(0xff); // an unassigned opcode
    let meta = TeapotMeta {
        real_range: (text.vaddr, shadow),
        shadow_range: (shadow, text.end()),
        indirect_map: vec![],
        addr_map: vec![],
    };
    bin.sections.push(LoadedSection {
        name: ".teapot.meta".into(),
        kind: SectionKind::Note,
        vaddr: 0,
        bytes: meta.to_bytes(),
        mem_size: 0,
    });
    (bin, island, body.len() as u64)
}

#[test]
fn control_flow_off_the_walk_decodes_live_on_every_path() {
    use teapot::vm::{ExecContext, ExitStatus, Fault, Program};
    let (bin, island, body_insts) = off_walk_program();
    let prog = Program::shared(&bin);
    assert!(
        prog.stats().undecoded_bytes > 0,
        "the island must be a gap in the walk"
    );

    let mut ctx = ExecContext::new(&prog);
    let mut run = |tier: DispatchTier, uncached: bool| {
        let before = ctx.telemetry().live_decodes;
        let mut m = Machine::with_context(&prog, &mut ctx, RunOptions::default());
        m.set_dispatch_tier(tier);
        m.set_uncached_decode(uncached);
        let out = m.run(&mut SpecHeuristics::default());
        (out, ctx.telemetry().live_decodes - before)
    };
    let (compiled, compiled_live) = run(DispatchTier::Compiled, false);
    let (step, step_live) = run(DispatchTier::Step, false);
    let (uncached, _) = run(DispatchTier::Compiled, true);
    assert_outcomes_equal(&compiled, &step, "off-walk: compiled vs step");
    assert_outcomes_equal(&compiled, &uncached, "off-walk: predecoded vs uncached");

    // The architectural jump into the island is an invalid instruction;
    // the speculative one into the Real-Copy island is an escape,
    // caught before any decode.
    assert_eq!(
        compiled.status,
        ExitStatus::Fault(Fault::BadInst { pc: island })
    );
    assert_eq!(compiled.sim_entries, 1);
    assert_eq!(
        compiled.escapes, 1,
        "the Real-Copy island must count an escape"
    );
    // Each instruction inside the immediate is decoded live, on both
    // tiers; everything else comes from the tables.
    assert_eq!(compiled_live, body_insts);
    assert_eq!(step_live, body_insts);
}
