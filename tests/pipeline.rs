//! Cross-crate integration: every workload through the complete paper
//! pipeline (compile → strip → disassemble → rewrite → execute → fuzz).

use teapot::campaign::CampaignConfig;
use teapot::cc::Options;
use teapot::core::{rewrite, RewriteOptions};
use teapot::vm::{ExitStatus, Machine, RunOptions, SpecHeuristics};

#[test]
fn every_workload_survives_the_full_pipeline() {
    for w in teapot::workloads::all() {
        let mut cots = w
            .build(&Options::gcc_like())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        cots.strip();

        // Disassembly recovers a sensible program.
        let g = teapot::dis::disassemble(&cots).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(g.functions.len() >= 3, "{}", w.name);
        assert!(!g.conditional_branches().is_empty(), "{}", w.name);

        // Rewriting preserves behaviour on every seed.
        let inst = rewrite(&cots, &RewriteOptions::default())
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        for (i, seed) in w.seeds.iter().enumerate() {
            let mut h1 = SpecHeuristics::default();
            let a = Machine::new(
                &cots,
                RunOptions {
                    input: seed.clone(),
                    ..RunOptions::default()
                },
            )
            .run(&mut h1);
            let mut h2 = SpecHeuristics::default();
            let b = Machine::new(
                &inst,
                RunOptions {
                    input: seed.clone(),
                    ..RunOptions::default()
                },
            )
            .run(&mut h2);
            assert_eq!(a.status, b.status, "{} seed {i}", w.name);
            assert_eq!(a.output, b.output, "{} seed {i}", w.name);
            assert_eq!(b.escapes, 0, "{} seed {i}: control-flow escape", w.name);
            assert!(b.sim_entries > 0, "{} seed {i}: no simulation", w.name);
        }
    }
}

#[test]
fn specfuzz_baseline_survives_the_full_pipeline() {
    for w in teapot::workloads::all() {
        let mut cots = w.build(&Options::gcc_like()).unwrap();
        cots.strip();
        let sf = teapot::baselines::specfuzz_rewrite(
            &cots,
            &teapot::baselines::SpecFuzzOptions::default(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let mut h1 = SpecHeuristics::default();
        let a = Machine::new(
            &cots,
            RunOptions {
                input: w.seeds[0].clone(),
                ..RunOptions::default()
            },
        )
        .run(&mut h1);
        let mut h2 = teapot::baselines::specfuzz_heuristics();
        let b = Machine::new(
            &sf,
            RunOptions {
                input: w.seeds[0].clone(),
                ..RunOptions::default()
            },
        )
        .run(&mut h2);
        assert_eq!(a.status, b.status, "{}", w.name);
    }
}

#[test]
fn short_campaigns_run_on_rewritten_workloads() {
    // jsmn is the paper's zero-gadget program; brotli its most
    // gadget-dense. Short campaigns must reflect that ordering.
    let campaign = |w: &teapot::workloads::Workload| {
        let mut cots = w.build(&Options::gcc_like()).unwrap();
        cots.strip();
        let inst = rewrite(&cots, &RewriteOptions::default()).unwrap();
        let cfg = CampaignConfig {
            dictionary: w.dictionary.clone(),
            ..CampaignConfig::default()
        };
        teapot_bench::fuzz_one_shard(&inst, &w.seeds, 120, cfg)
    };
    let res_jsmn = campaign(&teapot::workloads::jsmn_like());
    let res_brotli = campaign(&teapot::workloads::brotli_like());
    assert_eq!(
        res_jsmn.unique_gadgets(),
        0,
        "jsmn stays clean: {:?}",
        res_jsmn.buckets
    );
    assert!(
        res_brotli.unique_gadgets() > 0,
        "brotli yields gadgets: {:?}",
        res_brotli.buckets
    );
}

#[test]
fn cots_binaries_round_trip_through_the_container() {
    let w = teapot::workloads::ssl_like();
    let mut cots = w.build(&Options::gcc_like()).unwrap();
    cots.strip();
    let bytes = cots.to_bytes();
    let back = teapot::obj::Binary::from_bytes(&bytes).unwrap();
    assert_eq!(back, cots);
    // And the reloaded binary still runs.
    let mut h = SpecHeuristics::default();
    let out = Machine::new(
        &back,
        RunOptions {
            input: w.seeds[0].clone(),
            ..RunOptions::default()
        },
    )
    .run(&mut h);
    assert!(matches!(out.status, ExitStatus::Exit(_)));
}
