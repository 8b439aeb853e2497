//! Criterion benches over the paper's experiment components.
//!
//! These measure the *host-side* speed of the reproduction's pipeline
//! stages (rewriting throughput, instrumented-execution throughput,
//! disassembly). The authoritative figure/table harnesses live in
//! `src/bin/` — run `cargo run --release -p teapot-bench --bin fig7` etc.
//! Campaign, fleet and triage throughput, and the per-layer split of
//! it, are the repository benchmark's job (`perfbench/`).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use teapot_baselines::{specfuzz_rewrite, SpecFuzzOptions};
use teapot_bench::{cots_binary, large_input};
use teapot_core::{rewrite, RewriteOptions};
use teapot_vm::{Machine, RunOptions, SpecHeuristics};

fn bench_rewriting(c: &mut Criterion) {
    let mut group = c.benchmark_group("rewrite");
    for w in teapot_workloads::all() {
        let cots = cots_binary(&w);
        group.bench_function(format!("teapot/{}", w.name), |b| {
            b.iter(|| rewrite(&cots, &RewriteOptions::default()).unwrap())
        });
    }
    let jsmn = cots_binary(&teapot_workloads::jsmn_like());
    group.bench_function("specfuzz/jsmn", |b| {
        b.iter(|| specfuzz_rewrite(&jsmn, &SpecFuzzOptions::default()).unwrap())
    });
    group.finish();
}

fn bench_execution(c: &mut Criterion) {
    let mut group = c.benchmark_group("execute");
    group.sample_size(10);
    for name in ["jsmn", "libhtp"] {
        let w = teapot_workloads::all()
            .into_iter()
            .find(|w| w.name == name)
            .unwrap();
        let cots = cots_binary(&w);
        let input = large_input(name);
        let teapot_bin = rewrite(&cots, &RewriteOptions::perf_comparison()).unwrap();
        group.bench_function(format!("native/{name}"), |b| {
            b.iter_batched(
                SpecHeuristics::default,
                |mut h| {
                    Machine::new(
                        &cots,
                        RunOptions {
                            input: input.clone(),
                            ..RunOptions::default()
                        },
                    )
                    .run(&mut h)
                },
                BatchSize::SmallInput,
            )
        });
        group.bench_function(format!("teapot/{name}"), |b| {
            b.iter_batched(
                SpecHeuristics::default,
                |mut h| {
                    Machine::new(
                        &teapot_bin,
                        RunOptions {
                            input: input.clone(),
                            ..RunOptions::default()
                        },
                    )
                    .run(&mut h)
                },
                BatchSize::SmallInput,
            )
        });
    }
    group.finish();
}

fn bench_disassembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("disassemble");
    for w in teapot_workloads::all() {
        let cots = cots_binary(&w);
        group.bench_function(w.name, |b| {
            b.iter(|| teapot_dis::disassemble(&cots).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_rewriting, bench_execution, bench_disassembly);
criterion_main!(benches);
