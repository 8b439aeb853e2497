//! The repository benchmark: end-to-end metrics of the Teapot pipeline
//! (compile → instrument → fuzz campaign → triage) on three workloads,
//! two of them declared in `BENCHMARK.json`, and a traced pass that
//! splits the time by crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <libyaml-pht|brotli-fleet|triage-mixed> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Standard output ends with one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (`{"name": {"value": v, "unit": u}}`). The lines
//! before it print every metric by name and unit, the failures, and a
//! host stamp (`nproc`, `rustc --version`, git revision when run inside
//! a git checkout, CPU model, and the filesystem the checkpoints were
//! written to). `--trace 0` prints the end-to-end metrics, `--trace 1`
//! the per-layer ones. The legacy `BENCH_*.json` files and the
//! `crates/bench` bins are not this benchmark: they were recorded on a
//! 1-CPU host with private timers and no layer split.
//!
//! # Workloads
//!
//! Each run cycles through a few campaign configurations (4 on the
//! campaign workloads, 8 on `triage-mixed`): all but the last have fixed
//! seeds, and the last is seeded from `--seed`. The fixed ones keep the
//! figures comparable across seeds (the triage rates spread 15-21% across
//! seeds when most configurations were seeded); the seeded one varies the
//! inputs. `gadgets` counts config 0, the canonical one, so it is a pure
//! function of the program. All load comes from this one process, with
//! at most two threads, in a closed loop: a round starts when the
//! previous one ends. One untimed warm-up round of config 0 comes first,
//! so no timed round pays for cold caches and a growing heap; every
//! configuration is then timed at least twice. Rounds are short (about
//! 0.4-1 s), so each configuration is timed several times in a run.
//! Set-up is repeated between rounds too (see `setup_s`).
//!
//! * `libyaml-pht`: `Campaign::run_shared` on libyaml, `pht`, workers 1,
//!   8 shards, 2 epochs of 5 iterations, then `triage` of the report.
//!   The VM-bound case: about 300 k guest instructions and 380
//!   checkpoint/rollback windows per execution. Cheaper speculation
//!   windows show here. It stands in for the planned jsmn
//!   campaign: jsmn reports no gadget under `pht` in 5,000 executions, and
//!   `gadgets`, `replays_per_s` and `witnesses_per_s` may not be 0.
//! * `brotli-fleet`: `teapot_fabric::run_fleet_threads` with 2 loopback
//!   workers and the coordinator on this thread; brotli under
//!   `pht,rsb,stl`, 16 shards, 5 epochs of 6 iterations, adaptive budgets
//!   and barrier corpus minimization; then `triage`. Short executions and
//!   many barriers stress import/dedup, deltas, merge, minimization, the
//!   straggler skew of parallel shards, and the RSB/STL models. One epoch
//!   engine and one snapshot format show here.
//! * `triage-mixed`: `teapot_triage::triage` with minimization and
//!   provenance, rendered to JSONL, text and SARIF, repeated over witness
//!   sets from brotli under `pht,rsb,stl` (many short-ddmin witnesses and
//!   RSB/STL provenance chains) and openssl under `pht` (few witnesses
//!   with deep ddmin). Short read-only replays and no corpus writes: the
//!   other use of the same VM. The campaigns that produce the witnesses
//!   run in process during set-up: brotli 8 shards, 2 epochs of 5
//!   iterations; openssl 8 shards, 2 epochs of 10. The seed varies only
//!   brotli's campaign: the replays openssl's deep ddmin needs swing about
//!   2x with its campaign seed, so a seeded openssl set moved the seeded
//!   configuration's triage rate between 1.9 k and 3.5 k replays/s.
//!
//! `brotli-fleet` runs by hand but is left out of `BENCHMARK.json`. Its two
//! worker threads need both CPUs of a 2-CPU host, so it feels contention
//! from other tenants most: on a shared 2-vCPU host its medians moved by
//! 30-39% between sets of ten runs of the same code, more than the largest
//! bound a metric may have. Its layers are still measured: every traced
//! run times the canonical configuration on the loopback fleet
//! (`fabric.*`), and the traced campaigns of `triage-mixed` run brotli
//! under `pht,rsb,stl` (the RSB/STL window counters).
//!
//! The fleet does not checkpoint inside the timed loop. The benchmark
//! reads and writes only inside its checkout, which is usually on disk,
//! and there each `.tcs` save pays an fsync: one 4.3 MB brotli checkpoint
//! cost about 200 ms per epoch on disk against about 8 ms on tmpfs, with
//! a 10.1-12.0 s spread over 4 fleet runs on disk. The loop would measure
//! the disk. The traced pass probes one save instead (see below), in
//! `.perfbench-work/`, and the host stamp names its filesystem.
//!
//! # End-to-end metrics (`--trace 0`)
//!
//! `execs_per_s` (campaign executions per second; on `triage-mixed` those
//! of its witness campaigns), `replays_per_s` and `witnesses_per_s`
//! (triage VM replays and triaged witnesses per second of triage pass),
//! `setup_s` (median set-up wall, scaled by host speed as below:
//! compile → strip → `rewrite` → `Program::shared` for every program,
//! plus all configurations' witness
//! campaigns on `triage-mixed`. It is sampled before the timed loop and
//! between its rounds, so the samples span the run: 15 set-ups after
//! every round on the campaign workloads, where one takes milliseconds,
//! and one after every pass through the 8 configurations on
//! `triage-mixed`, where one takes about 4-5 s and re-times the witness
//! campaigns), `peak_heap_mib` (median over the timed rounds of the
//! canonical configuration of the most heap bytes live at once during the
//! round, counted by a wrapper around the system allocator; see
//! `CountingAlloc`), `gadgets` (unique gadgets, or root causes on
//! `triage-mixed`), `norm_cost` (paper Fig 7: Teapot cost over native on
//! each program's large input, geomean), and on jsmn
//! `fig7_teapot_vs_specfuzz` and `fig7_spectaint_vs_teapot`.
//!
//! Each throughput is the configurations' summed work over the sum of
//! their fastest walls (per job, for the witness campaigns of
//! `triage-mixed`). Fastest, not median: on a shared 2-vCPU host a spin
//! loop pinned to one vCPU ran at 18-22 ms or at 36-45 ms per pass, in
//! phases of one to several seconds, as other tenants came and went.
//! Interference only adds time, so the fastest of several short repeats
//! is the steadiest figure of the program's own speed: over five seeds the
//! medians of the repeats spread 14-17% (IQR over median) on
//! `libyaml-pht`, their fastest 3-6%. Slower drifts of the same host, over
//! minutes, still moved whole runs: in one set of ten libyaml-pht runs
//! the fastest canonical campaign took 0.32 s in some runs and 0.42 s in
//! others, execs_per_s read 421-598 (spread 0.26), and `setup_s`,
//! identical work, moved with it (1.6 against 2.5 ms). So each figure is
//! then scaled to the host's fast phase by the run's host speed: the
//! nominal wall of a fixed reference kernel that shares no code with the
//! program (42 ms in a fast phase of that host) over its fastest wall in
//! the run, sampled once after every round. Throughputs are divided by
//! it and `setup_s` multiplied by it. A change to the program cannot move
//! that factor; it is on the `host speed` line of standard error, so the
//! raw figures can be recovered. Over ten seeds in a drifting
//! phase (factor 0.91-0.99), `triage-mixed`'s raw throughputs spread
//! 6.5-7% and the scaled ones 0.8-1.7%.
//!
//! Failed operations: a campaign JSON that differs between repeats of a
//! configuration; triage JSONL or SARIF that differ between passes, or a
//! replay failure; a fleet report that differs from an in-process
//! `workers 1` run; a planted `spectre-rsb` / `spectre-stl` gadget that is
//! missing with its model on or reported with it off; SpecTaint less than
//! 10x costlier than Teapot on jsmn (paper Fig 7; the paper reports over
//! 20x, this reproduction 19.7x); and, when traced, any traced result that
//! is not byte-identical to the untraced one.
//!
//! # Per-layer metrics (`--trace 1`)
//!
//! A traced run spends half of `--seconds` on the untraced rounds, then
//! repeats the same rounds through each crate's public functions (see
//! `traced.rs`) with a timer around every call, and checks that shard
//! snapshots, campaign JSON and triage JSONL are byte-identical to the
//! untraced run. Every workload prints every layer metric. Layer, metric
//! → the end-to-end metric and workload it should move (where that is the
//! by-hand `brotli-fleet`, the declared workloads still show the campaign
//! and fuzz layers in `execs_per_s` on `libyaml-pht`, and the RSB/STL
//! counters in `execs_per_s` on `triage-mixed`):
//!
//! * `core`: `core.rewrite_ms` → `setup_s` (all).
//! * `vm`: `vm.program_build_ms` → `setup_s`. `vm.exec_us_p50`,
//!   `vm.exec_us_p90`, `vm.minsts_per_s` and `vm.reset_us` come from
//!   re-executing the canonical campaign's final shard corpora with
//!   `Machine::with_context` + `run_stats` on one pooled `ExecContext`,
//!   heuristics seeded from each shard's counts → `execs_per_s` on
//!   `libyaml-pht` (`vm.reset_us` also on `brotli-fleet`). From the
//!   always-on `VmCounters` of the traced shards: `vm.insts_per_exec`,
//!   `vm.windows_per_exec`, `vm.windows_rsb_per_exec`,
//!   `vm.windows_stl_per_exec`, `vm.memlog_bytes_per_rollback`,
//!   `vm.compiled_exits_per_kinst`, `vm.tlb_miss_ratio` → `execs_per_s`
//!   on `libyaml-pht`; the RSB/STL ones on `brotli-fleet`.
//! * `fuzz`: `fuzz.run_iters_ms` (seed corpus + `run_iters_shared`, per
//!   campaign), `fuzz.keep_ratio` (corpus additions / executions) and
//!   `fuzz.self_share`, an estimate by subtraction (unit `share_est`):
//!   (fuzz time − the fuzz phase's retired instructions at the probe's
//!   instruction rate) / fuzz time →
//!   `execs_per_s` on `brotli-fleet`.
//! * `campaign`: `campaign.import_ms`, `campaign.import_keep_ratio`,
//!   `campaign.clones_dropped`, `campaign.minimize_ms`,
//!   `campaign.shard_skew` (slowest / mean shard fuzz time per epoch),
//!   `campaign.delta_encode_us` (`take_delta` + `encode_delta`),
//!   `campaign.delta_decode_us`, `campaign.delta_bytes_per_epoch`,
//!   `campaign.checkpoint_encode_ms`, `campaign.checkpoint_ms`,
//!   `campaign.checkpoint_bytes`,
//!   `campaign.report_ms` and `campaign.barrier_wait_ms` (thread-time idle
//!   at barriers) → `execs_per_s` on `brotli-fleet`.
//! * `fabric`: `fabric.merge_ms` (`apply_delta` in shard order),
//!   `fabric.leases` and `fabric.overhead_share` (1 − in-process wall /
//!   fleet wall at equal parallelism, canonical config, no checkpoints)
//!   → `execs_per_s` on `brotli-fleet`.
//! * `triage`: `triage.replay_us` (`Replayer::replay`),
//!   `triage.minimize_ms_per_witness`, `triage.ddmin_steps_per_witness`,
//!   `triage.provenance_ms_per_witness` (`replay_provenance` +
//!   `provenance::extract` + symbolization), `triage.enrich_us`
//!   (`root_cause` + `severity` + `symbolize` + insert, per entry),
//!   `triage.render_ms` (`to_jsonl`, `to_text`, `sarif::render`) and
//!   `triage.replay_failures` → `replays_per_s` and `witnesses_per_s` on
//!   `triage-mixed`.
//! * `trace`: `trace.unaccounted_share` (1 − timed thread-time / threads
//!   × traced wall) and `trace.overhead` (traced wall / untraced wall − 1
//!   over the same rounds), per workload. The traced campaigns run in
//!   process, so on `brotli-fleet` the untraced wall is that of untraced
//!   in-process runs of the same configurations, made beside the traced
//!   ones: the fleet's transport cost stays in `fabric.overhead_share`.
//!   Tracing costs little, so `trace.overhead` is near the host's noise
//!   and can come out slightly negative.
//!
//! Per-campaign times are means over the traced campaigns. Probes run
//! once on the canonical campaign, outside both walls:
//! `campaign.minimize_ms` when barrier minimization is off, and the
//! checkpoint of the final boundary (`campaign.checkpoint_encode_ms` for
//! `to_bytes`, `campaign.checkpoint_ms` for `save` with its fsync). Every
//! traced campaign ships per-epoch deltas through encode, decode and
//! merge as the fleet does; on in-process workloads that cost counts in
//! `trace.overhead`.

use std::path::Path;
use std::process::ExitCode;

use teapot_perfbench::{run, Options, Workload};

/// Scratch directory for checkpoint probes, relative to the checkout.
const WORK_ROOT: &str = ".perfbench-work";

fn usage() -> ExitCode {
    eprintln!(
        "usage: teapot-perfbench --workload <libyaml-pht|brotli-fleet|triage-mixed> \
         --seed <n> --seconds <s> --trace <0|1>"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (
        value("--workload").and_then(Workload::parse),
        value("--seed").and_then(|s| s.parse::<u64>().ok()),
        value("--seconds").and_then(|s| s.parse::<f64>().ok()),
        value("--trace").and_then(|s| match s {
            "0" => Some(false),
            "1" => Some(true),
            _ => None,
        }),
    ) else {
        return usage();
    };
    let opts = Options {
        workload,
        seed,
        seconds,
        trace,
        tiny: false,
        work_dir: Path::new(WORK_ROOT).join(std::process::id().to_string()),
    };
    let out = run(&opts);
    // Fails, harmlessly, while another run still uses the directory.
    let _ = std::fs::remove_dir(WORK_ROOT);

    for f in &out.failures {
        println!("FAILED {f}");
    }
    for m in &out.metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    let field = |(k, v): &(&str, String)| format!("\"{k}\": \"{}\"", v.replace(['"', '\\'], "'"));
    let host: Vec<String> = out.host.iter().map(field).collect();
    println!("{{\"host\": {{{}}}}}", host.join(", "));
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
