//! Campaign throughput benchmark: execs/sec of the sharded orchestrator
//! vs. worker count on the jsmn workload. Writes `BENCH_campaign.json`.
//!
//! `--smoke` runs a short configuration (2 worker counts, 2 epochs) for
//! CI: it exercises the full campaign pipeline — predecode, sharding,
//! barriers, deterministic merge — and fails loudly if the orchestrator
//! diverges between worker counts **or** throughput falls below a floor
//! (`TEAPOT_SMOKE_MIN_EPS`, default 150 execs/sec). The floor locks in
//! the hot-path overhaul (flat region-backed memory + software TLB +
//! fused dispatch): before it, the slowest row — `pht,rsb,stl` —
//! ran at ~75 execs/sec, and the seed's per-run decode-and-reload
//! pipeline managed ~29, so the floor trips on any regression back
//! toward either without flaking on slow runners. The smoke run does
//! not overwrite `BENCH_campaign.json`.
fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let w = teapot_workloads::jsmn_like();
    if smoke {
        println!("Campaign smoke: 8 shards, 2 epochs, workers 1 vs 2");
        let result = teapot_bench::campaign::run_scaled(&w, &[1, 2], 2, 25);
        println!("{}", teapot_bench::campaign::render(&result));
        // The floor covers the per-model rows too: simulating RSB + STL
        // on top of PHT must not regress below the same throughput bar.
        let slowest = result
            .rows
            .iter()
            .map(|r| r.execs_per_sec)
            .chain(result.model_rows.iter().map(|r| r.execs_per_sec))
            .fold(f64::INFINITY, f64::min);
        let floor: f64 = std::env::var("TEAPOT_SMOKE_MIN_EPS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(150.0);
        if slowest < floor {
            eprintln!(
                "smoke FAILED: slowest row {slowest:.0} execs/sec is below the \
                 {floor:.0} execs/sec floor (override with TEAPOT_SMOKE_MIN_EPS)"
            );
            std::process::exit(1);
        }
        println!("smoke ok: slowest row {slowest:.0} execs/sec (floor {floor:.0})");
        return;
    }
    println!("Campaign throughput: 8 shards, execs/sec vs worker count");
    println!("(every worker row computes the identical merged gadget report;");
    println!(" spec-model rows measure the cost of simulating RSB/STL too;");
    println!(" medians over 3 timed reps, plus time-to-first-gadget on the");
    println!(" planted specmodel workloads)\n");
    let result = teapot_bench::campaign::run(&w, &[1, 2, 4, 8]);
    println!("{}", teapot_bench::campaign::render(&result));
    let json = teapot_bench::campaign::render_json(&result);
    std::fs::write("BENCH_campaign.json", &json).expect("write BENCH_campaign.json");
    println!("\nwrote BENCH_campaign.json");
}
