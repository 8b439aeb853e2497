//! Fabric fleet benchmark: executions per second of a loopback
//! coordinator/worker fleet, and how many delta bytes per epoch the
//! wire actually carries (the savings the epoch-delta protocol buys
//! over shipping full shard snapshots every barrier).
//!
//! Like the campaign benchmark, every row computes the *same* report —
//! the harness asserts each fleet size reproduces the single-host
//! report exactly before timing is trusted, so the benchmark doubles
//! as a fleet-determinism check.

use std::time::Instant;
use teapot_campaign::{Campaign, CampaignConfig, CampaignReport};
use teapot_core::{rewrite, RewriteOptions};
use teapot_fabric::{run_fleet_threads, FleetOptions};
use teapot_fuzz::StateSnapshot;
use teapot_workloads::Workload;

/// One fleet-size measurement.
#[derive(Debug, Clone)]
pub struct FleetRow {
    /// Fleet size (worker threads behind the coordinator); 0 = the
    /// single-host `--workers 1` baseline row.
    pub fleet: usize,
    /// Total executions the campaign performed (identical across rows).
    pub execs: u64,
    /// Wall-clock seconds.
    pub secs: f64,
    /// Throughput.
    pub execs_per_sec: f64,
    /// Delta payload bytes merged over the whole campaign.
    pub delta_bytes: u64,
    /// Delta payload bytes per epoch barrier.
    pub delta_bytes_per_epoch: u64,
    /// Bytes a full-snapshot protocol would have shipped per epoch
    /// (every shard's complete state) — the savings denominator.
    pub snapshot_bytes_per_epoch: u64,
    /// Leases granted.
    pub leases: u64,
    /// Unique gadgets in the merged report (identical across rows).
    pub unique_gadgets: usize,
}

/// Result of [`run_scaled`].
#[derive(Debug, Clone)]
pub struct FabricResult {
    /// Workload name.
    pub workload: String,
    /// Shards in every campaign.
    pub shards: u32,
    /// Epochs in every campaign.
    pub epochs: u32,
    /// CPUs available on the benchmarking host.
    pub cpus: usize,
    /// One row per fleet size, baseline first.
    pub rows: Vec<FleetRow>,
}

/// Runs the fleet experiment on `w`: a single-host baseline, then one
/// loopback fleet per entry of `fleet_sizes`, asserting every fleet
/// reproduces the baseline report byte-for-byte.
///
/// # Panics
///
/// Panics if any fleet's report differs from the single-host baseline
/// — that would be a fabric merge bug, and timing a diverging
/// computation would be meaningless.
pub fn run_scaled(
    w: &Workload,
    fleet_sizes: &[usize],
    epochs: u32,
    iters_per_epoch: u64,
) -> FabricResult {
    let cots = crate::cots_binary(w);
    let bin = rewrite(&cots, &RewriteOptions::default()).expect("rewrite");
    let shards = 8u32;
    let cfg = CampaignConfig {
        shards,
        workers: 1,
        epochs,
        iters_per_epoch,
        dictionary: w.dictionary.clone(),
        ..CampaignConfig::default()
    };

    let mut rows = Vec::new();
    let start = Instant::now();
    let mut baseline_campaign = Campaign::new(cfg.clone()).expect("valid config");
    let baseline: CampaignReport =
        baseline_campaign.run_shared(&teapot_vm::Program::shared(&bin), &w.seeds);
    let secs = start.elapsed().as_secs_f64();
    // What a naive protocol would ship per barrier: every shard's full
    // state, twice (each phase re-synchronizes), measured on the final
    // boundary via the snapshot codec.
    let snapshot_bytes: u64 = baseline_campaign
        .snapshot(&bin)
        .shard_states
        .iter()
        .map(|s| encoded_len(s) as u64)
        .sum();
    rows.push(FleetRow {
        fleet: 0,
        execs: baseline.iters,
        secs,
        execs_per_sec: baseline.iters as f64 / secs.max(1e-9),
        delta_bytes: 0,
        delta_bytes_per_epoch: 0,
        snapshot_bytes_per_epoch: 2 * snapshot_bytes,
        leases: 0,
        unique_gadgets: baseline.unique_gadgets(),
    });

    for &fleet in fleet_sizes {
        let start = Instant::now();
        let outcome = run_fleet_threads(
            &bin,
            &w.seeds,
            &cfg,
            FleetOptions {
                workers: fleet,
                ..FleetOptions::default()
            },
        )
        .expect("fleet campaign");
        let secs = start.elapsed().as_secs_f64();
        let report = outcome.campaign.report();
        assert_eq!(
            baseline, report,
            "fleet of {fleet} diverged from the single-host report"
        );
        rows.push(FleetRow {
            fleet,
            execs: report.iters,
            secs,
            execs_per_sec: report.iters as f64 / secs.max(1e-9),
            delta_bytes: outcome.stats.delta_bytes,
            delta_bytes_per_epoch: outcome.stats.delta_bytes / u64::from(epochs),
            snapshot_bytes_per_epoch: 2 * snapshot_bytes,
            leases: outcome.stats.leases,
            unique_gadgets: report.unique_gadgets(),
        });
    }

    FabricResult {
        workload: w.name.to_string(),
        shards,
        epochs,
        cpus: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        rows,
    }
}

/// Serialized size of one shard state under the snapshot codec.
fn encoded_len(s: &StateSnapshot) -> usize {
    let mut w = teapot_campaign::snapshot::Writer::new();
    teapot_campaign::snapshot::write_shard_state(&mut w, s);
    w.into_bytes().len()
}

/// Renders the result as an aligned text table.
pub fn render(r: &FabricResult) -> String {
    let headers = [
        "fleet",
        "execs",
        "secs",
        "execs/sec",
        "delta B/epoch",
        "snapshot B/epoch",
        "leases",
        "gadgets",
    ];
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|row| {
            vec![
                if row.fleet == 0 {
                    "1 host".into()
                } else {
                    row.fleet.to_string()
                },
                row.execs.to_string(),
                format!("{:.2}", row.secs),
                format!("{:.0}", row.execs_per_sec),
                row.delta_bytes_per_epoch.to_string(),
                row.snapshot_bytes_per_epoch.to_string(),
                row.leases.to_string(),
                row.unique_gadgets.to_string(),
            ]
        })
        .collect();
    crate::render_table(&headers, &rows)
}

/// Renders the result as the `BENCH_fabric.json` document.
pub fn render_json(r: &FabricResult) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"workload\": \"{}\",\n", r.workload));
    out.push_str(&format!("  \"shards\": {},\n", r.shards));
    out.push_str(&format!("  \"epochs\": {},\n", r.epochs));
    out.push_str(&format!("  \"cpus\": {},\n", r.cpus));
    out.push_str("  \"results\": [");
    for (i, row) in r.rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"fleet\": {}, \"execs\": {}, \"secs\": {:.4}, \
             \"execs_per_sec\": {:.1}, \"delta_bytes\": {}, \
             \"delta_bytes_per_epoch\": {}, \"snapshot_bytes_per_epoch\": {}, \
             \"leases\": {}, \"unique_gadgets\": {}}}",
            row.fleet,
            row.execs,
            row.secs,
            row.execs_per_sec,
            row.delta_bytes,
            row.delta_bytes_per_epoch,
            row.snapshot_bytes_per_epoch,
            row.leases,
            row.unique_gadgets
        ));
    }
    out.push_str("\n  ]\n}\n");
    out
}
