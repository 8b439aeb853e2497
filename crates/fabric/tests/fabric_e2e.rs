//! Fabric acceptance tests: the "fleet equals single-host" invariant.
//!
//! A 2-worker loopback fleet must produce a report byte-identical to
//! `--workers 1` — for every speculation-model set, after a mid-epoch
//! worker crash and re-lease, across checkpoint boundaries, and in
//! queue mode (where a stale checkpoint is ignored, not resumed).

use std::net::TcpListener;
use teapot_campaign::{Campaign, CampaignConfig, CampaignError, CampaignSnapshot};
use teapot_cc::{compile_to_binary, Options};
use teapot_chaos::FaultPlan;
use teapot_core::{rewrite, RewriteOptions};
use teapot_fabric::{
    run_fleet_threads, Coordinator, CoordinatorOptions, FabricError, FleetOptions,
    QueueFleetOutcome,
};
use teapot_obj::Binary;
use teapot_specmodel::SpecModelSet;
use teapot_vm::Program;

/// Same shape as the campaign e2e target: a gated gadget plus an
/// always-reachable one, so shards genuinely trade inputs at barriers.
const TARGET: &str = "
    char bar[256];
    int baz;
    char inbuf[16];
    int main() {
        char *foo = malloc(16);
        read_input(inbuf, 16);
        int index = inbuf[1];
        if (inbuf[0] == 0x7f) {
            if (index < 10) {
                int secret = foo[index];
                baz = bar[secret];
            }
        }
        return 0;
    }";

fn instrumented(src: &str) -> Binary {
    let mut bin = compile_to_binary(src, &Options::gcc_like()).unwrap();
    bin.strip();
    rewrite(&bin, &RewriteOptions::default()).unwrap()
}

fn small_config(models: &str) -> CampaignConfig {
    CampaignConfig {
        seed: 0xFAB51C,
        shards: 4,
        workers: 1,
        epochs: 3,
        iters_per_epoch: 40,
        max_input_len: 16,
        models: SpecModelSet::parse(models).unwrap(),
        adaptive_budgets: true,
        corpus_minimize: true,
        ..CampaignConfig::default()
    }
}

fn fleet(workers: usize) -> FleetOptions {
    FleetOptions {
        workers,
        ..FleetOptions::default()
    }
}

#[test]
fn fleet_matches_single_host_for_every_model_set() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    for models in ["pht", "pht,rsb", "pht,rsb,stl"] {
        let cfg = small_config(models);
        let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
        let outcome = run_fleet_threads(&bin, &[], &cfg, fleet(2)).unwrap();
        let fleet_report = outcome.campaign.report();
        assert_eq!(single, fleet_report, "model set {models}");
        assert_eq!(
            single.to_json(),
            fleet_report.to_json(),
            "model set {models}"
        );
        assert_eq!(outcome.stats.epochs, 3);
        assert_eq!(outcome.stats.worker_deaths, 0);
        // Deltas really are the wire format: two per shard per epoch.
        assert_eq!(outcome.stats.deltas, 2 * 4 * 3);
        assert!(outcome.stats.delta_bytes > 0);
    }
}

#[test]
fn killed_worker_mid_epoch_keeps_the_report_identical() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let cfg = small_config("pht,rsb,stl");
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    // Worker 0 drops its connection right after its first phase-0
    // delta of epoch 1, with shards still owed.
    let opts = FleetOptions {
        workers: 2,
        chaos: Some(FaultPlan::parse("w0:crash@1").unwrap()),
        ..FleetOptions::default()
    };
    let outcome = run_fleet_threads(&bin, &[], &cfg, opts).unwrap();
    assert_eq!(outcome.stats.worker_deaths, 1);
    assert!(outcome.stats.releases >= 1);
    let fleet_report = outcome.campaign.report();
    assert_eq!(single, fleet_report);
    assert_eq!(single.to_json(), fleet_report.to_json());
}

#[test]
fn checkpoint_resume_still_matches_single_host() {
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    let cfg = small_config("pht,rsb");
    let single = {
        let mut c = Campaign::new(cfg.clone()).unwrap();
        let report = c.run_shared(&prog, &[]);
        (report, c.snapshot(&bin).to_bytes())
    };

    let dir = std::env::temp_dir().join(format!("teapot-fabric-ckpt-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("fleet.tcs");

    // Run only 2 of the 3 epochs under the fleet, checkpointing.
    let mut short = cfg.clone();
    short.epochs = 2;
    let opts = FleetOptions {
        workers: 2,
        checkpoint: Some(ckpt.clone()),
        ..FleetOptions::default()
    };
    run_fleet_threads(&bin, &[], &short, opts).unwrap();

    // "Preemption": a fresh fleet resumes epoch 3 from the checkpoint.
    let mut snap = CampaignSnapshot::load(&ckpt).unwrap();
    assert_eq!(snap.epochs_done, 2);
    snap.config.epochs = cfg.epochs;
    let opts = FleetOptions {
        workers: 2,
        checkpoint: Some(ckpt.clone()),
        resume: Some(snap),
        ..FleetOptions::default()
    };
    let outcome = run_fleet_threads(&bin, &[], &cfg, opts).unwrap();
    assert_eq!(single.0, outcome.campaign.report());
    assert_eq!(single.0.to_json(), outcome.campaign.report().to_json());
    // The final fleet checkpoint is the single-host snapshot, byte for
    // byte (same config, boundary states, features, decode stats).
    assert_eq!(std::fs::read(&ckpt).unwrap(), single.1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn queue_fleet_drains_a_directory_and_resumes_checkpoints() {
    let dir = std::env::temp_dir().join(format!("teapot-fabric-queue-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    std::fs::write(dir.join("a.tof"), bin.to_bytes()).unwrap();
    std::fs::write(dir.join("b.tof"), bin.to_bytes()).unwrap();

    let cfg = small_config("pht");
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);

    // A 2-worker fleet drains the queue once.
    let outcomes = drain_queue(&dir, &cfg);

    assert_eq!(outcomes.len(), 2);
    for o in &outcomes {
        assert_eq!(o.report, single);
        assert_eq!(
            std::fs::read_to_string(&o.report_path).unwrap(),
            single.to_json()
        );
        // Checkpoints are cleaned up after the report lands.
        assert!(!o.path.with_extension("tcs").exists());
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `run_queue_fleet` once over `dir` on a fresh 2-worker fleet.
fn drain_queue(dir: &std::path::Path, cfg: &CampaignConfig) -> Vec<QueueFleetOutcome> {
    let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
    let addr = listener.local_addr().unwrap();
    let mut coord = Coordinator::new(listener, CoordinatorOptions::new(2)).unwrap();
    std::thread::scope(|scope| {
        for w in 0..2 {
            scope.spawn(move || {
                let stream = std::net::TcpStream::connect(addr).unwrap();
                let opts = teapot_fabric::WorkerOptions {
                    name: format!("q{w}"),
                    ..Default::default()
                };
                teapot_fabric::run_worker(stream, &opts).unwrap();
            });
        }
        coord.wait_for_workers().unwrap();
        let outcomes = teapot_fabric::run_queue_fleet(&mut coord, dir, cfg, &[], true).unwrap();
        coord.shutdown();
        outcomes
    })
}

#[test]
fn queue_fleet_ignores_a_checkpoint_taken_under_another_config() {
    let dir = std::env::temp_dir().join(format!("teapot-fabric-stale-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let bin = instrumented(TARGET);
    let prog = Program::shared(&bin);
    std::fs::write(dir.join("a.tof"), bin.to_bytes()).unwrap();

    // A serve restarted with a different --iters finds the checkpoint
    // its predecessor left: same binary, other iters_per_epoch.
    let cfg = small_config("pht");
    let stale_cfg = CampaignConfig {
        iters_per_epoch: cfg.iters_per_epoch / 2,
        ..cfg.clone()
    };
    let mut stale = Campaign::new(stale_cfg).unwrap();
    stale.run_epoch_shared(&prog, &[]);
    stale.snapshot(&bin).save(&dir.join("a.tcs")).unwrap();

    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    let outcomes = drain_queue(&dir, &cfg);
    assert_eq!(outcomes.len(), 1);
    assert_eq!(outcomes[0].report, single);
    assert_eq!(
        std::fs::read_to_string(&outcomes[0].report_path).unwrap(),
        single.to_json()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn zero_fleet_is_a_typed_config_error() {
    let bin = instrumented(TARGET);
    let cfg = small_config("pht");
    match run_fleet_threads(&bin, &[], &cfg, fleet(0)) {
        Err(FabricError::Campaign(CampaignError::ZeroFleet)) => {}
        other => panic!("expected ZeroFleet, got {:?}", other.map(|_| ())),
    }
}
