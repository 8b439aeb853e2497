//! Chaos acceptance tests: the "fault schedule equals single-host"
//! invariant.
//!
//! Every deterministic fault schedule that leaves at least one live
//! worker — corrupted frames, mid-frame disconnects, duplicated deltas,
//! stragglers, hangs past the lease timeout, crashes with rejoins, torn
//! checkpoint writes — must produce a campaign report byte-identical to
//! `--workers 1`, and the same seed must reproduce the same schedule.

use teapot_campaign::{Campaign, CampaignConfig, CampaignSnapshot};
use teapot_cc::{compile_to_binary, Options};
use teapot_chaos::{CheckpointFault, EpochFault, FaultPlan, StreamFault, WorkerPlan};
use teapot_core::{rewrite, RewriteOptions};
use teapot_fabric::{run_fleet_threads, FleetOptions};
use teapot_obj::Binary;
use teapot_specmodel::SpecModelSet;
use teapot_vm::Program;

/// Same target as the fabric e2e suite: a gated gadget plus an
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

fn instrumented() -> Binary {
    let mut bin = compile_to_binary(TARGET, &Options::gcc_like()).unwrap();
    bin.strip();
    rewrite(&bin, &RewriteOptions::default()).unwrap()
}

fn small_config() -> CampaignConfig {
    CampaignConfig {
        seed: 0xC4A05,
        shards: 4,
        workers: 1,
        epochs: 3,
        iters_per_epoch: 40,
        max_input_len: 16,
        models: SpecModelSet::parse("pht,rsb").unwrap(),
        adaptive_budgets: true,
        corpus_minimize: true,
        ..CampaignConfig::default()
    }
}

/// A plan scheduling one fault on one worker at one epoch.
fn one_fault(workers: usize, w: usize, epoch: u32, fault: EpochFault) -> FaultPlan {
    let mut plan = FaultPlan {
        workers: vec![WorkerPlan::default(); workers],
        ..FaultPlan::default()
    };
    plan.workers[w].salt = 0x5EED;
    plan.workers[w].insert(epoch, fault);
    plan
}

fn run_chaos(
    bin: &Binary,
    cfg: &CampaignConfig,
    opts: FleetOptions,
) -> teapot_fabric::FleetOutcome {
    run_fleet_threads(bin, &[], cfg, opts).unwrap()
}

#[test]
fn corrupted_frames_quarantine_the_sender_not_the_campaign() {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = small_config();
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    let opts = FleetOptions {
        workers: 2,
        chaos: Some(one_fault(2, 1, 1, EpochFault::Stream(StreamFault::Corrupt))),
        ..FleetOptions::default()
    };
    let outcome = run_chaos(&bin, &cfg, opts);
    // The flipped byte fails the CRC at the coordinator; the sender is
    // condemned and its shards re-leased to the survivor.
    assert!(outcome.stats.quarantined >= 1, "{:?}", outcome.stats);
    assert!(outcome.stats.releases >= 1);
    let report = outcome.campaign.report();
    assert_eq!(single, report);
    assert_eq!(single.to_json(), report.to_json());
}

#[test]
fn mid_frame_disconnects_and_duplicates_keep_reports_identical() {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = small_config();
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    for (fault, label) in [
        (StreamFault::Truncate, "truncate"),
        (StreamFault::Reset, "reset"),
        (StreamFault::Duplicate, "dup"),
    ] {
        let opts = FleetOptions {
            workers: 2,
            chaos: Some(one_fault(2, 1, 0, EpochFault::Stream(fault))),
            ..FleetOptions::default()
        };
        let outcome = run_chaos(&bin, &cfg, opts);
        let report = outcome.campaign.report();
        assert_eq!(single, report, "fault {label}");
        assert_eq!(single.to_json(), report.to_json(), "fault {label}");
        if fault == StreamFault::Duplicate {
            // Duplicates are dropped first-arrival-wins; nobody dies.
            assert_eq!(outcome.stats.worker_deaths, 0, "fault {label}");
        }
    }
}

#[test]
fn a_straggler_below_the_lease_timeout_just_slows_the_epoch() {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = small_config();
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    let opts = FleetOptions {
        workers: 2,
        chaos: Some(one_fault(2, 1, 1, EpochFault::Stall(150))),
        ..FleetOptions::default()
    };
    let outcome = run_chaos(&bin, &cfg, opts);
    assert_eq!(outcome.stats.worker_deaths, 0, "{:?}", outcome.stats);
    let report = outcome.campaign.report();
    assert_eq!(single, report);
    assert_eq!(single.to_json(), report.to_json());
}

#[test]
fn a_hang_past_the_lease_timeout_is_a_death_then_a_rejoin() {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = small_config();
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    // Worker 1 sleeps 800ms against a 150ms lease timeout: it is
    // declared dead mid-sleep and its shards re-leased; the socket
    // shutdown unblocks it into the rejoin path when it wakes.
    let opts = FleetOptions {
        workers: 2,
        chaos: Some(one_fault(2, 1, 1, EpochFault::Stall(800))),
        lease_timeout_ms: Some(150),
        ..FleetOptions::default()
    };
    let outcome = run_chaos(&bin, &cfg, opts);
    assert!(outcome.stats.worker_deaths >= 1, "{:?}", outcome.stats);
    assert!(outcome.stats.releases >= 1);
    let report = outcome.campaign.report();
    assert_eq!(single, report);
    assert_eq!(single.to_json(), report.to_json());
}

#[test]
fn crashed_workers_rejoin_and_are_folded_back_into_the_lease_pool() {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = small_config();
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    // Worker 1 crashes at epoch 0, rejoins (bounded-backoff reconnect +
    // fresh Hello), then worker 0's crash at epoch 2 forces the
    // coordinator to lease shards to the *rejoined* worker 1 — the
    // campaign can only complete if fold-back works.
    let mut plan = one_fault(2, 1, 0, EpochFault::Crash);
    plan.workers[0].salt = 0x5EED;
    plan.workers[0].insert(2, EpochFault::Crash);
    let opts = FleetOptions {
        workers: 2,
        chaos: Some(plan),
        ..FleetOptions::default()
    };
    let outcome = run_chaos(&bin, &cfg, opts);
    assert!(outcome.stats.worker_deaths >= 2, "{:?}", outcome.stats);
    assert!(outcome.stats.rejoins >= 1, "{:?}", outcome.stats);
    let report = outcome.campaign.report();
    assert_eq!(single, report);
    assert_eq!(single.to_json(), report.to_json());
}

#[test]
fn torn_checkpoint_writes_lag_an_epoch_but_never_corrupt() {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = small_config();
    let single = {
        let mut c = Campaign::new(cfg.clone()).unwrap();
        let report = c.run_shared(&prog, &[]);
        (report, c.snapshot(&bin).to_bytes())
    };
    let dir = std::env::temp_dir().join(format!("teapot-chaos-ckpt-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    let ckpt = dir.join("chaos.tcs");

    // The epoch-2 checkpoint write is torn (kill -9 mid-write): only a
    // prefix lands in the temp file and the rename never happens.
    let mut plan = FaultPlan {
        workers: vec![WorkerPlan::default(); 2],
        ..FaultPlan::default()
    };
    plan.checkpoints.insert(2, CheckpointFault::Short);
    let opts = FleetOptions {
        workers: 2,
        checkpoint: Some(ckpt.clone()),
        chaos: Some(plan),
        ..FleetOptions::default()
    };
    let outcome = run_chaos(&bin, &cfg, opts);
    assert_eq!(outcome.stats.checkpoint_faults, 1, "{:?}", outcome.stats);
    let report = outcome.campaign.report();
    assert_eq!(single.0, report);

    // The final (epoch 3) write succeeded: the file under the real name
    // is the single-host snapshot byte for byte. The `.prev` rotation
    // holds epoch 1's boundary — epoch 2's write was lost — and loads
    // cleanly through the fallback path.
    assert_eq!(std::fs::read(&ckpt).unwrap(), single.1);
    let (snap, fell_back) = CampaignSnapshot::load_with_fallback(&ckpt).unwrap();
    assert_eq!(snap.epochs_done, 3);
    assert!(fell_back.is_none());
    let prev = {
        let mut p = ckpt.clone().into_os_string();
        p.push(".prev");
        std::path::PathBuf::from(p)
    };
    assert_eq!(CampaignSnapshot::load(&prev).unwrap().epochs_done, 1);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn seeded_schedules_reproduce_and_match_single_host() {
    let bin = instrumented();
    let prog = Program::shared(&bin);
    let cfg = small_config();
    let single = Campaign::new(cfg.clone()).unwrap().run_shared(&prog, &[]);
    for seed in [11u64, 29] {
        let plan = FaultPlan::seeded(seed, 3, cfg.epochs);
        // Same seed, same schedule — the CLI prints this string so a
        // soak failure can be replayed exactly.
        assert_eq!(
            plan.to_schedule(),
            FaultPlan::seeded(seed, 3, cfg.epochs).to_schedule()
        );
        let opts = FleetOptions {
            workers: 3,
            chaos: Some(plan),
            ..FleetOptions::default()
        };
        let outcome = run_chaos(&bin, &cfg, opts);
        let report = outcome.campaign.report();
        assert_eq!(single, report, "seed {seed}");
        assert_eq!(single.to_json(), report.to_json(), "seed {seed}");
    }
}
