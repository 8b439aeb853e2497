//! `teapot-fabric` — a distributed campaign fabric: coordinator/worker
//! fleets with shard leasing, epoch deltas, and byte-identical
//! fleet-wide reports.
//!
//! A Teapot campaign is already deterministic per shard: results are a
//! pure function of the campaign configuration, never of the worker
//! thread count. The fabric extends that contract across *machines*:
//!
//! * The **coordinator** ([`Coordinator`]) owns the campaign's boundary
//!   state (every shard's snapshot at the last epoch barrier) and a
//!   non-blocking poll loop over worker sockets. It leases contiguous
//!   shard ranges ([`teapot_campaign::partition`]) to workers, collects
//!   per-shard [`ShardDelta`]s, computes the barrier fresh-lists from
//!   them, plans each epoch with the
//!   [epoch engine](teapot_campaign::epoch)'s clock, and checkpoints the
//!   boundary to a `.tcs` file every epoch.
//! * **Workers** ([`worker::run_worker`]) drive real
//!   [`CampaignState`](teapot_fuzz::CampaignState)s through the epoch
//!   engine's per-shard steps — the ones a single-host epoch runs — and
//!   ship only *deltas* — new corpus entries, sparse coverage updates,
//!   first-seen gadgets and witnesses — per epoch phase, not full
//!   snapshots.
//! * **Launch** ([`run_fleet`]): one coordinator on loopback plus N
//!   workers, started as threads in this process or as `teapot work`
//!   child processes ([`WorkerLaunch`]).
//! * **Fault tolerance**: a worker death (EOF or lease timeout) re-leases
//!   its outstanding shards from the boundary to a surviving worker.
//!   Re-run work produces byte-identical deltas (pure functions of the
//!   boundary), so deaths never change the final report.
//!
//! The invariant the e2e suite pins: `teapot campaign --fleet N` — and
//! a coordinator with N remote `teapot work` processes, with or without
//! injected faults — produces campaign JSON, triage JSONL,
//! ranked text and SARIF byte-identical to `--workers 1`, for every
//! speculation-model set.
//!
//! [`ShardDelta`]: teapot_rt::ShardDelta

pub mod coordinator;
pub mod wire;
pub mod worker;

pub use coordinator::{Coordinator, CoordinatorOptions};
pub use wire::{Frame, Lease, LeasedShard, WireError};
pub use worker::{
    run_worker, run_worker_tcp, RetryPolicy, WorkerOptions, CHAOS_SCHEDULE_ENV, CHAOS_WORKER_ENV,
};

use std::net::TcpListener;
use std::path::{Path, PathBuf};
use teapot_campaign::queue::{prepare_binary, scan_queue};
use teapot_campaign::{
    Campaign, CampaignConfig, CampaignError, CampaignReport, CampaignSnapshot, EpochClock,
};
use teapot_fuzz::ConfigError;
use teapot_obj::Binary;
use teapot_telemetry::MetricsSink;

/// Errors from fleet orchestration.
#[derive(Debug)]
pub enum FabricError {
    /// Socket or file I/O failed.
    Io(std::io::Error),
    /// A wire frame failed to encode/decode.
    Wire(WireError),
    /// Campaign-level failure (config validation, snapshot resume).
    Campaign(CampaignError),
    /// A leased shard's fuzzer configuration was invalid.
    Fuzz(ConfigError),
    /// Protocol violation (unexpected frame, mismatched lease).
    Protocol(&'static str),
    /// The fleet failed to assemble: `(connected, expected)` workers.
    FleetAssembly(usize, usize),
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FabricError::Io(e) => write!(f, "i/o: {e}"),
            FabricError::Wire(e) => write!(f, "wire: {e}"),
            FabricError::Campaign(e) => write!(f, "campaign: {e}"),
            FabricError::Fuzz(e) => write!(f, "fuzzer config: {e}"),
            FabricError::Protocol(what) => write!(f, "protocol: {what}"),
            FabricError::FleetAssembly(got, want) => write!(
                f,
                "fleet failed to assemble: {got} of {want} workers connected"
            ),
        }
    }
}

impl std::error::Error for FabricError {}

impl From<std::io::Error> for FabricError {
    fn from(e: std::io::Error) -> Self {
        FabricError::Io(e)
    }
}

impl From<WireError> for FabricError {
    fn from(e: WireError) -> Self {
        FabricError::Wire(e)
    }
}

impl From<CampaignError> for FabricError {
    fn from(e: CampaignError) -> Self {
        FabricError::Campaign(e)
    }
}

/// Fleet execution statistics (wall-clock and byte counts only — never
/// campaign state).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// Leases granted (initial partitions + re-leases).
    pub leases: u64,
    /// Re-leases caused by worker deaths.
    pub releases: u64,
    /// Workers declared dead (EOF or lease timeout).
    pub worker_deaths: u64,
    /// Deltas merged into the boundary.
    pub deltas: u64,
    /// Total payload bytes of merged deltas (the wire savings metric:
    /// compare against shipping full snapshots every epoch).
    pub delta_bytes: u64,
    /// Wall-clock spent applying deltas at barriers.
    pub merge_ms: u64,
    /// Epochs completed under fabric control.
    pub epochs: u64,
    /// Connections condemned for malformed or unexpected frames.
    pub quarantined: u64,
    /// Workers that reconnected after the fleet first assembled.
    pub rejoins: u64,
    /// Checkpoint writes lost to injected crashes (the on-disk
    /// checkpoint lags an epoch; the campaign itself is unaffected).
    pub checkpoint_faults: u64,
}

/// Options for [`run_fleet`] and [`run_fleet_threads`].
#[derive(Default)]
pub struct FleetOptions {
    /// Fleet size (worker threads/processes to wait for).
    pub workers: usize,
    /// Epoch-boundary checkpoint path (`.tcs`).
    pub checkpoint: Option<PathBuf>,
    /// Metrics JSONL sink for `fabric` events.
    pub metrics: Option<MetricsSink>,
    /// Resume the campaign from this boundary snapshot (under its own
    /// configuration; see [`Coordinator::run_campaign_fleet`]).
    pub resume: Option<CampaignSnapshot>,
    /// Seeded fault schedule: per-worker stream/crash/stall faults plus
    /// coordinator checkpoint faults (see [`teapot_chaos::FaultPlan`]).
    pub chaos: Option<teapot_chaos::FaultPlan>,
    /// Override the coordinator's lease timeout (milliseconds) — chaos
    /// tests shrink it so a stalled worker is declared dead quickly.
    pub lease_timeout_ms: Option<u64>,
}

/// A finished fleet campaign.
pub struct FleetOutcome {
    /// The campaign, resumed from the final boundary — its
    /// [`report`](Campaign::report) is what `--workers 1` would print.
    pub campaign: Campaign,
    /// Fleet execution statistics.
    pub stats: FabricStats,
    /// The metrics sink handed in via [`FleetOptions::metrics`].
    pub metrics: Option<MetricsSink>,
}

/// How [`run_fleet`] starts its workers. Either way they reach the
/// coordinator over loopback TCP and run the same worker loop.
pub enum WorkerLaunch {
    /// Worker threads in this process.
    Threads,
    /// `<exe> work <addr>` child processes, where `exe` is the `teapot`
    /// CLI binary; chaos schedules reach them through
    /// [`CHAOS_SCHEDULE_ENV`] / [`CHAOS_WORKER_ENV`].
    Processes(PathBuf),
}

/// Runs a whole campaign over a local fleet: a coordinator on this
/// thread and `opts.workers` workers, started as `launch` says, talking
/// to it over loopback TCP — faithful to a multi-host fleet in
/// everything but the socket endpoints.
pub fn run_fleet(
    bin: &Binary,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    opts: FleetOptions,
    launch: &WorkerLaunch,
) -> Result<FleetOutcome, FabricError> {
    if opts.workers == 0 {
        return Err(FabricError::Campaign(CampaignError::ZeroFleet));
    }
    let listener = TcpListener::bind(("127.0.0.1", 0))?;
    let addr = listener.local_addr()?.to_string();
    let mut coord_opts = CoordinatorOptions::new(opts.workers);
    coord_opts.checkpoint = opts.checkpoint;
    if let Some(ms) = opts.lease_timeout_ms {
        coord_opts.lease_timeout_ms = ms;
    }
    if let Some(plan) = &opts.chaos {
        coord_opts.checkpoint_faults = plan.checkpoints.clone();
    }
    let mut coord = Coordinator::new(listener, coord_opts)?;
    if let Some(sink) = opts.metrics {
        coord.set_metrics(sink);
    }
    // Shutdown on every path: the workers must see Shutdown or EOF
    // before they can be joined.
    let drive = |coord: &mut Coordinator| {
        let result = coord
            .wait_for_workers()
            .and_then(|()| coord.run_campaign_fleet(bin, seeds, cfg, opts.resume.as_ref()));
        coord.shutdown();
        result
    };
    let chaos = opts.chaos.as_ref();
    let campaign = match launch {
        WorkerLaunch::Threads => {
            // Thread fleets reconnect fast: loopback sockets refuse
            // instantly, and a short idle timeout keeps an injected
            // stall from parking the scope past the coordinator's own
            // lease sweep.
            let policy = RetryPolicy {
                max_attempts: 10,
                base_ms: 10,
                cap_ms: 200,
                idle_timeout_ms: 2_000,
            };
            std::thread::scope(|scope| {
                for w in 0..opts.workers {
                    let wopts = WorkerOptions {
                        name: format!("worker-{w}"),
                        chaos: chaos.map(|plan| plan.worker(w)),
                    };
                    let (addr, policy) = (&addr, &policy);
                    // A worker error (including injected faults) is the
                    // coordinator's problem to survive, not ours to
                    // report.
                    scope.spawn(move || run_worker_tcp(addr, &wopts, policy).ok());
                }
                drive(&mut coord)
            })?
        }
        WorkerLaunch::Processes(exe) => {
            let schedule = chaos.map(|plan| plan.to_schedule());
            // A spawn failure fails the run; workers already started find
            // the coordinator gone and exit once their retries run out.
            let mut children = (0..opts.workers)
                .map(|w| {
                    let mut cmd = std::process::Command::new(exe);
                    cmd.arg("work").arg(&addr);
                    if let Some(schedule) = &schedule {
                        cmd.env(CHAOS_SCHEDULE_ENV, schedule);
                        cmd.env(CHAOS_WORKER_ENV, w.to_string());
                    }
                    cmd.spawn()
                })
                .collect::<Result<Vec<_>, _>>()?;
            let result = drive(&mut coord);
            for child in &mut children {
                child.wait().ok();
            }
            result?
        }
    };
    Ok(FleetOutcome {
        campaign,
        stats: coord.stats().clone(),
        metrics: coord.take_metrics(),
    })
}

/// [`run_fleet`] with worker threads: the in-process fleet tests and
/// benches drive.
pub fn run_fleet_threads(
    bin: &Binary,
    seeds: &[Vec<u8>],
    cfg: &CampaignConfig,
    opts: FleetOptions,
) -> Result<FleetOutcome, FabricError> {
    run_fleet(bin, seeds, cfg, opts, &WorkerLaunch::Threads)
}

/// One binary processed by [`run_queue_fleet`].
pub struct QueueFleetOutcome {
    /// The `.tof` file.
    pub path: PathBuf,
    /// Where the campaign JSON report was written.
    pub report_path: PathBuf,
    /// The merged report.
    pub report: CampaignReport,
}

/// Continuous-queue mode over an assembled fleet: scan `dir` for
/// `.tof` binaries (lexicographic order, like
/// [`teapot_campaign::queue::run_queue`]), run a fleet campaign over
/// each, checkpoint the boundary to `<stem>.tcs` every epoch, and
/// write the report to `<stem>.json`. Binaries whose report already
/// exists are skipped, and a checkpoint of the same binary under the
/// same configuration (`workers` aside) resumes the campaign where
/// preemption left it — so killing and restarting the coordinator
/// never loses more than one epoch and never changes any report. With `once` the queue drains once and returns; otherwise it
/// keeps rescanning for newly streamed-in binaries.
pub fn run_queue_fleet(
    coord: &mut Coordinator,
    dir: &Path,
    cfg: &CampaignConfig,
    seeds: &[Vec<u8>],
    once: bool,
) -> Result<Vec<QueueFleetOutcome>, FabricError> {
    let mut outcomes = Vec::new();
    loop {
        let mut progressed = false;
        for path in scan_queue(dir)? {
            let report_path = path.with_extension("json");
            if report_path.exists() {
                continue;
            }
            let (bin, _) = prepare_binary(&path)?;
            let checkpoint = path.with_extension("tcs");
            // A checkpoint from a preempted run resumes the campaign —
            // falling back to the `.prev` generation if the primary was
            // torn by a crash mid-write. One that is unreadable, fails
            // the resume check, or was taken under a different campaign
            // configuration (a restart with other flags) is ignored:
            // starting over reproduces the same report.
            let resume = CampaignSnapshot::load_with_fallback(&checkpoint)
                .ok()
                .map(|(snap, _)| snap)
                .filter(|snap| {
                    let same_config = CampaignConfig {
                        workers: cfg.workers,
                        ..snap.config.clone()
                    } == *cfg;
                    same_config && EpochClock::resume(snap, &bin).is_ok()
                });
            coord.set_checkpoint(Some(checkpoint.clone()));
            let campaign = coord.run_campaign_fleet(&bin, seeds, cfg, resume.as_ref())?;
            coord.set_checkpoint(None);
            let report = campaign.report();
            std::fs::write(&report_path, report.to_json())?;
            CampaignSnapshot::remove(&checkpoint);
            progressed = true;
            outcomes.push(QueueFleetOutcome {
                path,
                report_path,
                report,
            });
        }
        if once {
            return Ok(outcomes);
        }
        if !progressed {
            std::thread::sleep(std::time::Duration::from_millis(250));
        }
    }
}
