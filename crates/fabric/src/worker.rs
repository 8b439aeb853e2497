//! The fabric worker: a blocking event loop that drives real
//! [`CampaignState`]s through the epoch engine's two per-shard steps —
//! [`fuzz_shard`] and [`barrier_shard`], the functions a single-host
//! epoch calls — and ships each phase's [`ShardDelta`] back to the
//! coordinator. The worker holds no campaign-level state: leases are
//! self-contained (config + binary + shard states), so a worker can
//! join mid-campaign and a dead worker's shards can be re-leased to a
//! survivor without changing any result.
//!
//! # Resilience
//!
//! [`run_worker_tcp`] wraps the session loop in bounded-exponential-
//! backoff reconnection: a refused connect at startup (`teapot work`
//! racing `teapot serve`), a quarantined connection, a torn stream or
//! an injected crash all lead back to a fresh `Hello` — the worker
//! *rejoins* the fleet and is folded back into the coordinator's
//! re-lease pool mid-campaign. A rejoined worker holds no session
//! until its next lease and silently ignores the broadcast frames of
//! the epoch in flight.
//!
//! # Fault injection
//!
//! Chaos faults ([`teapot_chaos::WorkerPlan`]) are armed per epoch and
//! applied to the epoch's first outbound delta frame (or, for
//! stalls/crashes, to the epoch itself). The plan lives *outside* the
//! per-connection session, so a fault fires exactly once even across
//! rejoins — a worker re-leased the epoch it just crashed on does not
//! crash again.
//!
//! [`ShardDelta`]: teapot_rt::ShardDelta

use crate::wire::{encode_frame, write_frame, Frame, FrameBuffer, Lease};
use crate::FabricError;
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Duration;
use teapot_campaign::epoch::{barrier_shard, fuzz_shard};
use teapot_campaign::CampaignConfig;
use teapot_chaos::{corrupt_frame, truncate_len, EpochFault, StreamFault, WorkerPlan};
use teapot_fuzz::CampaignState;
use teapot_obj::Binary;
use teapot_vm::Program;

/// Worker behavior knobs.
#[derive(Debug, Clone, Default)]
pub struct WorkerOptions {
    /// Display name sent in the Hello frame.
    pub name: String,
    /// Deterministic fault schedule for this worker (chaos testing).
    pub chaos: Option<WorkerPlan>,
}

/// Environment variable carrying a fleet chaos schedule
/// ([`teapot_chaos::FaultPlan::parse`] grammar) to spawned workers.
pub const CHAOS_SCHEDULE_ENV: &str = "TEAPOT_CHAOS_SCHEDULE";

/// Environment variable carrying a spawned worker's ordinal within the
/// chaos schedule.
pub const CHAOS_WORKER_ENV: &str = "TEAPOT_CHAOS_WORKER";

/// Bounded exponential backoff for [`run_worker_tcp`]: connect retries
/// at startup and reconnects after a mid-campaign death.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Consecutive failed attempts before giving up (resets every time
    /// a connection makes progress, i.e. receives at least one frame).
    pub max_attempts: u32,
    /// First retry delay, milliseconds; doubles per attempt.
    pub base_ms: u64,
    /// Delay ceiling, milliseconds.
    pub cap_ms: u64,
    /// Read timeout while connected but sessionless (a rejoined worker
    /// waiting for a re-lease). A connection that times out without
    /// ever receiving a frame is presumed stuck in a dead
    /// coordinator's accept backlog and counts as a failed attempt;
    /// once a frame has arrived the worker waits patiently forever
    /// (queue mode parks workers between binaries).
    pub idle_timeout_ms: u64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 10,
            base_ms: 50,
            cap_ms: 2_000,
            idle_timeout_ms: 10_000,
        }
    }
}

impl RetryPolicy {
    /// Delay before retry number `attempt` (1-based).
    pub fn backoff_ms(&self, attempt: u32) -> u64 {
        self.base_ms
            .saturating_mul(1u64 << attempt.saturating_sub(1).min(16))
            .min(self.cap_ms)
    }
}

/// Worker-side chaos state: the fault schedule plus the fault armed
/// for the current epoch's first delta frame. Lives outside the
/// session loop so fired faults stay fired across rejoins.
struct ChaosState {
    plan: WorkerPlan,
    armed: Option<StreamFault>,
}

impl ChaosState {
    fn new(opts: &WorkerOptions) -> ChaosState {
        ChaosState {
            plan: opts.chaos.clone().unwrap_or_default(),
            armed: None,
        }
    }
}

/// How a worker session ended.
enum SessionEnd {
    /// Shutdown frame or clean EOF: the coordinator is done with us.
    Clean,
    /// An injected fault killed the connection; rejoin if resilient.
    Injected,
}

struct ShardSlot {
    st: CampaignState,
    /// This epoch's iteration budget.
    budget: u64,
    /// Set after the fuzzing phase ran (or after a phase-1 re-lease
    /// installed a post-fuzzing state); the next barrier imports into
    /// exactly these shards.
    needs_phase1: bool,
}

struct Session {
    fingerprint: u64,
    cfg: CampaignConfig,
    prog: Arc<Program>,
    seeds: Vec<Vec<u8>>,
    shards: BTreeMap<u32, ShardSlot>,
}

/// Runs one worker session over `stream` until the coordinator sends
/// Shutdown or closes the connection. `S` is a TCP or Unix stream in
/// production, an in-memory pipe in tests. For the reconnecting
/// production loop, see [`run_worker_tcp`].
pub fn run_worker<S: Read + Write>(stream: S, opts: &WorkerOptions) -> Result<(), FabricError> {
    let mut chaos = ChaosState::new(opts);
    let mut progressed = false;
    run_session(stream, opts, &mut chaos, &mut progressed).map(|_| ())
}

/// Production worker loop: connects to `addr` with bounded exponential
/// backoff (the coordinator may not be listening yet), runs sessions,
/// and rejoins — reconnect + fresh Hello — after any connection death
/// that was not a clean shutdown. Returns `Ok` on clean shutdown or
/// when retries are exhausted after an injected fault; returns the
/// last error when retries are exhausted on real failures.
pub fn run_worker_tcp(
    addr: &str,
    opts: &WorkerOptions,
    policy: &RetryPolicy,
) -> Result<(), FabricError> {
    let mut chaos = ChaosState::new(opts);
    let mut attempt = 0u32;
    loop {
        let stream = match std::net::TcpStream::connect(addr) {
            Ok(s) => s,
            Err(e) => {
                attempt += 1;
                if attempt >= policy.max_attempts {
                    return Err(FabricError::Io(e));
                }
                std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt)));
                continue;
            }
        };
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_millis(policy.idle_timeout_ms.max(1))))
            .ok();
        let mut progressed = false;
        let failure = match run_session(stream, opts, &mut chaos, &mut progressed) {
            Ok(SessionEnd::Clean) => return Ok(()),
            Ok(SessionEnd::Injected) => None,
            Err(e) => Some(e),
        };
        if progressed {
            attempt = 0;
        }
        attempt += 1;
        if attempt >= policy.max_attempts {
            // A worker that never made progress reports why; one that
            // did its work and lost the coordinator afterwards exits
            // quietly (the campaign may simply be over).
            return match failure {
                Some(e) if !progressed => Err(e),
                _ => Ok(()),
            };
        }
        std::thread::sleep(Duration::from_millis(policy.backoff_ms(attempt)));
    }
}

/// Reads the next frame through an incremental [`FrameBuffer`] (so a
/// read timeout mid-frame never loses the partial bytes). Returns
/// `None` on clean EOF at a frame boundary. `engaged` says whether the
/// caller is entitled to wait forever (it has a session, or the
/// connection has received frames before): if not, a timeout is
/// returned to the caller as the I/O error it is.
fn read_frame_buffered<S: Read>(
    stream: &mut S,
    fb: &mut FrameBuffer,
    engaged: bool,
) -> Result<Option<Frame>, FabricError> {
    let mut tmp = [0u8; 64 * 1024];
    loop {
        if let Some(frame) = fb.pop()? {
            return Ok(Some(frame));
        }
        match stream.read(&mut tmp) {
            Ok(0) => {
                return if fb.is_empty() {
                    Ok(None)
                } else {
                    Err(FabricError::Protocol("connection closed inside a frame"))
                };
            }
            Ok(n) => fb.push(&tmp[..n]),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                if !engaged {
                    return Err(FabricError::Io(e));
                }
            }
            Err(e) => return Err(FabricError::Io(e)),
        }
    }
}

/// One connection's event loop: Hello, then serve leases until
/// Shutdown/EOF or a connection death.
fn run_session<S: Read + Write>(
    mut stream: S,
    opts: &WorkerOptions,
    chaos: &mut ChaosState,
    progressed: &mut bool,
) -> Result<SessionEnd, FabricError> {
    write_frame(
        &mut stream,
        &Frame::Hello {
            name: opts.name.clone(),
        },
    )?;
    let mut session: Option<Session> = None;
    let mut fb = FrameBuffer::new();
    loop {
        let engaged = session.is_some() || *progressed;
        let frame = match read_frame_buffered(&mut stream, &mut fb, engaged)? {
            Some(f) => f,
            None => return Ok(SessionEnd::Clean), // coordinator closed the connection
        };
        *progressed = true;
        match frame {
            Frame::Lease(lease) => {
                if install_lease(&mut session, &mut stream, lease, chaos)? {
                    return Ok(SessionEnd::Injected); // fault injection fired
                }
            }
            Frame::Barrier {
                epoch,
                minimize,
                fresh,
            } => {
                // A rejoined worker sees the in-flight epoch's broadcast
                // traffic before its first re-lease; without a session
                // there is nothing to do and nothing owed.
                if let Some(s) = session.as_mut() {
                    run_barrier(s, &mut stream, epoch, minimize, &fresh)?;
                }
            }
            Frame::Proceed { epoch, budgets } => {
                let Some(s) = session.as_mut() else {
                    continue; // sessionless rejoin: not our epoch yet
                };
                for (&i, slot) in s.shards.iter_mut() {
                    slot.budget = *budgets
                        .get(i as usize)
                        .ok_or(FabricError::Protocol("budget vector too short"))?;
                }
                let owned: Vec<u32> = s.shards.keys().copied().collect();
                if run_phase0(s, &mut stream, epoch, false, chaos, &owned)? {
                    return Ok(SessionEnd::Injected);
                }
            }
            Frame::Complete => {
                // Campaign over; stay connected for the next lease
                // (queue mode re-uses the fleet across binaries).
                session = None;
            }
            Frame::Shutdown => return Ok(SessionEnd::Clean),
            Frame::Hello { .. } | Frame::Decode(_) | Frame::Delta(_) => {
                return Err(FabricError::Protocol("unexpected frame at worker"));
            }
        }
    }
}

/// Installs a lease's shards (rebuilding the session when the target
/// binary changes) and, for a phase-0 lease, fuzzes them immediately.
/// Returns `true` if a fault-injection hook killed the connection.
fn install_lease<S: Read + Write>(
    session: &mut Option<Session>,
    stream: &mut S,
    lease: Lease,
    chaos: &mut ChaosState,
) -> Result<bool, FabricError> {
    let rebuild = match session {
        Some(s) => s.fingerprint != lease.fingerprint,
        None => true,
    };
    if rebuild {
        let bin = Binary::from_bytes(&lease.binary)
            .map_err(|_| FabricError::Protocol("leased binary failed to parse"))?;
        let prog = Program::shared(&bin);
        write_frame(stream, &Frame::Decode(*prog.stats()))?;
        *session = Some(Session {
            fingerprint: lease.fingerprint,
            cfg: lease.config.clone(),
            prog,
            seeds: lease.seeds.clone(),
            shards: BTreeMap::new(),
        });
    }
    let s = session
        .as_mut()
        .ok_or(FabricError::Protocol("lease install lost its session"))?;
    let mut new_shards = Vec::with_capacity(lease.shards.len());
    for ls in &lease.shards {
        let st = CampaignState::from_snapshot(s.cfg.shard_fuzz_config(ls.shard), &ls.state)
            .map_err(FabricError::Fuzz)?;
        s.shards.insert(
            ls.shard,
            ShardSlot {
                st,
                budget: ls.budget,
                needs_phase1: lease.phase == 1,
            },
        );
        new_shards.push(ls.shard);
    }
    if lease.phase == 0 {
        let epoch = lease.start_epoch;
        return run_phase0(s, stream, epoch, lease.seed_first, chaos, &new_shards);
    }
    Ok(false)
}

/// Fuzzes `shards` for `epoch` (phase 0) and ships their deltas.
/// Returns `true` if a fault-injection hook killed the connection.
fn run_phase0<S: Write>(
    s: &mut Session,
    stream: &mut S,
    epoch: u32,
    seed_first: bool,
    chaos: &mut ChaosState,
    shards: &[u32],
) -> Result<bool, FabricError> {
    let fault = chaos.plan.take(epoch);
    let mut die_here = false;
    match fault {
        Some(EpochFault::Crash) => die_here = true,
        Some(EpochFault::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
        Some(EpochFault::Stream(f)) => chaos.armed = Some(f),
        None => {}
    }
    for &i in shards {
        let slot = s
            .shards
            .get_mut(&i)
            .ok_or(FabricError::Protocol("phase-0 shard was never leased"))?;
        fuzz_shard(
            &mut slot.st,
            &s.prog,
            &s.seeds,
            epoch,
            seed_first,
            slot.budget,
        );
        let delta = slot.st.take_delta(i, epoch, 0);
        slot.needs_phase1 = true;
        if send_delta(stream, &Frame::Delta(delta), chaos)? {
            // Injected stream death: the frame (or its prefix, or
            // nothing) is on the wire and the connection dies with the
            // remaining shards owed.
            return Ok(true);
        }
        if die_here {
            // Simulated crash: first delta of the epoch is on the wire,
            // the rest of this worker's shards die with it.
            return Ok(true);
        }
    }
    Ok(false)
}

/// Writes one delta frame, applying the armed stream fault (if any) to
/// it. Returns `true` when the fault semantics require the connection
/// to die now (truncation, reset).
fn send_delta<S: Write>(
    stream: &mut S,
    frame: &Frame,
    chaos: &mut ChaosState,
) -> Result<bool, FabricError> {
    let Some(fault) = chaos.armed.take() else {
        write_frame(stream, frame)?;
        return Ok(false);
    };
    let mut bytes = encode_frame(frame);
    let salt = chaos.plan.salt;
    match fault {
        StreamFault::Corrupt => {
            // Deliver a bit-flipped frame; the coordinator's CRC check
            // rejects it and quarantines this connection.
            corrupt_frame(&mut bytes, salt);
            stream.write_all(&bytes)?;
            stream.flush()?;
            Ok(false)
        }
        StreamFault::Truncate => {
            // Torn stream: a strict prefix of the frame, then death.
            let keep = truncate_len(bytes.len(), salt);
            stream.write_all(&bytes[..keep])?;
            stream.flush()?;
            Ok(true)
        }
        StreamFault::Reset => Ok(true),
        StreamFault::Duplicate => {
            stream.write_all(&bytes)?;
            stream.write_all(&bytes)?;
            stream.flush()?;
            Ok(false)
        }
    }
}

/// Runs the barrier step for every shard that fuzzed this epoch.
fn run_barrier<S: Write>(
    s: &mut Session,
    stream: &mut S,
    epoch: u32,
    minimize: bool,
    fresh: &[Vec<Vec<u8>>],
) -> Result<(), FabricError> {
    for (&j, slot) in s.shards.iter_mut() {
        if !slot.needs_phase1 {
            continue;
        }
        barrier_shard(&mut slot.st, &s.prog, j as usize, fresh, minimize);
        let delta = slot.st.take_delta(j, epoch, 1);
        slot.needs_phase1 = false;
        write_frame(stream, &Frame::Delta(delta))?;
    }
    Ok(())
}
