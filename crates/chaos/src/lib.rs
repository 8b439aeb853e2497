//! `teapot-chaos` — deterministic, seeded fault injection for the
//! campaign fabric.
//!
//! A chaos run is described by a [`FaultPlan`]: per-worker schedules of
//! [`EpochFault`]s (what goes wrong, and at which campaign epoch) plus
//! coordinator-side [`CheckpointFault`]s (torn or failing `.tcs`
//! writes). Plans come from exactly two places, both reproducible:
//!
//! * [`FaultPlan::seeded`] expands a `--chaos-seed` into a schedule via
//!   SplitMix64 hashing — **zero** `SystemTime`/`rand` dependencies, so
//!   the same seed always yields the same schedule on every host; or
//! * [`FaultPlan::parse`] reads an explicit schedule string like
//!   `w1:corrupt@1,w0:stall250@2,ckpt:short@2` (what CI pins).
//!
//! [`FaultPlan::to_schedule`] renders any plan back to that string, so
//! a seeded soak run can print its schedule and be re-run exactly.
//!
//! The crate is pure data + arithmetic: *applying* a fault (flipping a
//! byte on a wire frame, dropping a connection, tearing a checkpoint
//! write) is the fabric's job — see `teapot-fabric`. Faults fire
//! **once**: [`WorkerPlan::take`] removes the fault it returns, so a
//! worker that crashes at epoch 2, rejoins, and is re-leased epoch 2's
//! shards does not crash again (which would livelock the fleet).

use std::collections::BTreeMap;

/// SplitMix64 — the seed scrambler. Statelessly hashes a 64-bit input
/// into a well-mixed 64-bit output; chaining it over (seed, worker,
/// epoch) gives every schedule decision an independent uniform draw
/// without any RNG state to thread around.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Hashes a seed with two salts (worker ordinal, epoch, a domain tag —
/// anything) into one deterministic draw.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    splitmix64(splitmix64(splitmix64(seed) ^ a) ^ b)
}

/// A tiny xorshift64* generator for callers that want a *stream* of
/// draws from one seed (the soak harness). Never seeded from time.
#[derive(Debug, Clone)]
pub struct ChaosRng {
    state: u64,
}

impl ChaosRng {
    /// Seeds the generator; any seed (including 0) is fine.
    pub fn new(seed: u64) -> ChaosRng {
        ChaosRng {
            state: splitmix64(seed) | 1,
        }
    }

    /// Next 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

/// A fault applied to one outbound wire frame (the first delta frame of
/// the scheduled epoch).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamFault {
    /// Flip one payload byte (never the length prefix, so framing stays
    /// intact and the receiver's CRC check is what catches it).
    Corrupt,
    /// Write only a prefix of the frame, then drop the connection —
    /// a mid-frame torn TCP stream.
    Truncate,
    /// Drop the connection without writing anything (connection reset).
    Reset,
    /// Send the frame twice (the receiver must dedup).
    Duplicate,
}

/// A fault a worker injects at one campaign epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochFault {
    /// Damage this epoch's first outbound delta frame.
    Stream(StreamFault),
    /// Sleep this many milliseconds before the epoch's work — a
    /// straggler. A stall longer than the coordinator's lease timeout
    /// is a *hang*: the worker is declared dead mid-sleep, its shards
    /// re-leased, and its late deltas ignored.
    Stall(u64),
    /// Drop the connection right after the epoch's first delta; the
    /// worker then rejoins the fleet.
    Crash,
}

/// A fault applied to one epoch's `.tcs` checkpoint write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckpointFault {
    /// The write fails outright (disk full): nothing is written.
    Fail,
    /// A torn write (kill -9 mid-write): only a prefix of the bytes
    /// lands, and the temp file is never renamed into place.
    Short,
}

/// One worker's fault schedule: at most one fault per epoch, fired
/// once. Survives reconnects — the plan lives outside the session loop,
/// so a rejoined worker does not replay spent faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerPlan {
    /// Salt for byte-level decisions (corrupt offset, truncate point);
    /// seeded plans derive it from (seed, ordinal).
    pub salt: u64,
    faults: BTreeMap<u32, EpochFault>,
}

impl WorkerPlan {
    /// Schedules `fault` at `epoch` (replacing any previous entry).
    pub fn insert(&mut self, epoch: u32, fault: EpochFault) {
        self.faults.insert(epoch, fault);
    }

    /// Takes the fault scheduled for `epoch`, removing it so it fires
    /// exactly once.
    pub fn take(&mut self, epoch: u32) -> Option<EpochFault> {
        self.faults.remove(&epoch)
    }

    /// Whether any faults remain scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The scheduled (epoch, fault) pairs, in epoch order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, EpochFault)> + '_ {
        self.faults.iter().map(|(&e, &f)| (e, f))
    }

    /// Expands `seed` into worker `ordinal`'s schedule over `epochs`
    /// epochs. Roughly one epoch in four gets a fault. Worker 0 only
    /// ever receives benign faults (duplication, short stalls): the
    /// invariant requires ≥1 live worker, and pinning worker 0 as the
    /// survivor keeps every seeded schedule satisfiable by
    /// construction.
    pub fn seeded(seed: u64, ordinal: usize, epochs: u32) -> WorkerPlan {
        let mut plan = WorkerPlan {
            salt: mix(seed, ordinal as u64, 0x5A17),
            faults: BTreeMap::new(),
        };
        for epoch in 0..epochs {
            let h = mix(seed, ordinal as u64, epoch as u64);
            if !h.is_multiple_of(4) {
                continue;
            }
            let benign = ordinal == 0;
            let fault = match (h >> 8) % 6 {
                0 if !benign => EpochFault::Stream(StreamFault::Corrupt),
                1 if !benign => EpochFault::Stream(StreamFault::Truncate),
                2 if !benign => EpochFault::Stream(StreamFault::Reset),
                4 if !benign => EpochFault::Crash,
                5 => EpochFault::Stall((h >> 16) % 200),
                _ => EpochFault::Stream(StreamFault::Duplicate),
            };
            plan.faults.insert(epoch, fault);
        }
        plan
    }
}

/// A whole fleet's fault schedule: one [`WorkerPlan`] per worker spawn
/// ordinal, plus the coordinator's checkpoint-write faults keyed by
/// `epochs_done` at write time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Per-worker schedules, indexed by spawn ordinal.
    pub workers: Vec<WorkerPlan>,
    /// Checkpoint-write faults by the `epochs_done` value being
    /// checkpointed (1 = the write after the first epoch).
    pub checkpoints: BTreeMap<u32, CheckpointFault>,
}

impl FaultPlan {
    /// Expands `seed` into a full fleet schedule: per-worker plans and
    /// roughly one faulted checkpoint write in five.
    pub fn seeded(seed: u64, workers: usize, epochs: u32) -> FaultPlan {
        let mut plan = FaultPlan {
            workers: (0..workers)
                .map(|w| WorkerPlan::seeded(seed, w, epochs))
                .collect(),
            checkpoints: BTreeMap::new(),
        };
        for done in 1..=epochs {
            let h = mix(seed, 0xC4EC_4901, done as u64);
            if h.is_multiple_of(5) {
                let f = if (h >> 8).is_multiple_of(2) {
                    CheckpointFault::Fail
                } else {
                    CheckpointFault::Short
                };
                plan.checkpoints.insert(done, f);
            }
        }
        plan
    }

    /// The worker plan for spawn ordinal `w` (empty plan if the
    /// schedule names fewer workers).
    pub fn worker(&self, w: usize) -> WorkerPlan {
        self.workers.get(w).cloned().unwrap_or_default()
    }

    /// Whether the plan schedules nothing at all.
    pub fn is_empty(&self) -> bool {
        self.workers.iter().all(WorkerPlan::is_empty) && self.checkpoints.is_empty()
    }

    /// Renders the schedule as the canonical comma-separated string
    /// ([`FaultPlan::parse`] round-trips it): worker entries in
    /// (ordinal, epoch) order, then checkpoint entries.
    pub fn to_schedule(&self) -> String {
        let mut parts = Vec::new();
        for (w, plan) in self.workers.iter().enumerate() {
            for (epoch, fault) in plan.entries() {
                let name = match fault {
                    EpochFault::Stream(StreamFault::Corrupt) => "corrupt".to_string(),
                    EpochFault::Stream(StreamFault::Truncate) => "truncate".to_string(),
                    EpochFault::Stream(StreamFault::Reset) => "reset".to_string(),
                    EpochFault::Stream(StreamFault::Duplicate) => "dup".to_string(),
                    EpochFault::Stall(ms) => format!("stall{ms}"),
                    EpochFault::Crash => "crash".to_string(),
                };
                parts.push(format!("w{w}:{name}@{epoch}"));
            }
        }
        for (&done, &f) in &self.checkpoints {
            let name = match f {
                CheckpointFault::Fail => "fail",
                CheckpointFault::Short => "short",
            };
            parts.push(format!("ckpt:{name}@{done}"));
        }
        parts.join(",")
    }

    /// Parses a schedule string: comma-separated entries of
    /// `w<N>:<fault>@<epoch>` (fault ∈ `corrupt`, `truncate`, `reset`,
    /// `dup`, `crash`, `stall<MS>`) and `ckpt:<fail|short>@<epoch>`.
    /// The empty string is the empty plan.
    pub fn parse(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for entry in s.split(',').map(str::trim).filter(|e| !e.is_empty()) {
            let (target, rest) = entry
                .split_once(':')
                .ok_or_else(|| format!("chaos entry `{entry}`: expected `target:fault@epoch`"))?;
            let (fault, epoch) = rest
                .split_once('@')
                .ok_or_else(|| format!("chaos entry `{entry}`: missing `@epoch`"))?;
            let epoch: u32 = epoch
                .parse()
                .map_err(|_| format!("chaos entry `{entry}`: bad epoch `{epoch}`"))?;
            if target == "ckpt" {
                let f = match fault {
                    "fail" => CheckpointFault::Fail,
                    "short" => CheckpointFault::Short,
                    other => {
                        return Err(format!(
                            "chaos entry `{entry}`: unknown ckpt fault `{other}`"
                        ))
                    }
                };
                plan.checkpoints.insert(epoch, f);
                continue;
            }
            let w: usize = target
                .strip_prefix('w')
                .and_then(|n| n.parse().ok())
                .ok_or_else(|| format!("chaos entry `{entry}`: bad target `{target}`"))?;
            let f = if let Some(ms) = fault.strip_prefix("stall") {
                EpochFault::Stall(
                    ms.parse()
                        .map_err(|_| format!("chaos entry `{entry}`: bad stall `{fault}`"))?,
                )
            } else {
                match fault {
                    "corrupt" => EpochFault::Stream(StreamFault::Corrupt),
                    "truncate" => EpochFault::Stream(StreamFault::Truncate),
                    "reset" => EpochFault::Stream(StreamFault::Reset),
                    "dup" => EpochFault::Stream(StreamFault::Duplicate),
                    "crash" => EpochFault::Crash,
                    other => return Err(format!("chaos entry `{entry}`: unknown fault `{other}`")),
                }
            };
            while plan.workers.len() <= w {
                plan.workers.push(WorkerPlan::default());
            }
            plan.workers[w].salt = mix(0, w as u64, 0x5A17);
            plan.workers[w].insert(epoch, f);
        }
        Ok(plan)
    }
}

/// Flips one byte of an encoded wire frame at a salt-determined offset,
/// skipping the 4-byte length prefix so the damage lands in the payload
/// (or its CRC trailer) where the receiver's checksum catches it —
/// corrupting the length prefix would instead desynchronize framing
/// until the lease timeout, a different (and separately tested) fault.
pub fn corrupt_frame(bytes: &mut [u8], salt: u64) {
    if bytes.len() <= 4 {
        return;
    }
    let span = bytes.len() - 4;
    let at = 4 + (mix(salt, 0xC0FF, bytes.len() as u64) as usize % span);
    bytes[at] ^= 0xA5;
}

/// How many bytes of a `len`-byte write a torn write keeps: at least 1,
/// always short of the full frame.
pub fn truncate_len(len: usize, salt: u64) -> usize {
    if len <= 1 {
        return 0;
    }
    1 + (mix(salt, 0x7EA2, len as u64) as usize % (len - 1))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = FaultPlan::seeded(42, 4, 16);
        let b = FaultPlan::seeded(42, 4, 16);
        assert_eq!(a, b);
        assert_eq!(a.to_schedule(), b.to_schedule());
        let c = FaultPlan::seeded(43, 4, 16);
        assert_ne!(a.to_schedule(), c.to_schedule());
    }

    #[test]
    fn seeded_schedules_are_nonempty_and_worker0_is_benign() {
        // Across a spread of seeds, schedules exist and worker 0 never
        // draws a fatal fault (the liveness anchor).
        let mut any = 0;
        for seed in 0..64u64 {
            let plan = FaultPlan::seeded(seed, 3, 12);
            if !plan.is_empty() {
                any += 1;
            }
            for (_, fault) in plan.workers[0].entries() {
                assert!(
                    matches!(
                        fault,
                        EpochFault::Stall(_) | EpochFault::Stream(StreamFault::Duplicate)
                    ),
                    "seed {seed}: worker 0 drew {fault:?}"
                );
            }
        }
        assert!(any > 48, "only {any}/64 seeds produced faults");
    }

    #[test]
    fn schedule_string_round_trips() {
        let s = "w0:stall50@1,w1:corrupt@0,w1:crash@2,ckpt:short@2,ckpt:fail@3";
        let plan = FaultPlan::parse(s).unwrap();
        assert_eq!(
            plan.to_schedule(),
            "w0:stall50@1,w1:corrupt@0,w1:crash@2,ckpt:short@2,ckpt:fail@3"
        );
        let seeded = FaultPlan::seeded(7, 3, 8);
        let reparsed = FaultPlan::parse(&seeded.to_schedule()).unwrap();
        assert_eq!(reparsed.to_schedule(), seeded.to_schedule());
        assert_eq!(FaultPlan::parse("").unwrap(), FaultPlan::default());
        assert!(FaultPlan::parse("w1:frobnicate@2").is_err());
        assert!(FaultPlan::parse("w1:corrupt").is_err());
        assert!(FaultPlan::parse("ckpt:corrupt@1").is_err());
    }

    #[test]
    fn faults_fire_once() {
        let mut plan = WorkerPlan::default();
        plan.insert(2, EpochFault::Crash);
        assert_eq!(plan.take(1), None);
        assert_eq!(plan.take(2), Some(EpochFault::Crash));
        assert_eq!(plan.take(2), None, "a rejoined worker must not re-die");
    }

    #[test]
    fn corrupt_frame_spares_the_length_prefix() {
        for len in [5usize, 6, 64, 4096] {
            let mut bytes = vec![0u8; len];
            corrupt_frame(&mut bytes, 99);
            assert_eq!(&bytes[..4], &[0, 0, 0, 0], "len {len}");
            assert_eq!(bytes.iter().filter(|&&b| b != 0).count(), 1, "len {len}");
        }
        let mut tiny = vec![0u8; 4];
        corrupt_frame(&mut tiny, 99);
        assert_eq!(tiny, vec![0u8; 4]);
    }

    #[test]
    fn truncate_is_always_a_proper_prefix() {
        for len in [2usize, 3, 10, 100_000] {
            for salt in 0..32 {
                let keep = truncate_len(len, salt);
                assert!(keep >= 1 && keep < len, "len {len} salt {salt} -> {keep}");
            }
        }
        assert_eq!(truncate_len(1, 0), 0);
    }

    #[test]
    fn rng_is_deterministic() {
        let mut a = ChaosRng::new(123);
        let mut b = ChaosRng::new(123);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let draws: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        assert!(draws.windows(2).all(|w| w[0] != w[1]));
    }
}
