//! The `.tcs` (Teapot Campaign Snapshot) on-disk format.
//!
//! A snapshot captures a whole [`Campaign`](crate::Campaign) between two
//! epochs: the campaign configuration, a fingerprint of the target
//! binary, the number of completed epochs, and every shard's
//! [`StateSnapshot`] (corpus, per-branch heuristic counts, both coverage
//! maps, gadget reports and counters). Shard RNGs are *not* serialized:
//! they are re-seeded from `(shard seed, epoch)` at every epoch
//! boundary, so the epoch number alone reproduces the generator.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! magic   "TCS1"
//! u32     format version (6)
//! u64     FNV-1a fingerprint of the target binary's TOF bytes
//! u32     epochs completed
//! decode  blocks u64 · insts u64 · bytes u64 · undecoded_bytes u64
//!         (decode-cache statistics of the shared Program, so resumed
//!         and remote campaigns can audit decode behavior cross-host)
//! config  seed u64 · shards u32 · epochs u32 · iters_per_epoch u64
//!         · max_input_len u64 · fuel_per_run u64
//!         · detector (6 fields) · emu u8 · heur_style u8
//!         · capture_witnesses u8 · spec_models u8
//!         · adaptive_budgets u8 · corpus_minimize u8
//!         · dictionary (len-prefixed token list)
//! u32     shard count, then per shard:
//!         corpus    u32 count · { bytes input · u64 score }
//!         heur      u32 count · { u64 site-key · u32 count }
//!         cov       bytes normal · bytes spec
//!         gadgets   u32 count · { u64 pc · u8 channel · u8 ctrl
//!                   · u8 model · u64 branch_pc · u64 access_pc
//!                   · u32 depth · bytes description }
//!         witnesses u32 count · { u64 pc · u8 channel · u8 ctrl
//!                   · u8 model · bytes input
//!                   · u32 count { u64 site-key · u32 count }
//!                   · u32 count { u8 kind ·
//!                       0: u64 pc · u32 depth · u8 model (spec branch)
//!                       1: u64 pc · u64 addr · u8 w · u8 tag
//!                          · u8 origin lo · u8 origin hi (tainted)
//!                       2: u64 pc · u32 depth · u8 model (rollback)
//!                       3: u64 pc · u32 depth · u8 model · u8 tag
//!                          · u8 origin lo · u8 origin hi (leak site) } }
//!         u64 iters · u64 total_cost · u64 crashes · u32 epoch
//! budget  u32 count · { u64 features } (per-shard coverage-feature
//!         counts at the start of the last epoch, the adaptive-budget
//!         reference point)
//! crc     u32 CRC32 of every byte before it
//! ```
//!
//! where `bytes` is a `u32` length followed by that many raw bytes.
//! Only this layout loads: a file of any other version fails with
//! [`SnapshotError::BadVersion`].
//!
//! Every record reads and writes through [`teapot_rt::codec`], which
//! owns the byte layout, the truncation error and the bound on what a
//! list count may reserve. The per-record codecs ([`write_shard_state`],
//! [`read_shard_state`], [`write_config`], [`read_config`],
//! [`encode_delta`], [`decode_delta`]) are public: the `teapot-fabric`
//! wire protocol speaks the same vocabulary, so a leased shard state or
//! an epoch delta on the wire is bit-compatible with what a `.tcs` file
//! stores.

use crate::CampaignConfig;
use teapot_fuzz::StateSnapshot;
use teapot_obj::Binary;
use teapot_rt::codec::{self, Reader, Writer};
use teapot_rt::{
    Channel, Controllability, CovDelta, DetectorConfig, GadgetKey, GadgetReport, GadgetWitness,
    OriginSpan, ShardDelta, SpecModel, SpecModelSet, TraceEvent,
};
use teapot_vm::{DecodeStats, EmuStyle, HeurStyle};

/// Magic bytes opening every `.tcs` file.
pub const MAGIC: &[u8; 4] = b"TCS1";

/// Format version written, and the only one read, by this crate.
pub const VERSION: u32 = 6;

/// A deserialized campaign snapshot.
#[derive(Debug, Clone)]
pub struct CampaignSnapshot {
    /// The campaign configuration at snapshot time (`workers` is reset
    /// to auto on load — thread count is an execution detail).
    pub config: CampaignConfig,
    /// FNV-1a fingerprint of the target binary's serialized bytes.
    pub bin_fingerprint: u64,
    /// Epochs completed when the snapshot was taken.
    pub epochs_done: u32,
    /// Decode-cache statistics of the shared [`Program`] at snapshot
    /// time, for cross-host audit of decode behavior.
    ///
    /// [`Program`]: teapot_vm::Program
    pub decode_stats: DecodeStats,
    /// One state per shard, in shard-index order.
    pub shard_states: Vec<StateSnapshot>,
    /// Per-shard coverage-feature counts at the start of the last epoch
    /// (empty before the first epoch) — what
    /// [`adaptive_budgets`](crate::adaptive_budgets) diffs against, so
    /// a resumed campaign hands out the same budgets as an
    /// uninterrupted one.
    pub prev_features: Vec<u64>,
}

/// Why a snapshot failed to load.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The file does not start with [`MAGIC`].
    BadMagic,
    /// The format version is not [`VERSION`].
    BadVersion(u32),
    /// The file ended mid-record or a field was out of range.
    Corrupt(&'static str),
    /// The file ended before a section was complete: which section the
    /// parser was in, and the byte offset where the bytes ran out.
    Truncated {
        /// The section being parsed when the bytes ran out.
        section: &'static str,
        /// Byte offset of the first missing byte.
        offset: usize,
    },
    /// The snapshot was taken against a different binary.
    BinaryMismatch {
        /// Fingerprint recorded in the snapshot.
        expected: u64,
        /// Fingerprint of the binary supplied on resume.
        actual: u64,
    },
    /// The file's CRC32 trailer did not match its contents — a bit
    /// flip or torn write somewhere in the covered bytes.
    Checksum {
        /// Number of bytes the trailer covers (the trailer itself sits
        /// at this offset).
        covered: usize,
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the file contents.
        actual: u32,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::BadMagic => {
                write!(f, "not a .tcs campaign snapshot (bad magic)")
            }
            SnapshotError::BadVersion(v) => {
                write!(f, "unsupported snapshot version {v} (expected {VERSION})")
            }
            SnapshotError::Corrupt(what) => {
                write!(f, "corrupt snapshot: {what}")
            }
            SnapshotError::Truncated { section, offset } => {
                write!(
                    f,
                    "truncated snapshot: file ends inside the {section} \
                     section at byte offset {offset}"
                )
            }
            SnapshotError::BinaryMismatch { expected, actual } => write!(
                f,
                "snapshot was taken against a different binary \
                 (fingerprint {expected:#018x}, got {actual:#018x})"
            ),
            SnapshotError::Checksum {
                covered,
                stored,
                actual,
            } => write!(
                f,
                "corrupt snapshot: CRC32 trailer at byte offset {covered} \
                 stores {stored:#010x} but the contents hash to {actual:#010x}"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<codec::Error> for SnapshotError {
    fn from(e: codec::Error) -> Self {
        match e {
            codec::Error::Truncated { section, offset } => Self::Truncated { section, offset },
            codec::Error::Corrupt(what) => Self::Corrupt(what),
        }
    }
}

/// FNV-1a fingerprint of a binary's serialized TOF bytes, binding a
/// snapshot to the exact binary it was taken against.
pub fn fingerprint(bin: &Binary) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in bin.to_bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

impl CampaignSnapshot {
    /// Serializes the snapshot to `.tcs` bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.raw(MAGIC);
        w.u32(VERSION);
        w.u64(self.bin_fingerprint);
        w.u32(self.epochs_done);
        w.u64(self.decode_stats.blocks as u64);
        w.u64(self.decode_stats.insts as u64);
        w.u64(self.decode_stats.bytes as u64);
        w.u64(self.decode_stats.undecoded_bytes as u64);
        write_config(&mut w, &self.config);
        w.list(&self.shard_states, write_shard_state);
        w.list(&self.prev_features, |w, f| w.u64(*f));
        let mut bytes = w.into_bytes();
        let crc = teapot_rt::crc32(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes
    }

    /// Parses `.tcs` bytes of the current [`VERSION`].
    pub fn from_bytes(bytes: &[u8]) -> Result<CampaignSnapshot, SnapshotError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(SnapshotError::BadVersion(version));
        }
        // Whole-file integrity next: the last 4 bytes are the CRC32 of
        // everything before them. Checking before the body means no
        // corrupted length field is ever trusted during parsing, and
        // the body reader below never sees the trailer.
        if bytes.len() < 12 {
            return Err(SnapshotError::Truncated {
                section: "checksum trailer",
                offset: bytes.len(),
            });
        }
        let covered = bytes.len() - 4;
        let stored = Reader::new(&bytes[covered..]).u32()?;
        let actual = teapot_rt::crc32(&bytes[..covered]);
        if stored != actual {
            return Err(SnapshotError::Checksum {
                covered,
                stored,
                actual,
            });
        }
        let mut r = Reader::new(&bytes[..covered]);
        r.take(8)?; // magic and version, checked above
        let bin_fingerprint = r.u64()?;
        let epochs_done = r.u32()?;
        let decode_stats = DecodeStats {
            blocks: r.u64()? as usize,
            insts: r.u64()? as usize,
            bytes: r.u64()? as usize,
            undecoded_bytes: r.u64()? as usize,
        };
        let config = read_config(&mut r)?;
        r.section("shard table");
        let shard_states = r.list(SHARD_STATE_MIN, read_shard_state)?;
        r.section("budget stats");
        let prev_features = r.list(8, |r| r.u64())?;
        Ok(CampaignSnapshot {
            config,
            bin_fingerprint,
            epochs_done,
            decode_stats,
            shard_states,
            prev_features,
        })
    }

    /// Writes the snapshot to `path` crash-safely: the bytes land in
    /// `<path>.tmp` first and are fsynced, any existing checkpoint is
    /// rotated to `<path>.prev`, and only then is the temp file
    /// atomically renamed into place. A crash (power cut, kill -9, full
    /// disk) at any point leaves either the old checkpoint at `path` or
    /// — between the two renames — intact at `<path>.prev`, never a
    /// half-written file under the real name.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write as _;
        let tmp = sibling(path, ".tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(&self.to_bytes())?;
            f.sync_all()?;
        }
        if path.exists() {
            std::fs::rename(path, sibling(path, ".prev"))?;
        }
        std::fs::rename(&tmp, path)
    }

    /// Reads a snapshot from `path`. Every failure — unreadable file,
    /// bad magic, truncation, checksum mismatch — names the file, so
    /// "file ends inside the corpus section at byte offset N" points
    /// somewhere actionable.
    pub fn load(path: &std::path::Path) -> Result<CampaignSnapshot, crate::CampaignError> {
        let name = path.display().to_string();
        let bytes = std::fs::read(path).map_err(|e| crate::CampaignError::SnapshotFile {
            path: name.clone(),
            reason: e.to_string(),
        })?;
        CampaignSnapshot::from_bytes(&bytes).map_err(|e| crate::CampaignError::SnapshotFile {
            path: name,
            reason: e.to_string(),
        })
    }

    /// Loads `path`, falling back to the `<path>.prev` rotation kept by
    /// [`CampaignSnapshot::save`] when the primary is missing, torn or
    /// corrupt. On fallback the second element carries the primary's
    /// failure text (for a telemetry event / log line); `None` means the
    /// primary loaded cleanly. If both fail, the error is the
    /// *primary's* — that is the file the operator pointed at.
    pub fn load_with_fallback(
        path: &std::path::Path,
    ) -> Result<(CampaignSnapshot, Option<String>), crate::CampaignError> {
        match CampaignSnapshot::load(path) {
            Ok(snap) => Ok((snap, None)),
            Err(primary) => match CampaignSnapshot::load(&sibling(path, ".prev")) {
                Ok(snap) => Ok((snap, Some(primary.to_string()))),
                Err(_) => Err(primary),
            },
        }
    }

    /// Removes a checkpoint and its `.tmp`/`.prev` siblings (queue mode
    /// cleanup once the report has landed).
    pub fn remove(path: &std::path::Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(sibling(path, ".tmp")).ok();
        std::fs::remove_file(sibling(path, ".prev")).ok();
    }
}

/// `path` with `suffix` appended to the full file name (keeps the
/// `.tcs` extension visible: `x.tcs` → `x.tcs.prev`).
fn sibling(path: &std::path::Path, suffix: &str) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(suffix);
    std::path::PathBuf::from(name)
}

// ---------------------------------------------------------------------
// Record codecs — shared by `.tcs` files and the fabric wire protocol
// ---------------------------------------------------------------------

/// Encoded size of the smallest shard state: six empty lists and
/// coverage maps, three `u64` counters and the epoch.
pub const SHARD_STATE_MIN: usize = 6 * 4 + 3 * 8 + 4;

/// Writes the campaign configuration body (current [`VERSION`] layout).
pub fn write_config(w: &mut Writer, c: &CampaignConfig) {
    w.u64(c.seed);
    w.u32(c.shards);
    w.u32(c.epochs);
    w.u64(c.iters_per_epoch);
    w.u64(c.max_input_len as u64);
    w.u64(c.fuel_per_run);
    w.bool(c.detector.taint_input_sources);
    w.bool(c.detector.massage_policy);
    w.u32(c.detector.rob_budget);
    w.u32(c.detector.max_nesting);
    w.u32(c.detector.full_depth_runs);
    w.bool(c.detector.artificial_gadget_mode);
    w.u8(match c.emu {
        EmuStyle::Native => 0,
        EmuStyle::SpecTaint => 1,
    });
    w.u8(match c.heur_style {
        HeurStyle::TeapotHybrid => 0,
        HeurStyle::SpecFuzzGradual => 1,
        HeurStyle::SpecTaintFive => 2,
    });
    w.bool(c.capture_witnesses);
    w.u8(c.models.bits());
    w.bool(c.adaptive_budgets);
    w.bool(c.corpus_minimize);
    w.list(&c.dictionary, |w, tok| w.bytes(tok));
}

/// Reads a campaign configuration body (`workers` is reset to auto —
/// thread count is an execution detail).
pub fn read_config(r: &mut Reader) -> Result<CampaignConfig, SnapshotError> {
    r.section("config");
    let seed = r.u64()?;
    let shards = r.u32()?;
    let epochs = r.u32()?;
    let iters_per_epoch = r.u64()?;
    let max_input_len = r.u64()? as usize;
    let fuel_per_run = r.u64()?;
    let detector = DetectorConfig {
        taint_input_sources: r.bool()?,
        massage_policy: r.bool()?,
        rob_budget: r.u32()?,
        max_nesting: r.u32()?,
        full_depth_runs: r.u32()?,
        artificial_gadget_mode: r.bool()?,
    };
    let emu = match r.u8()? {
        0 => EmuStyle::Native,
        1 => EmuStyle::SpecTaint,
        _ => return Err(SnapshotError::Corrupt("emu style")),
    };
    let heur_style = match r.u8()? {
        0 => HeurStyle::TeapotHybrid,
        1 => HeurStyle::SpecFuzzGradual,
        2 => HeurStyle::SpecTaintFive,
        _ => return Err(SnapshotError::Corrupt("heuristic style")),
    };
    let capture_witnesses = r.bool()?;
    let models =
        SpecModelSet::from_bits(r.u8()?).ok_or(SnapshotError::Corrupt("spec model set"))?;
    let adaptive_budgets = r.bool()?;
    let corpus_minimize = r.bool()?;
    r.section("dictionary");
    let dictionary = r.list(4, |r| r.bytes().map(<[u8]>::to_vec))?;
    Ok(CampaignConfig {
        seed,
        shards,
        workers: 0,
        epochs,
        iters_per_epoch,
        max_input_len,
        fuel_per_run,
        detector,
        emu,
        heur_style,
        models,
        dictionary,
        capture_witnesses,
        adaptive_budgets,
        corpus_minimize,
    })
}

/// A corpus entry: `bytes input · u64 score`.
fn write_entry(w: &mut Writer, (input, score): &(Vec<u8>, u64)) {
    w.bytes(input);
    w.u64(*score);
}

fn read_entry(r: &mut Reader) -> Result<(Vec<u8>, u64), codec::Error> {
    Ok((r.bytes()?.to_vec(), r.u64()?))
}

/// A heuristic count: `u64 site-key · u32 count`.
fn write_heur(w: &mut Writer, &(site, count): &(u64, u32)) {
    w.u64(site);
    w.u32(count);
}

fn read_heur(r: &mut Reader) -> Result<(u64, u32), codec::Error> {
    Ok((r.u64()?, r.u32()?))
}

/// A coverage update: `u32 guard · u8 value`.
fn read_cov_update(r: &mut Reader) -> Result<(u32, u8), codec::Error> {
    Ok((r.u32()?, r.u8()?))
}

/// A gadget key: `u64 pc · u8 channel · u8 ctrl · u8 model`.
fn write_key(w: &mut Writer, k: &GadgetKey) {
    w.u64(k.pc);
    w.u8(match k.channel {
        Channel::Mds => 0,
        Channel::Cache => 1,
        Channel::Port => 2,
    });
    w.u8(match k.controllability {
        Controllability::User => 0,
        Controllability::Massage => 1,
    });
    w.u8(k.model.id());
}

/// Reads a gadget key; a bad channel or controllability byte is
/// `Corrupt` with the matching name of `bad`.
fn read_key(r: &mut Reader, bad: [&'static str; 2]) -> Result<GadgetKey, SnapshotError> {
    let pc = r.u64()?;
    let channel = match r.u8()? {
        0 => Channel::Mds,
        1 => Channel::Cache,
        2 => Channel::Port,
        _ => return Err(SnapshotError::Corrupt(bad[0])),
    };
    let controllability = match r.u8()? {
        0 => Controllability::User,
        1 => Controllability::Massage,
        _ => return Err(SnapshotError::Corrupt(bad[1])),
    };
    let model = read_model(r)?;
    Ok(GadgetKey {
        pc,
        channel,
        controllability,
        model,
    })
}

/// Speculation-model byte.
fn read_model(r: &mut Reader) -> Result<SpecModel, SnapshotError> {
    SpecModel::from_id(r.u8()?).ok_or(SnapshotError::Corrupt("spec model"))
}

/// Input-origin interval (two raw bytes).
fn write_origin(w: &mut Writer, origin: &OriginSpan) {
    let (lo, hi) = origin.raw();
    w.u8(lo);
    w.u8(hi);
}

fn read_origin(r: &mut Reader) -> Result<OriginSpan, codec::Error> {
    Ok(OriginSpan::from_raw(r.u8()?, r.u8()?))
}

/// Encoded size of the smallest gadget report: key, two pcs, depth and
/// an empty description.
const GADGET_MIN: usize = 11 + 8 + 8 + 4 + 4;

fn write_gadget(w: &mut Writer, g: &GadgetReport) {
    write_key(w, &g.key);
    w.u64(g.branch_pc);
    w.u64(g.access_pc);
    w.u32(g.depth);
    w.bytes(g.description.as_bytes());
}

fn read_gadget(r: &mut Reader) -> Result<GadgetReport, SnapshotError> {
    let key = read_key(r, ["channel", "controllability"])?;
    let branch_pc = r.u64()?;
    let access_pc = r.u64()?;
    let depth = r.u32()?;
    let description = String::from_utf8(r.bytes()?.to_vec())
        .map_err(|_| SnapshotError::Corrupt("description"))?;
    Ok(GadgetReport {
        key,
        branch_pc,
        access_pc,
        depth,
        description,
    })
}

/// Encoded size of the smallest witness: key and three empty lists.
const WITNESS_MIN: usize = 11 + 3 * 4;

/// Encoded size of the smallest trace event (a spec branch or rollback).
const EVENT_MIN: usize = 1 + 8 + 4 + 1;

fn write_witness(w: &mut Writer, wit: &GadgetWitness) {
    write_key(w, &wit.key);
    w.bytes(&wit.input);
    w.list(&wit.heur_counts, write_heur);
    w.list(&wit.trace, write_event);
}

fn read_witness(r: &mut Reader) -> Result<GadgetWitness, SnapshotError> {
    let key = read_key(r, ["witness channel", "witness controllability"])?;
    let input = r.bytes()?.to_vec();
    let heur_counts = r.list(12, read_heur)?;
    let tr_len = r.u32()? as usize;
    if tr_len > teapot_rt::MAX_TRACE_EVENTS {
        return Err(SnapshotError::Corrupt("witness trace length"));
    }
    let trace = r.items(tr_len, EVENT_MIN, read_event)?;
    Ok(GadgetWitness {
        key,
        input,
        heur_counts,
        trace,
    })
}

fn write_event(w: &mut Writer, ev: &TraceEvent) {
    match ev {
        TraceEvent::SpecBranch { pc, depth, model } => {
            w.u8(0);
            w.u64(*pc);
            w.u32(*depth);
            w.u8(model.id());
        }
        TraceEvent::TaintedAccess {
            pc,
            addr,
            width,
            tag,
            origin,
        } => {
            w.u8(1);
            w.u64(*pc);
            w.u64(*addr);
            w.u8(*width);
            w.u8(*tag);
            write_origin(w, origin);
        }
        TraceEvent::Rollback { pc, depth, model } => {
            w.u8(2);
            w.u64(*pc);
            w.u32(*depth);
            w.u8(model.id());
        }
        TraceEvent::LeakSite {
            pc,
            depth,
            model,
            tag,
            origin,
        } => {
            w.u8(3);
            w.u64(*pc);
            w.u32(*depth);
            w.u8(model.id());
            w.u8(*tag);
            write_origin(w, origin);
        }
    }
}

fn read_event(r: &mut Reader) -> Result<TraceEvent, SnapshotError> {
    Ok(match r.u8()? {
        0 => TraceEvent::SpecBranch {
            pc: r.u64()?,
            depth: r.u32()?,
            model: read_model(r)?,
        },
        1 => TraceEvent::TaintedAccess {
            pc: r.u64()?,
            addr: r.u64()?,
            width: r.u8()?,
            tag: r.u8()?,
            origin: read_origin(r)?,
        },
        2 => TraceEvent::Rollback {
            pc: r.u64()?,
            depth: r.u32()?,
            model: read_model(r)?,
        },
        3 => TraceEvent::LeakSite {
            pc: r.u64()?,
            depth: r.u32()?,
            model: read_model(r)?,
            tag: r.u8()?,
            origin: read_origin(r)?,
        },
        _ => return Err(SnapshotError::Corrupt("trace event kind")),
    })
}

/// Writes one shard's [`StateSnapshot`] (current [`VERSION`] layout) —
/// the unit a fabric lease ships to a worker.
pub fn write_shard_state(w: &mut Writer, s: &StateSnapshot) {
    w.list(&s.corpus, write_entry);
    w.list(&s.heur_counts, write_heur);
    w.bytes(&s.cov_normal);
    w.bytes(&s.cov_spec);
    w.list(&s.gadgets, write_gadget);
    w.list(&s.witnesses, write_witness);
    w.u64(s.iters);
    w.u64(s.total_cost);
    w.u64(s.crashes);
    w.u32(s.epoch);
}

/// Reads one shard's [`StateSnapshot`].
pub fn read_shard_state(r: &mut Reader) -> Result<StateSnapshot, SnapshotError> {
    r.section("corpus");
    let corpus = r.list(12, read_entry)?;
    r.section("heuristics");
    let heur_counts = r.list(12, read_heur)?;
    r.section("coverage");
    let cov_normal = r.bytes()?.to_vec();
    let cov_spec = r.bytes()?.to_vec();
    // A wrong-length map would silently resume as empty coverage
    // (diverging from the uninterrupted run); reject it here.
    if cov_normal.len() != teapot_rt::coverage::COV_MAP_SIZE
        || cov_spec.len() != teapot_rt::coverage::COV_MAP_SIZE
    {
        return Err(SnapshotError::Corrupt("coverage map size"));
    }
    r.section("gadgets");
    let gadgets = r.list(GADGET_MIN, read_gadget)?;
    r.section("witnesses");
    let witnesses = r.list(WITNESS_MIN, read_witness)?;
    r.section("shard counters");
    let iters = r.u64()?;
    let total_cost = r.u64()?;
    let crashes = r.u64()?;
    let epoch = r.u32()?;
    Ok(StateSnapshot {
        corpus,
        heur_counts,
        cov_normal,
        cov_spec,
        gadgets,
        witnesses,
        iters,
        total_cost,
        crashes,
        epoch,
    })
}

/// Serializes a [`ShardDelta`] for the fabric wire (always the current
/// [`VERSION`] vocabulary — deltas are ephemeral protocol objects, never
/// stored on disk, so they carry no compatibility burden).
pub fn encode_delta(d: &ShardDelta) -> Vec<u8> {
    let mut w = Writer::new();
    w.u32(d.shard);
    w.u32(d.epoch);
    w.u8(d.phase);
    w.u32(d.state_epoch);
    w.u64(d.iters);
    w.u64(d.total_cost);
    w.u64(d.crashes);
    w.u32(d.fresh_count);
    w.list(&d.corpus_append, write_entry);
    w.bool(d.corpus_replaced.is_some());
    if let Some(full) = &d.corpus_replaced {
        w.list(full, write_entry);
    }
    w.list(&d.heur_counts, write_heur);
    for cov in [&d.cov_normal, &d.cov_spec] {
        w.list(&cov.updates, |w, &(guard, value)| {
            w.u32(guard);
            w.u8(value);
        });
    }
    w.list(&d.gadgets_append, write_gadget);
    w.list(&d.witnesses_append, write_witness);
    w.into_bytes()
}

/// Parses a [`ShardDelta`] produced by [`encode_delta`].
pub fn decode_delta(bytes: &[u8]) -> Result<ShardDelta, SnapshotError> {
    let mut r = Reader::new(bytes);
    r.section("delta header");
    let shard = r.u32()?;
    let epoch = r.u32()?;
    let phase = r.u8()?;
    let state_epoch = r.u32()?;
    let iters = r.u64()?;
    let total_cost = r.u64()?;
    let crashes = r.u64()?;
    let fresh_count = r.u32()?;
    r.section("delta corpus");
    let corpus_append = r.list(12, read_entry)?;
    let corpus_replaced = if r.bool()? {
        Some(r.list(12, read_entry)?)
    } else {
        None
    };
    r.section("delta heuristics");
    let heur_counts = r.list(12, read_heur)?;
    r.section("delta coverage");
    let cov_normal = CovDelta {
        updates: r.list(5, read_cov_update)?,
    };
    let cov_spec = CovDelta {
        updates: r.list(5, read_cov_update)?,
    };
    r.section("delta gadgets");
    let gadgets_append = r.list(GADGET_MIN, read_gadget)?;
    r.section("delta witnesses");
    let witnesses_append = r.list(WITNESS_MIN, read_witness)?;
    Ok(ShardDelta {
        shard,
        epoch,
        phase,
        corpus_append,
        fresh_count,
        corpus_replaced,
        heur_counts,
        cov_normal,
        cov_spec,
        gadgets_append,
        witnesses_append,
        iters,
        total_cost,
        crashes,
        state_epoch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> CampaignSnapshot {
        CampaignSnapshot {
            config: CampaignConfig {
                seed: 0xDEAD_BEEF,
                shards: 2,
                epochs: 3,
                iters_per_epoch: 50,
                dictionary: vec![b"GET".to_vec(), b"POST".to_vec()],
                models: SpecModelSet::parse("pht,rsb").unwrap(),
                ..CampaignConfig::default()
            },
            bin_fingerprint: 0x1234_5678_9ABC_DEF0,
            epochs_done: 2,
            decode_stats: DecodeStats {
                blocks: 12,
                insts: 340,
                bytes: 2048,
                undecoded_bytes: 3,
            },
            shard_states: (0..2)
                .map(|i| StateSnapshot {
                    corpus: vec![(vec![i as u8; 4], 3)],
                    heur_counts: vec![(0x400100, 7), (0x400200, 2)],
                    cov_normal: vec![0; teapot_rt::coverage::COV_MAP_SIZE],
                    cov_spec: vec![0; teapot_rt::coverage::COV_MAP_SIZE],
                    gadgets: vec![GadgetReport {
                        key: GadgetKey {
                            pc: 0x400180 + i,
                            channel: Channel::Cache,
                            controllability: Controllability::User,
                            model: if i == 0 {
                                SpecModel::Pht
                            } else {
                                SpecModel::Rsb
                            },
                        },
                        branch_pc: 0x400100,
                        access_pc: 0x400140,
                        depth: 1,
                        description: "test gadget".into(),
                    }],
                    witnesses: vec![GadgetWitness {
                        key: GadgetKey {
                            pc: 0x400180 + i,
                            channel: Channel::Cache,
                            controllability: Controllability::User,
                            model: if i == 0 {
                                SpecModel::Pht
                            } else {
                                SpecModel::Rsb
                            },
                        },
                        input: vec![0x7f, 200, i as u8],
                        heur_counts: vec![(0x400100, 7)],
                        trace: vec![
                            TraceEvent::SpecBranch {
                                pc: 0x400100,
                                depth: 1,
                                model: SpecModel::Pht,
                            },
                            TraceEvent::TaintedAccess {
                                pc: 0x400140,
                                addr: 0x80_0000,
                                width: 4,
                                tag: 5,
                                origin: OriginSpan::from_offset(1).join(OriginSpan::from_offset(3)),
                            },
                            TraceEvent::LeakSite {
                                pc: 0x400180 + i,
                                depth: 1,
                                model: SpecModel::Pht,
                                tag: 5,
                                origin: OriginSpan::from_offset(1),
                            },
                            TraceEvent::Rollback {
                                pc: 0x400100,
                                depth: 1,
                                model: SpecModel::Stl,
                            },
                        ],
                    }],
                    iters: 60,
                    total_cost: 1000,
                    crashes: 1,
                    epoch: 2,
                })
                .collect(),
            prev_features: vec![3, 4],
        }
    }

    #[test]
    fn snapshot_bytes_round_trip() {
        let snap = sample_snapshot();
        let bytes = snap.to_bytes();
        let back = CampaignSnapshot::from_bytes(&bytes).unwrap();
        assert_eq!(back.bin_fingerprint, snap.bin_fingerprint);
        assert_eq!(back.epochs_done, snap.epochs_done);
        assert_eq!(back.config.seed, snap.config.seed);
        assert_eq!(back.config.shards, snap.config.shards);
        assert_eq!(back.config.dictionary, snap.config.dictionary);
        assert_eq!(back.decode_stats, snap.decode_stats);
        assert_eq!(back.config.capture_witnesses, snap.config.capture_witnesses);
        // Non-default model set (and per-record model tags) survive.
        assert_eq!(back.config.models, SpecModelSet::parse("pht,rsb").unwrap());
        assert_eq!(back.shard_states.len(), snap.shard_states.len());
        for (a, b) in back.shard_states.iter().zip(&snap.shard_states) {
            assert_eq!(a.corpus, b.corpus);
            assert_eq!(a.heur_counts, b.heur_counts);
            assert_eq!(a.gadgets, b.gadgets);
            assert_eq!(a.witnesses, b.witnesses);
            assert_eq!(a.iters, b.iters);
            assert_eq!(a.epoch, b.epoch);
        }
    }

    #[test]
    fn parser_rejects_garbage_and_truncations() {
        assert_eq!(
            CampaignSnapshot::from_bytes(b"nope").unwrap_err(),
            SnapshotError::BadMagic
        );
        let bytes = sample_snapshot().to_bytes();
        for l in (0..bytes.len()).step_by(97) {
            // Must error, never panic.
            assert!(CampaignSnapshot::from_bytes(&bytes[..l]).is_err());
        }
        let mut wrong_version = bytes.clone();
        wrong_version[4] = 9;
        assert_eq!(
            CampaignSnapshot::from_bytes(&wrong_version).unwrap_err(),
            SnapshotError::BadVersion(9)
        );
    }

    #[test]
    fn parser_rejects_wrong_coverage_map_size() {
        let mut snap = sample_snapshot();
        snap.shard_states[0].cov_normal.truncate(16);
        assert_eq!(
            CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap_err(),
            SnapshotError::Corrupt("coverage map size")
        );
    }

    #[test]
    fn round_trip_keeps_budget_state() {
        let mut snap = sample_snapshot();
        snap.config.adaptive_budgets = true;
        snap.config.corpus_minimize = true;
        let back = CampaignSnapshot::from_bytes(&snap.to_bytes()).unwrap();
        assert!(back.config.adaptive_budgets);
        assert!(back.config.corpus_minimize);
        assert_eq!(back.prev_features, vec![3, 4]);
    }

    /// Truncates a serialized snapshot to `cut` bytes and re-seals it
    /// with a valid CRC trailer, so `from_bytes` gets past the
    /// integrity check and exercises the body parser's truncation
    /// reporting (a file torn without a trailer fails the CRC first).
    fn reseal(bytes: &[u8], cut: usize) -> Vec<u8> {
        let mut out = bytes[..cut].to_vec();
        out.extend_from_slice(&teapot_rt::crc32(&out).to_le_bytes());
        out
    }

    #[test]
    fn truncation_names_the_section_and_offset() {
        let bytes = sample_snapshot().to_bytes();
        // Slice mid-version: the error must name the header section and
        // the exact byte offset where the file ran out.
        match CampaignSnapshot::from_bytes(&bytes[..6]).unwrap_err() {
            SnapshotError::Truncated { section, offset } => {
                assert_eq!(section, "header");
                assert!(offset <= 6);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // A v6 file big enough to carry a version but not a trailer
        // names the trailer itself.
        match CampaignSnapshot::from_bytes(&bytes[..10]).unwrap_err() {
            SnapshotError::Truncated { section, offset } => {
                assert_eq!(section, "checksum trailer");
                assert_eq!(offset, 10);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        // Slice mid-corpus (just past the shard count): the section
        // name must follow the cursor.
        let hdr = 4 + 4 + 8 + 4 + 32; // magic..decode stats
        let mut r = Reader::new(&bytes);
        r.take(hdr).unwrap();
        read_config(&mut r).unwrap();
        let cut = r.offset() + 6; // shard count u32 + 2 bytes into shard 0
        let err = CampaignSnapshot::from_bytes(&reseal(&bytes, cut)).unwrap_err();
        match err {
            SnapshotError::Truncated { section, offset } => {
                assert_eq!(section, "corpus");
                assert!(offset <= cut);
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("corpus"), "{msg}");
        assert!(msg.contains("byte offset"), "{msg}");
    }

    #[test]
    fn older_versions_are_rejected_by_name() {
        // Pre-v6 layouts are not read: a header saying version 5 (no
        // CRC trailer) or version 1 fails with the typed version error
        // before any body field is parsed, and `load` names the file.
        let dir = std::env::temp_dir().join(format!("tcs-old-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let current = sample_snapshot().to_bytes();
        for old in [5u32, 1] {
            let mut bytes = current[..current.len() - 4].to_vec();
            bytes[4..8].copy_from_slice(&old.to_le_bytes());
            assert_eq!(
                CampaignSnapshot::from_bytes(&bytes).unwrap_err(),
                SnapshotError::BadVersion(old)
            );
            let path = dir.join(format!("v{old}.tcs"));
            std::fs::write(&path, &bytes).unwrap();
            let msg = CampaignSnapshot::load(&path).unwrap_err().to_string();
            assert!(msg.contains(&format!("v{old}.tcs")), "{msg}");
            assert!(
                msg.contains(&format!("unsupported snapshot version {old} (expected 6)")),
                "{msg}"
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_names_the_file_in_errors() {
        let dir = std::env::temp_dir().join(format!("tcs-load-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("truncated.tcs");
        let bytes = sample_snapshot().to_bytes();
        // A torn v6 file fails the whole-file CRC before the body
        // parser ever runs — the error names the file and the trailer.
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = CampaignSnapshot::load(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated.tcs"), "{msg}");
        assert!(msg.contains("CRC32 trailer"), "{msg}");
        // Re-sealed to a valid trailer, the body parser's truncation
        // message (with file name) comes through instead.
        std::fs::write(&path, reseal(&bytes, bytes.len() / 2)).unwrap();
        let err = CampaignSnapshot::load(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("truncated.tcs"), "{msg}");
        assert!(msg.contains("file ends inside"), "{msg}");
        let missing = dir.join("nope.tcs");
        let err = CampaignSnapshot::load(&missing).unwrap_err();
        assert!(err.to_string().contains("nope.tcs"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn delta_codec_round_trips() {
        let snap = sample_snapshot();
        let s = &snap.shard_states[1];
        let d = ShardDelta {
            shard: 1,
            epoch: 7,
            phase: 1,
            corpus_append: s.corpus.clone(),
            fresh_count: 1,
            corpus_replaced: Some(vec![(vec![9, 9], 4)]),
            heur_counts: s.heur_counts.clone(),
            cov_normal: CovDelta {
                updates: vec![(3, 1), (700, 255)],
            },
            cov_spec: CovDelta::default(),
            gadgets_append: s.gadgets.clone(),
            witnesses_append: s.witnesses.clone(),
            iters: 1234,
            total_cost: 99999,
            crashes: 2,
            state_epoch: 8,
        };
        let bytes = encode_delta(&d);
        let back = decode_delta(&bytes).unwrap();
        assert_eq!(back, d);
        // Truncated deltas also name their section.
        match decode_delta(&bytes[..bytes.len() - 1]).unwrap_err() {
            SnapshotError::Truncated { section, .. } => {
                assert_eq!(section, "delta witnesses")
            }
            other => panic!("expected Truncated, got {other:?}"),
        }
    }
}
