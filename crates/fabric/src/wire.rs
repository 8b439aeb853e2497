//! The fabric wire protocol: length-prefixed, versioned, checksummed
//! frames over a byte stream (TCP in practice; anything `Read + Write`
//! in tests).
//!
//! Every frame is
//!
//! ```text
//! u32 LE payload length · payload · u32 LE CRC32(payload)
//! payload = u8 wire version · u8 tag · body
//! ```
//!
//! The CRC32 trailer (wire v2) covers the whole payload: a bit-flipped
//! frame is rejected *before* body parsing with a typed
//! [`WireError::Checksum`] naming the frame kind, so the receiver
//! never trusts a corrupted length field deeper in the body. Frames
//! read and write through the byte codec [`teapot_rt::codec`], and the
//! records inside them (configs, shard states, epoch deltas) through
//! the `.tcs` record codecs of [`teapot_campaign::snapshot`]: a leased
//! shard state or an epoch delta on the wire is bit-compatible with
//! what a snapshot file stores. Every body parse failure is a
//! [`WireError::Body`] naming the frame kind plus the section and byte
//! offset where the bytes ran out or went bad, and no list count in a
//! frame reserves more items than the frame's bytes can hold. No input
//! from the peer can panic this module.
//!
//! The conversation (one campaign):
//!
//! ```text
//! worker → coordinator   Hello        (once per connection)
//! coordinator → worker   Lease        (config + binary + shard states
//!                                      + per-shard budgets; also used
//!                                      mid-epoch to re-lease a dead
//!                                      worker's shards)
//! worker → coordinator   Decode       (decode-cache stats, once per lease)
//! worker → coordinator   Delta        (one per shard per phase)
//! coordinator → worker   Barrier      (epoch's fresh inputs, all shards)
//! coordinator → worker   Proceed      (next epoch's budgets)
//! coordinator → worker   Complete     (campaign done; await next Lease)
//! coordinator → worker   Shutdown     (close the connection)
//! ```
//!
//! # Error frames and quarantine
//!
//! There is no NAK frame: a malformed or checksum-failing frame
//! condemns the *connection*, not the campaign. The coordinator marks
//! the connection dead (quarantine), shuts the socket down, and
//! re-leases the worker's outstanding shards to a survivor; a worker
//! that reads a bad frame drops the connection and rejoins. Both sides
//! rely on re-run determinism — deltas are pure functions of boundary
//! state — so a quarantined connection never changes any result.
//!
//! # The rejoin handshake
//!
//! A worker whose connection died (its own crash, a quarantine, a torn
//! stream) reconnects with bounded exponential backoff and sends a
//! fresh `Hello` — the rejoin handshake is just the join handshake.
//! Until the coordinator re-leases it shards, the rejoined worker
//! holds no session and silently ignores the broadcast `Barrier` /
//! `Proceed` / `Complete` traffic of the epoch in flight; the
//! coordinator counts the rejoin and folds the connection back into
//! its re-lease pool.

use std::io::Write;
use teapot_campaign::snapshot::{
    decode_delta, encode_delta, read_config, read_shard_state, write_config, write_shard_state,
    SnapshotError, SHARD_STATE_MIN,
};
use teapot_campaign::CampaignConfig;
use teapot_fuzz::StateSnapshot;
use teapot_rt::codec::{self, Reader, Writer};
use teapot_rt::{crc32, ShardDelta};
use teapot_vm::DecodeStats;

/// Version byte carried by every frame. Bumped when the frame grammar
/// changes; the snapshot-format version
/// [`VERSION`](teapot_campaign::snapshot::VERSION) covers body layout.
/// v2 added the per-frame CRC32 trailer.
pub const WIRE_VERSION: u8 = 2;

/// Upper bound on a single frame's payload (defense against a corrupt
/// or hostile length prefix allocating unbounded memory). Leases carry
/// whole shard states (two 64 KiB coverage maps each) plus the target
/// binary, so the cap is generous.
pub const MAX_FRAME_LEN: u32 = 1 << 30;

const TAG_HELLO: u8 = 1;
const TAG_LEASE: u8 = 2;
const TAG_DECODE: u8 = 3;
const TAG_DELTA: u8 = 4;
const TAG_BARRIER: u8 = 5;
const TAG_PROCEED: u8 = 6;
const TAG_COMPLETE: u8 = 7;
const TAG_SHUTDOWN: u8 = 8;

/// Human-readable frame kind for a tag byte — what typed wire errors
/// report. Safe on arbitrary (corrupt) tag values.
pub fn tag_name(tag: u8) -> &'static str {
    match tag {
        TAG_HELLO => "hello",
        TAG_LEASE => "lease",
        TAG_DECODE => "decode",
        TAG_DELTA => "delta",
        TAG_BARRIER => "barrier",
        TAG_PROCEED => "proceed",
        TAG_COMPLETE => "complete",
        TAG_SHUTDOWN => "shutdown",
        _ => "unknown",
    }
}

/// Frame kind of an encoded payload (`version · tag · body`), for
/// error reporting on frames that failed before parsing.
fn payload_kind(payload: &[u8]) -> &'static str {
    payload.get(1).map_or("unknown", |&t| tag_name(t))
}

/// One shard granted by a [`Lease`]: its index, this epoch's iteration
/// budget, and the state to fuzz from.
#[derive(Debug, Clone, PartialEq)]
pub struct LeasedShard {
    /// Absolute shard index within the campaign.
    pub shard: u32,
    /// Iteration budget for the lease's starting epoch.
    pub budget: u64,
    /// Shard state at the relevant boundary (epoch start for a phase-0
    /// lease, post-fuzzing for a phase-1 re-lease).
    pub state: StateSnapshot,
}

/// A self-contained work grant: everything a fresh worker process needs
/// to fuzz its shards — configuration, the instrumented binary, seed
/// inputs, and per-shard states with budgets.
#[derive(Debug, Clone, PartialEq)]
pub struct Lease {
    /// Fingerprint of `binary` (workers key their session on it).
    pub fingerprint: u64,
    /// Epoch the leased shards run next.
    pub start_epoch: u32,
    /// Phase the leased shards enter: `0` — fuzz `start_epoch` now;
    /// `1` — states are already post-fuzzing, await the barrier.
    pub phase: u8,
    /// Whether the worker must seed the leased shards' corpora before
    /// fuzzing (true only on the campaign's first epoch).
    pub seed_first: bool,
    /// Campaign configuration (identical across all leases).
    pub config: CampaignConfig,
    /// TOF bytes of the instrumented target binary.
    pub binary: Vec<u8>,
    /// Seed inputs for [`Lease::seed_first`].
    pub seeds: Vec<Vec<u8>>,
    /// The granted shards, in ascending index order.
    pub shards: Vec<LeasedShard>,
}

/// A parsed fabric frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Worker introduction.
    Hello {
        /// Display name (telemetry only, never state).
        name: String,
    },
    /// Work grant (initial or re-lease).
    Lease(Lease),
    /// Decode-cache statistics of the worker's shared [`Program`]
    /// (deterministic, so every worker reports identical numbers).
    ///
    /// [`Program`]: teapot_vm::Program
    Decode(DecodeStats),
    /// One shard's epoch delta (see [`teapot_rt::ShardDelta`]).
    Delta(ShardDelta),
    /// Epoch barrier: the fresh inputs of **all** shards in shard-index
    /// order; each worker runs the cross-pollination imports for its
    /// own shards.
    Barrier {
        /// Epoch the barrier closes.
        epoch: u32,
        /// Whether shards run corpus minimization after importing.
        minimize: bool,
        /// `fresh[i]` = inputs shard `i` found this epoch.
        fresh: Vec<Vec<Vec<u8>>>,
    },
    /// Start the next epoch's fuzzing phase.
    Proceed {
        /// Epoch to fuzz.
        epoch: u32,
        /// Per-shard budgets, indexed by absolute shard index.
        budgets: Vec<u64>,
    },
    /// The campaign finished; the worker keeps the connection open for
    /// the next campaign's lease (queue mode).
    Complete,
    /// Close the connection.
    Shutdown,
}

/// Wire-protocol errors. Every variant produced while parsing peer
/// bytes names the frame kind involved; body errors additionally carry
/// the snapshot codec's section + byte offset.
#[derive(Debug)]
pub enum WireError {
    /// Socket I/O failed.
    Io(std::io::Error),
    /// A frame body failed to parse: which frame kind, and the codec
    /// error (section + byte offset within the payload).
    Body {
        /// Frame kind (`"lease"`, `"delta"`, … or `"unknown"`).
        frame: &'static str,
        /// The underlying codec error.
        error: SnapshotError,
    },
    /// The frame's CRC32 trailer did not match its payload.
    Checksum {
        /// Frame kind per the (possibly corrupt) tag byte.
        frame: &'static str,
        /// Payload length of the rejected frame.
        len: usize,
        /// CRC stored in the trailer.
        stored: u32,
        /// CRC computed over the received payload.
        actual: u32,
    },
    /// Frame grammar violation (bad tag, bad version, oversized length).
    Protocol(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "i/o: {e}"),
            WireError::Body { frame, error } => write!(f, "{frame} frame body: {error}"),
            WireError::Checksum {
                frame,
                len,
                stored,
                actual,
            } => write!(
                f,
                "{frame} frame checksum mismatch over {len} payload bytes: \
                 stored {stored:#010x}, computed {actual:#010x}"
            ),
            WireError::Protocol(what) => write!(f, "protocol: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<SnapshotError> for WireError {
    fn from(error: SnapshotError) -> Self {
        WireError::Body {
            frame: "unknown",
            error,
        }
    }
}

impl From<codec::Error> for WireError {
    fn from(error: codec::Error) -> Self {
        SnapshotError::from(error).into()
    }
}

impl WireError {
    /// Stamps the frame kind onto a body error produced before the tag
    /// was known to the `?`-conversion.
    fn with_frame(self, name: &'static str) -> WireError {
        match self {
            WireError::Body { error, .. } => WireError::Body { frame: name, error },
            other => other,
        }
    }
}

/// Serializes `frame` as one length-prefixed wire frame.
pub fn encode_frame(frame: &Frame) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(WIRE_VERSION);
    match frame {
        Frame::Hello { name } => {
            w.u8(TAG_HELLO);
            w.bytes(name.as_bytes());
        }
        Frame::Lease(l) => {
            w.u8(TAG_LEASE);
            w.u64(l.fingerprint);
            w.u32(l.start_epoch);
            w.u8(l.phase);
            w.bool(l.seed_first);
            write_config(&mut w, &l.config);
            w.bytes(&l.binary);
            w.list(&l.seeds, |w, s| w.bytes(s));
            w.list(&l.shards, |w, ls| {
                w.u32(ls.shard);
                w.u64(ls.budget);
                write_shard_state(w, &ls.state);
            });
        }
        Frame::Decode(d) => {
            w.u8(TAG_DECODE);
            w.u64(d.blocks as u64);
            w.u64(d.insts as u64);
            w.u64(d.bytes as u64);
            w.u64(d.undecoded_bytes as u64);
        }
        Frame::Delta(d) => {
            w.u8(TAG_DELTA);
            w.bytes(&encode_delta(d));
        }
        Frame::Barrier {
            epoch,
            minimize,
            fresh,
        } => {
            w.u8(TAG_BARRIER);
            w.u32(*epoch);
            w.bool(*minimize);
            w.list(fresh, |w, inputs| w.list(inputs, |w, input| w.bytes(input)));
        }
        Frame::Proceed { epoch, budgets } => {
            w.u8(TAG_PROCEED);
            w.u32(*epoch);
            w.list(budgets, |w, b| w.u64(*b));
        }
        Frame::Complete => w.u8(TAG_COMPLETE),
        Frame::Shutdown => w.u8(TAG_SHUTDOWN),
    }
    let payload = w.into_bytes();
    let mut out = Writer::new();
    out.bytes(&payload);
    out.u32(crc32(&payload));
    out.into_bytes()
}

/// Verifies a payload against its 4-byte CRC32 trailer.
fn check_crc(payload: &[u8], trailer: &[u8]) -> Result<(), WireError> {
    let stored = u32::from_le_bytes([trailer[0], trailer[1], trailer[2], trailer[3]]);
    let actual = crc32(payload);
    if stored != actual {
        return Err(WireError::Checksum {
            frame: payload_kind(payload),
            len: payload.len(),
            stored,
            actual,
        });
    }
    Ok(())
}

/// Parses one frame payload (the bytes between the length prefix and
/// the CRC trailer).
pub fn decode_payload(payload: &[u8]) -> Result<Frame, WireError> {
    let mut r = Reader::new(payload);
    r.section("frame header");
    if r.u8()? != WIRE_VERSION {
        return Err(WireError::Protocol("unsupported wire version"));
    }
    let tag = r.u8()?;
    decode_body(tag, &mut r).map_err(|e| e.with_frame(tag_name(tag)))
}

/// Parses a frame body once version + tag are known.
fn decode_body(tag: u8, r: &mut Reader) -> Result<Frame, WireError> {
    match tag {
        TAG_HELLO => {
            r.section("hello");
            let name = String::from_utf8(r.bytes()?.to_vec())
                .map_err(|_| WireError::Protocol("hello name not utf-8"))?;
            Ok(Frame::Hello { name })
        }
        TAG_LEASE => {
            r.section("lease header");
            let fingerprint = r.u64()?;
            let start_epoch = r.u32()?;
            let phase = r.u8()?;
            let seed_first = r.bool()?;
            let config = read_config(r)?;
            r.section("lease binary");
            let binary = r.bytes()?.to_vec();
            r.section("lease seeds");
            let seeds = r.list(4, |r| r.bytes().map(<[u8]>::to_vec))?;
            r.section("lease shards");
            let shards = r.list(4 + 8 + SHARD_STATE_MIN, read_leased_shard)?;
            Ok(Frame::Lease(Lease {
                fingerprint,
                start_epoch,
                phase,
                seed_first,
                config,
                binary,
                seeds,
                shards,
            }))
        }
        TAG_DECODE => {
            r.section("decode stats");
            Ok(Frame::Decode(DecodeStats {
                blocks: r.u64()? as usize,
                insts: r.u64()? as usize,
                bytes: r.u64()? as usize,
                undecoded_bytes: r.u64()? as usize,
            }))
        }
        TAG_DELTA => {
            r.section("delta");
            Ok(Frame::Delta(decode_delta(r.bytes()?)?))
        }
        TAG_BARRIER => {
            r.section("barrier");
            let epoch = r.u32()?;
            let minimize = r.bool()?;
            let fresh = r.list(4, |r| r.list(4, |r| r.bytes().map(<[u8]>::to_vec)))?;
            Ok(Frame::Barrier {
                epoch,
                minimize,
                fresh,
            })
        }
        TAG_PROCEED => {
            r.section("proceed");
            let epoch = r.u32()?;
            let budgets = r.list(8, |r| r.u64())?;
            Ok(Frame::Proceed { epoch, budgets })
        }
        TAG_COMPLETE => Ok(Frame::Complete),
        TAG_SHUTDOWN => Ok(Frame::Shutdown),
        _ => Err(WireError::Protocol("unknown frame tag")),
    }
}

fn read_leased_shard(r: &mut Reader) -> Result<LeasedShard, SnapshotError> {
    Ok(LeasedShard {
        shard: r.u32()?,
        budget: r.u64()?,
        state: read_shard_state(r)?,
    })
}

/// Blocking frame write (worker side, and coordinator sends — frames
/// are written whole while the peer is parked in its read loop).
pub fn write_frame(w: &mut impl Write, frame: &Frame) -> Result<(), WireError> {
    w.write_all(&encode_frame(frame))?;
    w.flush()?;
    Ok(())
}

/// Incremental frame assembler for the coordinator's non-blocking poll
/// loop: feed it whatever bytes the socket had, pop complete frames.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Appends raw received bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether the buffer holds no pending bytes (an EOF here is a
    /// clean close; an EOF with bytes pending tore a frame).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pops the next complete frame, or `None` if more bytes are
    /// needed.
    pub fn pop(&mut self) -> Result<Option<Frame>, WireError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]);
        if len > MAX_FRAME_LEN {
            return Err(WireError::Protocol("frame length exceeds cap"));
        }
        let total = 4 + len as usize + 4;
        if self.buf.len() < total {
            return Ok(None);
        }
        let (payload, trailer) = self.buf[4..total].split_at(len as usize);
        check_crc(payload, trailer)?;
        let frame = decode_payload(payload)?;
        self.buf.drain(..total);
        Ok(Some(frame))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teapot_rt::{CovDelta, ShardDelta};

    fn sample_frames() -> Vec<Frame> {
        vec![
            Frame::Hello {
                name: "worker-3".into(),
            },
            Frame::Lease(Lease {
                fingerprint: 0xFEED_F00D,
                start_epoch: 2,
                phase: 1,
                seed_first: false,
                config: CampaignConfig {
                    seed: 7,
                    shards: 2,
                    dictionary: vec![b"GET".to_vec()],
                    adaptive_budgets: true,
                    ..CampaignConfig::default()
                },
                binary: vec![1, 2, 3, 4],
                seeds: vec![vec![9, 9]],
                shards: vec![LeasedShard {
                    shard: 1,
                    budget: 500,
                    state: StateSnapshot::empty(),
                }],
            }),
            Frame::Decode(DecodeStats {
                blocks: 10,
                insts: 200,
                bytes: 900,
                undecoded_bytes: 1,
            }),
            Frame::Delta(ShardDelta {
                shard: 1,
                epoch: 2,
                phase: 0,
                corpus_append: vec![(vec![5], 2)],
                fresh_count: 1,
                corpus_replaced: None,
                heur_counts: vec![(0x400, 3)],
                cov_normal: CovDelta {
                    updates: vec![(8, 1)],
                },
                cov_spec: CovDelta::default(),
                gadgets_append: vec![],
                witnesses_append: vec![],
                iters: 100,
                total_cost: 5000,
                crashes: 0,
                state_epoch: 3,
            }),
            Frame::Barrier {
                epoch: 2,
                minimize: true,
                fresh: vec![vec![vec![1]], vec![]],
            },
            Frame::Proceed {
                epoch: 3,
                budgets: vec![400, 600],
            },
            Frame::Complete,
            Frame::Shutdown,
        ]
    }

    #[test]
    fn frames_round_trip_through_a_byte_stream() {
        let frames = sample_frames();
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f));
        }
        // The whole stream at once: every frame pops in order, then the
        // buffer is empty at a frame boundary.
        let mut fb = FrameBuffer::new();
        fb.push(&stream);
        for f in &frames {
            assert_eq!(fb.pop().unwrap().as_ref(), Some(f));
        }
        assert_eq!(fb.pop().unwrap(), None);
        assert!(fb.is_empty());

        // Same stream, dribbled a byte at a time.
        let mut fb = FrameBuffer::new();
        let mut popped = Vec::new();
        for b in &stream {
            fb.push(std::slice::from_ref(b));
            while let Some(f) = fb.pop().unwrap() {
                popped.push(f);
            }
        }
        assert_eq!(popped, frames);
    }

    #[test]
    fn bad_frames_are_rejected() {
        assert!(matches!(
            decode_payload(&[9, TAG_COMPLETE]),
            Err(WireError::Protocol("unsupported wire version"))
        ));
        assert!(matches!(
            decode_payload(&[WIRE_VERSION, 99]),
            Err(WireError::Protocol("unknown frame tag"))
        ));
        let mut fb = FrameBuffer::new();
        fb.push(&u32::MAX.to_le_bytes());
        assert!(matches!(
            fb.pop(),
            Err(WireError::Protocol("frame length exceeds cap"))
        ));
    }

    #[test]
    fn a_flipped_payload_byte_fails_the_crc_and_names_the_frame() {
        // One copy of every frame kind per flipped byte. The CRC rejects
        // a frame before its body is decoded, so the lease's shard state
        // may carry short coverage maps: the full-size ones (two 64 KiB
        // maps, as in the round-trip tests) would make this quadratic in
        // 131 k bytes without reaching any other code.
        let mut frames = sample_frames();
        for frame in &mut frames {
            if let Frame::Lease(lease) = frame {
                for shard in &mut lease.shards {
                    shard.state.cov_normal.truncate(16);
                    shard.state.cov_spec.truncate(16);
                }
            }
        }
        for frame in frames {
            let clean = encode_frame(&frame);
            // Flip every payload/trailer byte in turn; each one must be
            // caught (by the CRC, or — for trailer flips — by the CRC
            // comparison itself).
            for at in 4..clean.len() {
                let mut bytes = clean.clone();
                bytes[at] ^= 0x10;
                let mut fb = FrameBuffer::new();
                fb.push(&bytes);
                match fb.pop() {
                    Err(WireError::Checksum { len, .. }) => {
                        assert_eq!(len, clean.len() - 8);
                    }
                    other => panic!("byte {at}: expected checksum error, got {other:?}"),
                }
            }
        }
        // The frame kind survives into the error for a readable report.
        let mut bytes = encode_frame(&Frame::Complete);
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        let mut fb = FrameBuffer::new();
        fb.push(&bytes);
        let msg = fb.pop().unwrap_err().to_string();
        assert!(msg.contains("complete frame checksum"), "{msg}");
    }

    #[test]
    fn truncated_bodies_yield_typed_errors_naming_frame_and_offset() {
        // A barrier body cut short: re-seal a truncated payload with a
        // *valid* CRC so the failure exercises the body parser, which
        // must name the frame kind and the offset where bytes ran out.
        let full = encode_frame(&Frame::Barrier {
            epoch: 3,
            minimize: false,
            fresh: vec![vec![vec![1, 2, 3]], vec![vec![4]]],
        });
        let payload = &full[4..full.len() - 4];
        for keep in 2..payload.len() {
            let cut = &payload[..keep];
            let mut bytes = Vec::new();
            bytes.extend_from_slice(&(cut.len() as u32).to_le_bytes());
            bytes.extend_from_slice(cut);
            bytes.extend_from_slice(&crc32(cut).to_le_bytes());
            let mut fb = FrameBuffer::new();
            fb.push(&bytes);
            match fb.pop() {
                Err(WireError::Body { frame, error }) => {
                    assert_eq!(frame, "barrier");
                    let msg = error.to_string();
                    assert!(msg.contains("offset"), "keep {keep}: {msg}");
                }
                other => panic!("keep {keep}: expected body error, got {other:?}"),
            }
        }
    }
}
