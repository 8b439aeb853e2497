//! Gadget witnesses: everything needed to *re-trigger* a reported
//! gadget, deterministically, outside the fuzzing campaign that found it.
//!
//! A raw [`GadgetReport`](crate::GadgetReport) names the sites of a leak
//! but carries no evidence: no input, no trace, no way to validate the
//! finding or hand an analyst a reproducer. A [`GadgetWitness`] closes
//! that gap. It is captured by the VM's witness recorder at the moment a
//! first-seen [`GadgetKey`] fires and contains:
//!
//! * the **triggering input** (the exact bytes served by `read_input`),
//! * the **pre-run heuristic counts** — the persistent per-branch
//!   speculation-heuristic state at the start of the discovering run.
//!   The VM is deterministic given `(program, input, heuristic state,
//!   options)`, so these counts are what make replay *exact*: seeding a
//!   fresh `SpecHeuristics` from them reproduces the discovering run
//!   bit-for-bit, including every nested-misprediction decision,
//! * a **bounded speculative trace** ([`TraceEvent`]s, original-binary
//!   coordinates): speculatively entered branches, tainted accesses seen
//!   by the DIFT shadow (address + width + tag bits), and rollbacks.
//!
//! `teapot-triage` consumes witnesses for deterministic replay, ddmin
//! input minimization and severity scoring; `teapot-campaign` persists
//! them through `.tcs` snapshots.

use crate::{GadgetKey, Tag};
use std::fmt;
use teapot_specmodel::SpecModel;

/// Hard cap on recorded trace events per run. Witnesses are evidence,
/// not full traces: the interesting prefix (how speculation reached the
/// gadget) fits comfortably; unbounded recording would let pathological
/// loops blow up snapshot sizes.
pub const MAX_TRACE_EVENTS: usize = 256;

/// Inclusive interval of *input-byte offsets* that sourced a tainted
/// value — the unit of taint provenance.
///
/// Each bound is stored as `offset + 1` in one byte (`0` = no origin),
/// saturating at offset 254: exact for inputs up to 254 bytes (far above
/// the campaign's `max_input_len`), while longer inputs collapse their
/// tail into the last encodable offset — an interval can widen under
/// saturation but never silently drop a contributing byte. The same
/// encoding is what the VM's origin shadow stores per memory byte, so a
/// span round-trips through shadows, registers and snapshots unchanged.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct OriginSpan {
    lo: u8,
    hi: u8,
}

impl OriginSpan {
    /// The empty span: no input byte contributed.
    pub const NONE: OriginSpan = OriginSpan { lo: 0, hi: 0 };

    /// Largest exactly-representable input offset.
    pub const MAX_OFFSET: u32 = 254;

    /// Span covering exactly one input-byte offset (saturating at
    /// [`OriginSpan::MAX_OFFSET`]).
    #[inline]
    pub fn from_offset(offset: usize) -> OriginSpan {
        let enc = (offset as u64).min(Self::MAX_OFFSET as u64) as u8 + 1;
        OriginSpan { lo: enc, hi: enc }
    }

    /// Interval join: the smallest span covering both operands.
    #[inline]
    pub fn join(self, other: OriginSpan) -> OriginSpan {
        if self.is_none() {
            return other;
        }
        if other.is_none() {
            return self;
        }
        OriginSpan {
            lo: self.lo.min(other.lo),
            hi: self.hi.max(other.hi),
        }
    }

    /// Whether the span is empty.
    #[inline]
    pub fn is_none(self) -> bool {
        self.lo == 0
    }

    /// The covered input-offset interval `(lo, hi)`, inclusive.
    #[inline]
    pub fn offsets(self) -> Option<(u32, u32)> {
        if self.is_none() {
            None
        } else {
            Some((self.lo as u32 - 1, self.hi as u32 - 1))
        }
    }

    /// Raw shadow/wire encoding of the two bounds.
    #[inline]
    pub fn raw(self) -> (u8, u8) {
        (self.lo, self.hi)
    }

    /// Rebuilds a span from its raw encoding. A half-empty pair (one
    /// bound zero) denotes no origin, like the all-zero pair.
    #[inline]
    pub fn from_raw(lo: u8, hi: u8) -> OriginSpan {
        if lo == 0 || hi == 0 {
            OriginSpan::NONE
        } else {
            OriginSpan {
                lo: lo.min(hi),
                hi: lo.max(hi),
            }
        }
    }
}

impl fmt::Display for OriginSpan {
    /// `"3"` for a single offset, `"0-1"` for an interval, `"-"` when
    /// empty.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.offsets() {
            None => write!(f, "-"),
            Some((lo, hi)) if lo == hi => write!(f, "{lo}"),
            Some((lo, hi)) => write!(f, "{lo}-{hi}"),
        }
    }
}

impl std::str::FromStr for OriginSpan {
    type Err = std::num::ParseIntError;

    /// Reads the [`Display`](fmt::Display) form back: `"-"`, `"3"` or
    /// `"0-1"`.
    fn from_str(s: &str) -> Result<OriginSpan, Self::Err> {
        let span = |t: &str| t.parse().map(OriginSpan::from_offset);
        if s == "-" {
            return Ok(OriginSpan::NONE);
        }
        match s.split_once('-') {
            Some((lo, hi)) => Ok(span(lo)?.join(span(hi)?)),
            None => span(s),
        }
    }
}

/// One entry of a witness's speculative trace. All PCs are stated in
/// original-binary coordinates (like gadget reports).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A checkpoint was pushed: simulation entered (or nested) at this
    /// site, now `depth` levels deep.
    SpecBranch {
        /// Mispredicting site: branch address (PHT), `ret` address
        /// (RSB) or bypassed-load address (STL).
        pc: u64,
        /// Nesting depth after entry (1 = top level).
        depth: u32,
        /// Which speculation model mispredicted here.
        model: SpecModel,
    },
    /// A speculative memory access involving DIFT-tainted data: either
    /// the pointer or the loaded value carried a non-clean tag.
    TaintedAccess {
        /// Address of the accessing instruction.
        pc: u64,
        /// Effective address accessed.
        addr: u64,
        /// Access width in bytes.
        width: u8,
        /// Union of pointer and value tag bits ([`Tag`]).
        tag: u8,
        /// Input-byte offsets the pointer/value derive from. Resolved
        /// only on provenance replays (the origin shadow is off on the
        /// campaign hot path), so campaign-captured traces carry
        /// [`OriginSpan::NONE`] here.
        origin: OriginSpan,
    },
    /// The secret-dependent access that *completed* a gadget: recorded
    /// at the moment a first-seen gadget key is reported. Provenance
    /// replays only — campaign-captured traces never contain this
    /// variant, so pre-existing witnesses are unchanged.
    LeakSite {
        /// Address of the transmitting access (original coordinates —
        /// equals the gadget key's `pc`).
        pc: u64,
        /// Speculation nesting depth at the report.
        depth: u32,
        /// Model of the window the gadget is attributed to.
        model: SpecModel,
        /// Tag bits of the secret that reached the transmitter.
        tag: u8,
        /// Input-byte offsets the leaking secret/pointer derives from.
        origin: OriginSpan,
    },
    /// The innermost simulation level rolled back.
    Rollback {
        /// Site address whose checkpoint was restored.
        pc: u64,
        /// Nesting depth before the rollback (1 = top level).
        depth: u32,
        /// Speculation model of the restored checkpoint.
        model: SpecModel,
    },
}

impl TraceEvent {
    /// The tag bits of a tainted access or leak site, as a [`Tag`]
    /// (clean otherwise).
    pub fn tag(&self) -> Tag {
        match self {
            TraceEvent::TaintedAccess { tag, .. } | TraceEvent::LeakSite { tag, .. } => {
                Tag::from_bits(*tag)
            }
            _ => Tag::CLEAN,
        }
    }

    /// The resolved input-byte origin of a tainted access or leak site
    /// ([`OriginSpan::NONE`] otherwise, and on campaign-captured
    /// traces where the origin shadow was off).
    pub fn origin(&self) -> OriginSpan {
        match self {
            TraceEvent::TaintedAccess { origin, .. } | TraceEvent::LeakSite { origin, .. } => {
                *origin
            }
            _ => OriginSpan::NONE,
        }
    }
}

/// A replayable witness for one deduplicated gadget.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GadgetWitness {
    /// The gadget this witness triggers.
    pub key: GadgetKey,
    /// Input bytes of the discovering run.
    pub input: Vec<u8>,
    /// Persistent per-branch heuristic counts at the *start* of the
    /// discovering run, sorted by branch address (the exact format of
    /// `SpecHeuristics::export_counts`). Replaying with this state makes
    /// the run bit-identical to the discovery.
    pub heur_counts: Vec<(u64, u32)>,
    /// Bounded speculative trace of the discovering run (truncated at
    /// [`MAX_TRACE_EVENTS`]).
    pub trace: Vec<TraceEvent>,
}

impl GadgetWitness {
    /// Widest tainted access recorded in the trace, in bytes (0 when the
    /// trace carries none — e.g. SpecFuzz-policy reports without DIFT).
    pub fn max_tainted_width(&self) -> u8 {
        self.trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::TaintedAccess { width, .. } => Some(*width),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Deepest speculation nesting recorded in the trace.
    pub fn max_depth(&self) -> u32 {
        self.trace
            .iter()
            .filter_map(|e| match e {
                TraceEvent::SpecBranch { depth, .. } => Some(*depth),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Channel, Controllability};

    fn witness() -> GadgetWitness {
        GadgetWitness {
            key: GadgetKey {
                pc: 0x400100,
                channel: Channel::Cache,
                controllability: Controllability::User,
                model: SpecModel::Pht,
            },
            input: vec![1, 2, 3],
            heur_counts: vec![(0x400080, 4)],
            trace: vec![
                TraceEvent::SpecBranch {
                    pc: 0x400080,
                    depth: 1,
                    model: SpecModel::Pht,
                },
                TraceEvent::TaintedAccess {
                    pc: 0x400100,
                    addr: 0x80_0000,
                    width: 4,
                    tag: Tag::SECRET_USER.bits(),
                    origin: OriginSpan::NONE,
                },
                TraceEvent::SpecBranch {
                    pc: 0x400090,
                    depth: 2,
                    model: SpecModel::Rsb,
                },
                TraceEvent::TaintedAccess {
                    pc: 0x400104,
                    addr: 0x80_0010,
                    width: 1,
                    tag: Tag::USER.bits(),
                    origin: OriginSpan::from_offset(3),
                },
                TraceEvent::Rollback {
                    pc: 0x400090,
                    depth: 2,
                    model: SpecModel::Rsb,
                },
            ],
        }
    }

    #[test]
    fn derived_metrics() {
        let w = witness();
        assert_eq!(w.max_tainted_width(), 4);
        assert_eq!(w.max_depth(), 2);
        let empty = GadgetWitness {
            trace: Vec::new(),
            ..w
        };
        assert_eq!(empty.max_tainted_width(), 0);
        assert_eq!(empty.max_depth(), 0);
    }

    #[test]
    fn tag_accessor() {
        let w = witness();
        assert_eq!(w.trace[1].tag(), Tag::SECRET_USER);
        assert_eq!(w.trace[0].tag(), Tag::CLEAN);
    }

    #[test]
    fn origin_accessor() {
        let w = witness();
        assert_eq!(w.trace[1].origin(), OriginSpan::NONE);
        assert_eq!(w.trace[3].origin(), OriginSpan::from_offset(3));
        assert_eq!(w.trace[0].origin(), OriginSpan::NONE);
        let leak = TraceEvent::LeakSite {
            pc: 0x400100,
            depth: 1,
            model: SpecModel::Pht,
            tag: Tag::SECRET_USER.bits(),
            origin: OriginSpan::from_offset(0).join(OriginSpan::from_offset(1)),
        };
        assert_eq!(leak.origin().offsets(), Some((0, 1)));
        assert_eq!(leak.tag(), Tag::SECRET_USER);
    }

    #[test]
    fn origin_span_join_and_encoding() {
        let none = OriginSpan::NONE;
        assert!(none.is_none());
        assert_eq!(none.offsets(), None);
        assert_eq!(none.join(none), none);

        let a = OriginSpan::from_offset(0);
        let b = OriginSpan::from_offset(5);
        assert_eq!(a.offsets(), Some((0, 0)));
        assert_eq!(a.join(none), a);
        assert_eq!(none.join(b), b);
        let ab = a.join(b);
        assert_eq!(ab.offsets(), Some((0, 5)));
        assert_eq!(ab.join(a), ab);

        // Raw round trip matches the shadow encoding (offset + 1).
        let (lo, hi) = ab.raw();
        assert_eq!((lo, hi), (1, 6));
        assert_eq!(OriginSpan::from_raw(lo, hi), ab);
        assert_eq!(OriginSpan::from_raw(0, 0), OriginSpan::NONE);
        assert_eq!(OriginSpan::from_raw(0, 9), OriginSpan::NONE);
        assert_eq!(OriginSpan::from_raw(6, 1), ab); // normalized

        // Saturation: offsets past MAX_OFFSET collapse, never drop.
        let far = OriginSpan::from_offset(100_000);
        assert_eq!(
            far.offsets(),
            Some((OriginSpan::MAX_OFFSET, OriginSpan::MAX_OFFSET))
        );

        assert_eq!(none.to_string(), "-");
        assert_eq!(a.to_string(), "0");
        assert_eq!(ab.to_string(), "0-5");
        for span in [none, a, ab, far] {
            assert_eq!(span.to_string().parse(), Ok(span));
        }
        assert!("".parse::<OriginSpan>().is_err());
        assert!("1-".parse::<OriginSpan>().is_err());
        assert!("x".parse::<OriginSpan>().is_err());
    }
}
