//! Block-oriented linear decode of a code image.
//!
//! The execution pipeline decodes each `.text` section **once per
//! binary** (see `teapot-vm`'s `Program`), not once per reached PC per
//! run. This module provides the decode walk that powers it: a linear
//! sweep from the section base that yields every instruction with its
//! address and length, split into basic blocks at branch targets and
//! control-transfer boundaries.
//!
//! The walk is *best effort by design*: TEA-64 text can legally embed
//! non-code bytes (and wild speculative control flow can land anywhere),
//! so an undecodable byte is skipped and the sweep resynchronizes at the
//! next offset. Consumers that need an answer for **every** address
//! (the VM's predecoded `Program`) keep one table entry per walked
//! instruction and decode any other offset live when execution reaches
//! it; the walk's job is the canonical instruction stream and its block
//! structure.

use crate::decode::decode_at;
use crate::insn::Inst;

/// One instruction produced by the linear sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalkedInst {
    /// Virtual address of the first byte.
    pub va: u64,
    /// Decoded instruction (branch targets already absolute).
    pub inst: Inst<u64>,
    /// Encoded length in bytes.
    pub len: u8,
}

/// A basic block: a maximal run of consecutively decoded instructions
/// with a single entry (the leader) and a single exit (the last
/// instruction, or a fallthrough into the next leader).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BasicBlock {
    /// Address of the leader instruction.
    pub start: u64,
    /// One past the last byte of the last instruction.
    pub end: u64,
    /// Index range into [`TextWalk::insts`].
    pub insts: std::ops::Range<usize>,
}

/// Result of [`walk_blocks`].
#[derive(Debug, Clone, Default)]
pub struct TextWalk {
    /// Every instruction the sweep decoded, in address order.
    pub insts: Vec<WalkedInst>,
    /// Basic blocks partitioning `insts`, in address order.
    pub blocks: Vec<BasicBlock>,
    /// Bytes the sweep skipped because they did not decode.
    pub undecoded_bytes: usize,
}

/// Whether `inst` ends a basic block (control leaves or may leave the
/// fallthrough path after it).
pub fn ends_block(inst: &Inst<u64>) -> bool {
    matches!(
        inst,
        Inst::Jmp { .. }
            | Inst::Jcc { .. }
            | Inst::Call { .. }
            | Inst::CallInd { .. }
            | Inst::JmpInd { .. }
            | Inst::Ret
            | Inst::Halt
            | Inst::Syscall { .. }
            | Inst::SimStart { .. }
    )
}

/// Direct control-transfer target of `inst`, if it has one.
pub fn direct_target(inst: &Inst<u64>) -> Option<u64> {
    match inst {
        Inst::Jmp { target } | Inst::Jcc { target, .. } | Inst::Call { target } => Some(*target),
        Inst::SimStart { tramp } => Some(*tramp),
        _ => None,
    }
}

/// Linearly decodes `bytes` (loaded at `base`) into instructions and
/// basic blocks.
///
/// Undecodable bytes are skipped one at a time (counted in
/// [`TextWalk::undecoded_bytes`]) and the instruction after a skipped
/// range starts a new block.
pub fn walk_blocks(bytes: &[u8], base: u64) -> TextWalk {
    let mut walk = TextWalk::default();
    let mut leaders: Vec<u64> = vec![base];
    let mut pos = 0usize;
    let mut resync = false;
    while pos < bytes.len() {
        let va = base + pos as u64;
        match decode_at(&bytes[pos..], va) {
            Ok((inst, len)) => {
                if resync {
                    leaders.push(va);
                    resync = false;
                }
                if let Some(t) = direct_target(&inst) {
                    if t >= base && t < base + bytes.len() as u64 {
                        leaders.push(t);
                    }
                }
                if ends_block(&inst) {
                    leaders.push(va + len as u64);
                }
                walk.insts.push(WalkedInst {
                    va,
                    inst,
                    len: len as u8,
                });
                pos += len;
            }
            Err(_) => {
                walk.undecoded_bytes += 1;
                pos += 1;
                resync = true;
            }
        }
    }

    leaders.sort_unstable();
    leaders.dedup();
    let mut l = 0usize;
    let mut block_start: Option<usize> = None;
    for (i, wi) in walk.insts.iter().enumerate() {
        while l < leaders.len() && leaders[l] < wi.va {
            l += 1;
        }
        let is_leader = l < leaders.len() && leaders[l] == wi.va;
        // A leader address that falls mid-instruction (possible for wild
        // targets) simply does not split the sweep's stream.
        if is_leader {
            if let Some(s) = block_start.take() {
                // End at the last instruction's end, not the leader's
                // address: skipped (undecodable) bytes between blocks
                // belong to neither.
                let prev = &walk.insts[i - 1];
                walk.blocks.push(BasicBlock {
                    start: walk.insts[s].va,
                    end: prev.va + prev.len as u64,
                    insts: s..i,
                });
            }
            block_start = Some(i);
        } else if block_start.is_none() {
            // First instruction after a resync without a recorded leader.
            block_start = Some(i);
        }
        // Non-contiguous step (skipped bytes) also closes the block; the
        // resync flag above already registered the next leader.
    }
    if let Some(s) = block_start {
        let last = walk.insts.last().unwrap();
        walk.blocks.push(BasicBlock {
            start: walk.insts[s].va,
            end: last.va + last.len as u64,
            insts: s..walk.insts.len(),
        });
    }
    walk
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::encode_at;
    use crate::insn::{AluOp, Cc, Operand};
    use crate::Reg;

    fn assemble(insts: &[Inst<u64>], base: u64) -> Vec<u8> {
        let mut out = Vec::new();
        for i in insts {
            let enc = encode_at(i, base + out.len() as u64);
            out.extend_from_slice(&enc.bytes);
        }
        out
    }

    #[test]
    fn straight_line_is_one_block() {
        let bytes = assemble(
            &[
                Inst::MovRI {
                    dst: Reg::R0,
                    imm: 1,
                },
                Inst::Alu {
                    op: AluOp::Add,
                    dst: Reg::R0,
                    src: Operand::Imm(2),
                },
                Inst::Halt,
            ],
            0x400,
        );
        let w = walk_blocks(&bytes, 0x400);
        assert_eq!(w.insts.len(), 3);
        assert_eq!(w.blocks.len(), 1);
        assert_eq!(w.blocks[0].start, 0x400);
        assert_eq!(w.blocks[0].insts, 0..3);
        assert_eq!(w.undecoded_bytes, 0);
    }

    #[test]
    fn branches_split_blocks_at_source_and_target() {
        // 0x400: jcc +skip ; mov ; halt — the branch target and the
        // fallthrough both become leaders.
        let mov = Inst::MovRI {
            dst: Reg::R1,
            imm: 7,
        };
        let mov_len = encode_at(&mov, 0).bytes.len() as u64;
        let jcc_len = encode_at(
            &Inst::Jcc {
                cc: Cc::E,
                target: 0,
            },
            0,
        )
        .bytes
        .len() as u64;
        let target = 0x400 + jcc_len + mov_len;
        let bytes = assemble(&[Inst::Jcc { cc: Cc::E, target }, mov, Inst::Halt], 0x400);
        let w = walk_blocks(&bytes, 0x400);
        assert_eq!(w.blocks.len(), 3);
        assert_eq!(w.blocks[0].start, 0x400);
        assert_eq!(w.blocks[1].start, 0x400 + jcc_len);
        assert_eq!(w.blocks[2].start, target);
        // Blocks tile the instruction stream.
        let covered: usize = w.blocks.iter().map(|b| b.insts.len()).sum();
        assert_eq!(covered, w.insts.len());
    }

    #[test]
    fn undecodable_bytes_resync() {
        let mut bytes = assemble(&[Inst::Nop], 0);
        bytes.push(0xff); // unassigned opcode
        bytes.extend(assemble(&[Inst::Halt], 2));
        let w = walk_blocks(&bytes, 0);
        assert_eq!(w.undecoded_bytes, 1);
        assert_eq!(w.insts.len(), 2);
        assert_eq!(w.insts[1].va, 2);
        assert_eq!(w.blocks.len(), 2, "resync starts a fresh block");
        // The skipped junk byte belongs to neither block: every block's
        // end is one past its own last instruction.
        assert_eq!(w.blocks[0].start, 0);
        assert_eq!(w.blocks[0].end, 1);
        assert_eq!(w.blocks[1].start, 2);
        assert_eq!(w.blocks[1].end, 3);
    }

    #[test]
    fn walk_addresses_match_decode_at() {
        // Every walked instruction must be exactly what decode_at yields
        // at its address — the Program predecode relies on this.
        let bytes = assemble(
            &[
                Inst::Push { src: Reg::R2 },
                Inst::Call { target: 0x999 },
                Inst::Pop { dst: Reg::R2 },
                Inst::Ret,
            ],
            0x100,
        );
        let w = walk_blocks(&bytes, 0x100);
        for wi in &w.insts {
            let off = (wi.va - 0x100) as usize;
            let (inst, len) = decode_at(&bytes[off..], wi.va).unwrap();
            assert_eq!(inst, wi.inst);
            assert_eq!(len, wi.len as usize);
        }
    }
}
