//! Witness input minimization (delta debugging).
//!
//! Campaign inputs are mutation stacks over mutation stacks — the byte
//! string that *found* a gadget usually carries dozens of irrelevant
//! bytes. `ddmin` shrinks it to a minimal reproducer: every candidate is
//! validated by a full deterministic replay (same heuristic seed as the
//! witness), so the result is guaranteed to re-trigger the same
//! [`GadgetKey`](teapot_rt::GadgetKey). A classic ddmin chunk-deletion
//! pass is followed by a byte-normalization pass that zeroes every byte
//! that is not load-bearing, making reproducers canonical as well as
//! short.
//!
//! The whole procedure is a pure function of `(program, witness,
//! budget)`: candidate order is fixed, replays are deterministic, and
//! the step budget is a plain counter — byte-identical output on every
//! host, which the triage database's determinism guarantee builds on.
//!
//! Witnesses of one discovering run share their input and heuristic
//! counts, so [`minimize_group`] searches for all of them over one memo
//! from candidate bytes to the keys that fired: a candidate two members
//! try executes once. Each member's search is unchanged — the memo
//! returns exactly what a full replay would — so only the number of VM
//! executions falls.

use crate::replay::Replayer;
use std::collections::HashMap;
use teapot_rt::{GadgetKey, GadgetWitness};

/// Result of minimizing one witness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MinimizeOutcome {
    /// The minimized input; replays to the witness's gadget key.
    pub input: Vec<u8>,
    /// ddmin candidates tried (the "work" metric of the triage bench).
    /// Each costs at most one VM execution: candidates that another
    /// member of the same [`minimize_group`] already ran cost none.
    pub steps: u32,
    /// Whether the budget expired before the search was exhausted (the
    /// result is still valid, just possibly not 1-minimal).
    pub budget_exhausted: bool,
}

/// Default ddmin candidate budget per witness.
pub const DEFAULT_MAX_STEPS: u32 = 512;

/// ddmin-shrinks `w.input` to a minimal reproducer of `w.key`, validating
/// every candidate by deterministic replay. Returns `None` if the witness
/// itself does not replay (a stale or cross-binary witness) — callers can
/// rely on this as *the* validation replay and need not replay first.
/// `steps` counts ddmin candidates only; the initial validation replay is
/// excluded.
pub fn minimize(rp: &mut Replayer, w: &GadgetWitness, max_steps: u32) -> Option<MinimizeOutcome> {
    minimize_group(rp, &[w], max_steps).pop().flatten()
}

/// [`minimize`] for every member of `group`, in order, over one shared
/// candidate memo. The members must share their input and heuristic
/// counts (they come from one discovering run), and each outcome equals
/// `minimize(rp, member, max_steps)`.
///
/// A memo miss while searching for member `j` runs the candidate with
/// the stop set `keys[j..]`: the run either ends because every one of
/// those keys fired or goes to completion, so the recorded mask is
/// exact for member `j` and every later one.
///
/// # Panics
///
/// Panics if the members do not share input and heuristic counts, or
/// on more than 64 members.
pub fn minimize_group(
    rp: &mut Replayer,
    group: &[&GadgetWitness],
    max_steps: u32,
) -> Vec<Option<MinimizeOutcome>> {
    let Some(first) = group.first() else {
        return Vec::new();
    };
    assert!(
        group
            .iter()
            .all(|w| w.input == first.input && w.heur_counts == first.heur_counts),
        "a minimize group shares one input and heuristic state"
    );
    let keys: Vec<GadgetKey> = group.iter().map(|w| w.key).collect();
    // The default hasher: candidates are fuzzer-derived bytes, and a
    // snapshot can carry any witness input.
    let mut memo: HashMap<Vec<u8>, u64> = HashMap::new();
    (0..group.len())
        .map(|j| {
            ddmin(&first.input, max_steps, |input| {
                let mask = match memo.get(input) {
                    Some(&mask) => mask,
                    None => {
                        let mask = rp.fired(input, &first.heur_counts, &keys[j..]) << j;
                        memo.insert(input.to_vec(), mask);
                        mask
                    }
                };
                (mask >> j) & 1 != 0
            })
        })
        .collect()
}

/// The ddmin search over `input`, with `reproduces` deciding each
/// candidate; `None` if `input` itself does not reproduce.
fn ddmin(
    input: &[u8],
    max_steps: u32,
    mut reproduces: impl FnMut(&[u8]) -> bool,
) -> Option<MinimizeOutcome> {
    if !reproduces(input) {
        return None;
    }
    let mut steps = 0u32;
    let mut cur = input.to_vec();
    let mut budget_exhausted = false;

    // Phase 1 — ddmin chunk deletion: split into n chunks, try dropping
    // each; on success restart at coarse granularity, else refine.
    let mut n = 2usize;
    'outer: while cur.len() >= 2 {
        let chunk = cur.len().div_ceil(n);
        let mut reduced = false;
        let mut start = 0usize;
        while start < cur.len() {
            let end = (start + chunk).min(cur.len());
            let mut cand = Vec::with_capacity(cur.len() - (end - start));
            cand.extend_from_slice(&cur[..start]);
            cand.extend_from_slice(&cur[end..]);
            if steps >= max_steps {
                budget_exhausted = true;
                break 'outer;
            }
            steps += 1;
            if reproduces(&cand) {
                cur = cand;
                n = 2.max(n.saturating_sub(1));
                reduced = true;
                break;
            }
            start = end;
        }
        if !reduced {
            if chunk <= 1 {
                break;
            }
            n = (n * 2).min(cur.len());
        }
    }

    // Phase 2 — byte normalization: zero every byte that still
    // reproduces without its value, canonicalizing the reproducer.
    for i in 0..cur.len() {
        if cur[i] == 0 {
            continue;
        }
        if steps >= max_steps {
            budget_exhausted = true;
            break;
        }
        steps += 1;
        let mut cand = cur.clone();
        cand[i] = 0;
        if reproduces(&cand) {
            cur = cand;
        }
    }

    Some(MinimizeOutcome {
        input: cur,
        steps,
        budget_exhausted,
    })
}
