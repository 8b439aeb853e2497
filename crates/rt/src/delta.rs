//! Epoch deltas: the wire-sized unit of distributed campaign progress.
//!
//! A full [`StateSnapshot`] of a long campaign carries the entire corpus
//! and both 64 KiB coverage maps; shipping one per shard per epoch would
//! dominate fleet traffic. A [`ShardDelta`] instead carries only what an
//! epoch *changed*: corpus entries appended since the last delta, the
//! coverage counters that moved (as sparse absolute values — coverage
//! counters are monotone within a campaign, so applying a delta is a
//! plain overwrite), gadgets and witnesses first seen this epoch, and the
//! shard's absolute counters. Applying every delta of a shard, in order,
//! to the shard's last full snapshot reproduces the shard's next full
//! snapshot byte-for-byte — the invariant the `teapot-fabric`
//! coordinator's merge (and its proptest) is built on.
//!
//! Each epoch produces two deltas per shard, one per barrier phase:
//! phase 0 after the fuzzing batch (its trailing [`fresh_count`] entries
//! are the inputs the shard publishes to its siblings), phase 1 after
//! the cross-shard import pass (and optional corpus minimization, which
//! replaces the corpus wholesale via [`corpus_replaced`]).
//!
//! [`StateSnapshot`]: ../teapot_fuzz/struct.StateSnapshot.html
//! [`fresh_count`]: ShardDelta::fresh_count
//! [`corpus_replaced`]: ShardDelta::corpus_replaced

use crate::coverage::{CovMap, COV_MAP_SIZE};
use crate::{GadgetReport, GadgetWitness};

/// Sparse difference between two coverage maps: the counters that
/// changed, with their *new absolute* values. Coverage counters only
/// ever grow within a campaign, so applying the same diff twice is
/// idempotent and applying diffs in epoch order reconstructs the map.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CovDelta {
    /// `(guard index, new counter value)`, in ascending guard order.
    pub updates: Vec<(u32, u8)>,
}

impl CovDelta {
    /// Computes the counters where `now` differs from `prev`.
    pub fn diff(prev: &CovMap, now: &CovMap) -> CovDelta {
        let (p, n) = (prev.raw(), now.raw());
        let mut updates = Vec::new();
        // The maps are sparse and mostly equal: compare eight bytes at a
        // time and only scan words that moved.
        for (w, (pc, nc)) in p.chunks_exact(8).zip(n.chunks_exact(8)).enumerate() {
            if pc == nc {
                continue;
            }
            for i in 0..8 {
                if pc[i] != nc[i] {
                    updates.push(((w * 8 + i) as u32, nc[i]));
                }
            }
        }
        CovDelta { updates }
    }

    /// Overwrites the changed counters in `map`.
    pub fn apply_to(&self, map: &mut CovMap) {
        for &(guard, value) in &self.updates {
            map.set(guard, value);
        }
    }

    /// Overwrites the changed counters in a raw counter array (the
    /// [`StateSnapshot`] representation). Out-of-range guards are
    /// ignored; the array must be `COV_MAP_SIZE` long like every
    /// validated snapshot map.
    ///
    /// [`StateSnapshot`]: ../teapot_fuzz/struct.StateSnapshot.html
    pub fn apply_to_raw(&self, raw: &mut [u8]) {
        for &(guard, value) in &self.updates {
            if let Some(c) = raw.get_mut(guard as usize & (COV_MAP_SIZE - 1)) {
                *c = value;
            }
        }
    }

    /// Number of changed counters.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// Whether nothing changed.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// What one shard changed during one barrier phase of one epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardDelta {
    /// Shard index the delta belongs to.
    pub shard: u32,
    /// Epoch the delta was produced in.
    pub epoch: u32,
    /// Barrier phase: `0` after the fuzzing batch, `1` after the import
    /// pass (and optional corpus minimization).
    pub phase: u8,
    /// Corpus entries appended since the previous delta, as
    /// `(input, score)` in discovery order. Ignored when
    /// [`corpus_replaced`](ShardDelta::corpus_replaced) is set.
    pub corpus_append: Vec<(Vec<u8>, u64)>,
    /// How many trailing entries of `corpus_append` were added *after*
    /// the epoch began — the shard's fresh inputs, published to sibling
    /// shards at the barrier. (Epoch-0 seed executions land in
    /// `corpus_append` but precede `begin_epoch`, so they are not
    /// fresh — exactly the single-host `fresh_inputs()` semantics.)
    pub fresh_count: u32,
    /// Full corpus replacement, set when minimization rewrote the corpus
    /// in place (an append can no longer describe the change).
    pub corpus_replaced: Option<Vec<(Vec<u8>, u64)>>,
    /// Absolute per-branch heuristic counts, sorted by site key.
    pub heur_counts: Vec<(u64, u32)>,
    /// Normal-coverage counters that changed, absolute values.
    pub cov_normal: CovDelta,
    /// Speculative-coverage counters that changed, absolute values.
    pub cov_spec: CovDelta,
    /// Gadgets first seen since the previous delta, in discovery order.
    pub gadgets_append: Vec<GadgetReport>,
    /// Witnesses captured since the previous delta, in discovery order.
    pub witnesses_append: Vec<GadgetWitness>,
    /// Absolute executions performed so far.
    pub iters: u64,
    /// Absolute cost units spent so far.
    pub total_cost: u64,
    /// Absolute crashing runs so far.
    pub crashes: u64,
    /// The shard's last begun epoch (the `StateSnapshot::epoch` field).
    pub state_epoch: u32,
}

impl ShardDelta {
    /// Approximate wire size of the delta's variable payload in bytes —
    /// corpus inputs, coverage updates, witness inputs/traces — the
    /// number the fabric's `delta` telemetry events report (the
    /// benchmark's `campaign.delta_bytes_per_epoch` counts encoded bytes).
    pub fn payload_bytes(&self) -> u64 {
        let corpus: usize = self
            .corpus_append
            .iter()
            .map(|(input, _)| input.len() + 12)
            .sum();
        let replaced: usize = self
            .corpus_replaced
            .as_ref()
            .map(|c| c.iter().map(|(input, _)| input.len() + 12).sum())
            .unwrap_or(0);
        let wit: usize = self
            .witnesses_append
            .iter()
            .map(|w| w.input.len() + w.heur_counts.len() * 12 + w.trace.len() * 24)
            .sum();
        (corpus
            + replaced
            + self.heur_counts.len() * 12
            + (self.cov_normal.len() + self.cov_spec.len()) * 5
            + self.gadgets_append.len() * 40
            + wit
            + 64) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cov_delta_round_trips_map_changes() {
        let mut prev = CovMap::new();
        prev.hit(3);
        let mut now = prev.clone();
        now.hit(3);
        now.hit(9000);
        now.hit(65535);
        let d = CovDelta::diff(&prev, &now);
        assert_eq!(d.len(), 3);
        assert!(d.updates.windows(2).all(|w| w[0].0 < w[1].0));
        let mut rebuilt = prev.clone();
        d.apply_to(&mut rebuilt);
        assert_eq!(rebuilt.raw(), now.raw());
        // Idempotent: counters carry absolute values, not increments.
        d.apply_to(&mut rebuilt);
        assert_eq!(rebuilt.raw(), now.raw());
        // Raw-array application matches the map path.
        let mut raw = prev.raw().to_vec();
        d.apply_to_raw(&mut raw);
        assert_eq!(&raw[..], now.raw());
    }

    #[test]
    fn cov_delta_of_equal_maps_is_empty() {
        let mut m = CovMap::new();
        m.hit(77);
        assert!(CovDelta::diff(&m, &m.clone()).is_empty());
    }
}
