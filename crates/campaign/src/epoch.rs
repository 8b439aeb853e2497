//! The epoch engine: the rules of a campaign epoch, written once and
//! driven by both executors — [`Campaign::run_epoch_shared`] over live
//! shard states on threads, and the `teapot-fabric` coordinator and
//! workers over boundary snapshots and deltas.
//!
//! [`EpochClock::plan`] numbers an epoch, decides whether corpora are
//! seeded first, and hands out the shard budgets. Each shard then runs
//! [`fuzz_shard`] and, at the barrier, [`barrier_shard`]. Every input
//! to these steps is merged barrier state, never an execution detail,
//! so "fleet equals single-host" holds by construction.
//!
//! [`Campaign::run_epoch_shared`]: crate::Campaign::run_epoch_shared

use crate::snapshot::{fingerprint, CampaignSnapshot, SnapshotError};
use crate::{CampaignConfig, CampaignError};
use std::sync::Arc;
use teapot_fuzz::{CampaignState, StateSnapshot};
use teapot_obj::Binary;
use teapot_rt::FxHashSet;
use teapot_vm::{DecodeStats, Program};

/// The campaign-level state that carries from one epoch to the next:
/// epochs completed, whether shard corpora are seeded, and the per-shard
/// coverage-feature counts [`adaptive_budgets`] diffs against.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EpochClock {
    epochs_done: u32,
    seeded: bool,
    /// Feature counts observed at the start of the last planned epoch
    /// (empty before the first).
    prev_features: Vec<u64>,
}

/// What [`EpochClock::plan`] decides for one epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochPlan {
    /// The epoch number (0-based).
    pub epoch: u32,
    /// Seed every shard's corpus before fuzzing (the campaign's first
    /// epoch).
    pub seed_first: bool,
    /// Iteration budget per shard, in shard-index order.
    pub budgets: Vec<u64>,
}

impl EpochClock {
    /// The clock of a snapshot, after checking that the snapshot can be
    /// resumed against `bin`: the fingerprints match, its configuration
    /// is valid, and it holds one state per configured shard.
    pub fn resume(snap: &CampaignSnapshot, bin: &Binary) -> Result<EpochClock, CampaignError> {
        let actual = fingerprint(bin);
        if snap.bin_fingerprint != actual {
            return Err(SnapshotError::BinaryMismatch {
                expected: snap.bin_fingerprint,
                actual,
            }
            .into());
        }
        snap.config.validate()?;
        if snap.shard_states.len() != snap.config.shards as usize {
            return Err(SnapshotError::Corrupt("shard count mismatch").into());
        }
        // A snapshot taken before the first epoch has empty corpora and
        // must still seed on resume, or it would silently fall back to
        // the default input and diverge from an uninterrupted run.
        let seeded = snap.epochs_done > 0 || snap.shard_states.iter().any(|s| !s.corpus.is_empty());
        Ok(EpochClock {
            epochs_done: snap.epochs_done,
            seeded,
            prev_features: snap.prev_features.clone(),
        })
    }

    /// Epochs completed (or, after [`plan`](Self::plan), being run).
    pub fn epochs_done(&self) -> u32 {
        self.epochs_done
    }

    /// Plans the next epoch from every shard's current coverage-feature
    /// count (shard-index order) and advances the clock past it. The
    /// clock then describes the campaign as of that epoch's barrier, so
    /// the caller finishes the epoch before snapshotting.
    pub fn plan(&mut self, cfg: &CampaignConfig, features: Vec<u64>) -> EpochPlan {
        let budgets = if cfg.adaptive_budgets {
            adaptive_budgets(cfg.iters_per_epoch, &self.prev_features, &features)
        } else {
            vec![cfg.iters_per_epoch; features.len()]
        };
        self.prev_features = features;
        let plan = EpochPlan {
            epoch: self.epochs_done,
            seed_first: !self.seeded,
            budgets,
        };
        self.seeded = true;
        self.epochs_done += 1;
        plan
    }

    /// The campaign snapshot of `shard_states` at this clock.
    pub fn snapshot(
        &self,
        cfg: &CampaignConfig,
        bin_fingerprint: u64,
        decode_stats: DecodeStats,
        shard_states: Vec<StateSnapshot>,
    ) -> CampaignSnapshot {
        CampaignSnapshot {
            config: cfg.clone(),
            bin_fingerprint,
            epochs_done: self.epochs_done,
            decode_stats,
            shard_states,
            prev_features: self.prev_features.clone(),
        }
    }
}

/// Adaptive shard budgets: shards whose coverage-feature count did not
/// grow last epoch ("plateaued") give up half of the base budget; the
/// pooled iterations are split evenly over the still-advancing shards
/// (remainder to the lowest-indexed ones). The total budget is conserved
/// and the result is a pure function of the two feature vectors, so
/// every host computes the same split. All-plateaued (or all-advancing)
/// epochs fall back to uniform budgets.
pub fn adaptive_budgets(base: u64, prev: &[u64], now: &[u64]) -> Vec<u64> {
    let n = now.len();
    if prev.len() != n || n == 0 {
        return vec![base; n];
    }
    let give = base / 2;
    let plateaued: Vec<bool> = (0..n).map(|i| now[i] <= prev[i]).collect();
    let stalled = plateaued.iter().filter(|&&p| p).count();
    let active = n - stalled;
    if stalled == 0 || active == 0 || give == 0 {
        return vec![base; n];
    }
    let pool = give * stalled as u64;
    let share = pool / active as u64;
    let mut rem = pool % active as u64;
    (0..n)
        .map(|i| {
            if plateaued[i] {
                base - give
            } else {
                let extra = share
                    + if rem > 0 {
                        rem -= 1;
                        1
                    } else {
                        0
                    };
                base + extra
            }
        })
        .collect()
}

/// A live shard's coverage-feature count, the input of
/// [`EpochClock::plan`].
pub fn features(st: &CampaignState) -> u64 {
    (st.cov_normal().count_nonzero() + st.cov_spec().count_nonzero()) as u64
}

/// [`features`] read off a boundary snapshot instead of a live state.
pub fn boundary_features(s: &StateSnapshot) -> u64 {
    let nz = |m: &[u8]| m.iter().filter(|&&b| b != 0).count() as u64;
    nz(&s.cov_normal) + nz(&s.cov_spec)
}

/// Phase 1 of an epoch on one shard: seed the corpus if this is the
/// campaign's first epoch, re-seed the RNG for `epoch`, and fuzz
/// `budget` inputs.
pub fn fuzz_shard(
    st: &mut CampaignState,
    prog: &Arc<Program>,
    seeds: &[Vec<u8>],
    epoch: u32,
    seed_first: bool,
    budget: u64,
) {
    if seed_first {
        st.seed_corpus_shared(prog, seeds);
    }
    st.begin_epoch(epoch);
    st.run_iters_shared(prog, budget);
}

/// Phase 2 of an epoch on shard `shard`: import the other shards' fresh
/// inputs (`fresh` is indexed by shard), donors in index order, then
/// minimize the corpus if asked.
///
/// Imports consume no RNG, so the outcome depends only on `fresh`.
/// Byte-identical clones — inputs the shard already holds, or repeats
/// among the donated sets — are dropped instead of re-executed: a clone
/// can never add a corpus entry. (Dropping one also skips its heuristic
/// warm-up; that is deterministic and loses no corpus or coverage the
/// original already contributed.)
pub fn barrier_shard(
    st: &mut CampaignState,
    prog: &Arc<Program>,
    shard: usize,
    fresh: &[Vec<Vec<u8>>],
    minimize: bool,
) {
    let mut seen: FxHashSet<&[u8]> = FxHashSet::default();
    for (i, inputs) in fresh.iter().enumerate() {
        if i == shard {
            continue;
        }
        for input in inputs {
            if st.contains_input(input) || !seen.insert(input.as_slice()) {
                continue;
            }
            st.import_input_shared(prog, input);
        }
    }
    if minimize {
        st.minimize_corpus(prog);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_budgets_conserve_and_rebalance() {
        // No plateau: uniform.
        assert_eq!(adaptive_budgets(100, &[1, 1], &[2, 2]), vec![100, 100]);
        // All plateaued: uniform (nobody to give the pool to).
        assert_eq!(adaptive_budgets(100, &[2, 2], &[2, 2]), vec![100, 100]);
        // One of three plateaued: it gives half, split over the others.
        let b = adaptive_budgets(100, &[5, 5, 5], &[5, 9, 9]);
        assert_eq!(b, vec![50, 125, 125]);
        assert_eq!(b.iter().sum::<u64>(), 300);
        let b = adaptive_budgets(101, &[5, 5, 5], &[5, 9, 9]);
        assert_eq!(b, vec![51, 126, 126]);
        assert_eq!(b.iter().sum::<u64>(), 303);
        // Uneven pool: the remainder lands on the lowest-indexed active.
        let b = adaptive_budgets(10, &[1, 1, 1, 1], &[1, 5, 5, 5]);
        assert_eq!(b.iter().sum::<u64>(), 40);
        assert_eq!(b, vec![5, 12, 12, 11]);
        // Missing history: uniform.
        assert_eq!(adaptive_budgets(100, &[], &[1, 2]), vec![100, 100]);
    }

    #[test]
    fn plan_seeds_once_and_adapts_from_the_second_epoch() {
        let cfg = CampaignConfig {
            shards: 3,
            iters_per_epoch: 100,
            adaptive_budgets: true,
            ..CampaignConfig::default()
        };
        let mut clock = EpochClock::default();
        let p0 = clock.plan(&cfg, vec![5, 5, 5]);
        assert_eq!((p0.epoch, p0.seed_first), (0, true));
        assert_eq!(p0.budgets, vec![100; 3]);
        // Shard 0 plateaued: it gives half its budget to the others.
        let p1 = clock.plan(&cfg, vec![5, 9, 9]);
        assert_eq!((p1.epoch, p1.seed_first), (1, false));
        assert_eq!(p1.budgets, vec![50, 125, 125]);
        assert_eq!(clock.epochs_done(), 2);

        let uniform = CampaignConfig {
            adaptive_budgets: false,
            ..cfg
        };
        assert_eq!(clock.plan(&uniform, vec![5, 9, 20]).budgets, vec![100; 3]);
    }
}
