//! Runtime support structures shared by the rewriter, the VM and the
//! fuzzer: address-space layout, taint tags, gadget reports, coverage maps
//! and the instrumentation cost model.

pub mod cost;
pub mod coverage;
pub mod crc;
pub mod delta;
pub mod hash;
pub mod layout;
pub mod meta;
pub mod report;
pub mod tags;
pub mod witness;

pub use coverage::CovMap;
pub use crc::crc32;
pub use delta::{CovDelta, ShardDelta};
pub use hash::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher};
pub use meta::TeapotMeta;
pub use report::{Channel, Controllability, GadgetKey, GadgetReport};
pub use tags::Tag;
pub use teapot_specmodel::{SpecModel, SpecModelSet};
pub use witness::{GadgetWitness, OriginSpan, TraceEvent, MAX_TRACE_EVENTS};

/// Detector configuration: which taint sources/policies are active.
///
/// The Table 3 experiment (paper §7.2) disables the normal taint sources
/// and the Massage policy, and instead marks a single designated variable
/// as attacker-direct — see [`DetectorConfig::artificial_gadget_mode`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DetectorConfig {
    /// Tag data read by input syscalls (and `argv`/`argc`) as `USER`.
    pub taint_input_sources: bool,
    /// Enable the attacker-indirect ("Massage") policy: values loaded by
    /// speculative out-of-bounds accesses become `MASSAGE`-tainted.
    pub massage_policy: bool,
    /// Reorder-buffer budget: maximum speculatively simulated *program*
    /// instructions per nesting level. The paper uses 250 (x86 reorder-
    /// buffer µops); TEA-64's stack-machine code generator emits roughly
    /// twice the instructions per source statement that an optimizing x86
    /// compiler would, so the default is calibrated to 500 to cover the
    /// same source-level window.
    pub rob_budget: u32,
    /// Maximum nesting depth of branch mispredictions (the paper uses 6).
    pub max_nesting: u32,
    /// Full-depth nested exploration for a branch's first N simulations,
    /// after which the SpecFuzz gradual-deepening heuristic applies
    /// (the paper's hybrid uses 5).
    pub full_depth_runs: u32,
    /// Artificial-gadget mode: only stores to the designated injection
    /// variable are tagged `USER` (Table 3 setup).
    pub artificial_gadget_mode: bool,
}

impl Default for DetectorConfig {
    fn default() -> Self {
        DetectorConfig {
            taint_input_sources: true,
            massage_policy: true,
            rob_budget: 500,
            max_nesting: 6,
            full_depth_runs: 5,
            artificial_gadget_mode: false,
        }
    }
}

impl DetectorConfig {
    /// Configuration for the Table 3 artificial-gadget experiment:
    /// taint sources off, Massage policy off, the designated injection
    /// variable is the only attacker-direct datum (paper §7.2).
    pub fn artificial() -> DetectorConfig {
        DetectorConfig {
            taint_input_sources: false,
            massage_policy: false,
            artificial_gadget_mode: true,
            ..DetectorConfig::default()
        }
    }

    /// Configuration with nested speculation disabled (used by the
    /// run-time performance comparison, paper §7.1).
    pub fn no_nesting() -> DetectorConfig {
        DetectorConfig {
            max_nesting: 1,
            ..DetectorConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_constants() {
        let c = DetectorConfig::default();
        assert_eq!(c.rob_budget, 500);
        assert_eq!(c.max_nesting, 6);
        assert_eq!(c.full_depth_runs, 5);
        assert!(c.taint_input_sources);
        assert!(c.massage_policy);
    }

    #[test]
    fn artificial_mode_disables_sources() {
        let c = DetectorConfig::artificial();
        assert!(!c.taint_input_sources);
        assert!(!c.massage_policy);
        assert!(c.artificial_gadget_mode);
    }

    #[test]
    fn no_nesting_keeps_single_level() {
        assert_eq!(DetectorConfig::no_nesting().max_nesting, 1);
    }
}
