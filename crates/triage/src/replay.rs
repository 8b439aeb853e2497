//! Deterministic witness replay.
//!
//! The VM is a pure function of `(program, input, heuristic state,
//! options)` — no wall clock, no RNG, no thread scheduling reaches an
//! execution. A [`GadgetWitness`] snapshots exactly those inputs at the
//! moment of discovery (the triggering bytes plus the pre-run per-branch
//! heuristic counts), so replaying it reproduces the discovering run
//! bit-for-bit: the same simulation entries, the same rollbacks, the
//! same gadget reports.
//!
//! A [`Replayer`] pools one [`ExecContext`] across replays (the same
//! reset-in-place path the fuzzing hot loop uses); `ExecContext::reset`
//! is observably identical to a fresh context, so pooled and fresh
//! replays agree — the replay-determinism property test pins this.
//!
//! Triage only ever asks whether some keys fire, so [`Replayer::fired`]
//! and [`Replayer::fired_provenance`] give the VM those keys as its stop
//! set: the run ends once the last of them is reported, which answers
//! exactly as the full run would.

use std::sync::Arc;
use teapot_campaign::CampaignConfig;
use teapot_rt::{DetectorConfig, GadgetKey, GadgetReport, GadgetWitness, SpecModelSet, TraceEvent};
use teapot_vm::{EmuStyle, ExecContext, HeurStyle, Machine, Program, RunOptions, SpecHeuristics};

/// Everything a replay needs beyond the witness itself: the detector
/// configuration and execution style of the discovering campaign.
#[derive(Debug, Clone)]
pub struct ReplayConfig {
    /// Cost budget per replay. Defaults to four times the campaign's
    /// per-run fuel: a replay seeded from the witness's heuristic counts
    /// is exact, but minimization candidates walk *different* paths and
    /// must not be cut short by a tight budget.
    pub fuel: u64,
    /// Detector configuration of the discovering campaign.
    pub detector: DetectorConfig,
    /// Execution style of the discovering campaign.
    pub emu: EmuStyle,
    /// Heuristic style of the discovering campaign.
    pub heur_style: HeurStyle,
    /// Speculation models of the discovering campaign — a witness found
    /// under an RSB or STL misprediction only replays when the same
    /// model is simulated.
    pub models: SpecModelSet,
}

impl ReplayConfig {
    /// Derives a replay configuration from the campaign that produced
    /// the witnesses.
    pub fn from_campaign(cfg: &CampaignConfig) -> ReplayConfig {
        ReplayConfig {
            fuel: cfg.fuel_per_run.saturating_mul(4),
            detector: cfg.detector.clone(),
            emu: cfg.emu,
            heur_style: cfg.heur_style,
            models: cfg.models,
        }
    }
}

/// What one replay produced.
#[derive(Debug, Clone)]
pub struct ReplayOutcome {
    /// Whether the witness's gadget key fired again.
    pub reproduced: bool,
    /// Every gadget the replayed run reported.
    pub gadgets: Vec<GadgetReport>,
}

/// A pooled replay engine over one shared [`Program`].
pub struct Replayer {
    prog: Arc<Program>,
    ctx: ExecContext,
    cfg: ReplayConfig,
    replays: u64,
}

impl Replayer {
    /// Creates a replayer with one pooled execution context.
    pub fn new(prog: Arc<Program>, cfg: ReplayConfig) -> Replayer {
        let ctx = ExecContext::new(&prog);
        Replayer {
            prog,
            ctx,
            cfg,
            replays: 0,
        }
    }

    /// The shared program this replayer executes.
    pub fn program(&self) -> &Arc<Program> {
        &self.prog
    }

    /// The replay configuration.
    pub fn config(&self) -> &ReplayConfig {
        &self.cfg
    }

    /// Total VM executions performed, early-stopped ones included.
    pub fn replays(&self) -> u64 {
        self.replays
    }

    /// Executes `input` with heuristics seeded from `heur_counts` on the
    /// pooled context and returns the run's gadget reports.
    pub fn run(&mut self, input: &[u8], heur_counts: &[(u64, u32)]) -> Vec<GadgetReport> {
        self.replays += 1;
        let mut heur = SpecHeuristics::from_counts(self.cfg.heur_style, heur_counts);
        let opts = RunOptions {
            input: input.to_vec(),
            fuel: self.cfg.fuel,
            config: self.cfg.detector.clone(),
            emu: self.cfg.emu,
            models: self.cfg.models,
        };
        Machine::with_context(&self.prog, &mut self.ctx, opts).run_stats(&mut heur);
        self.ctx.take_gadgets()
    }

    /// Replays a witness: re-executes its input under its pre-run
    /// heuristic state and reports whether the same [`GadgetKey`] fired.
    ///
    /// [`GadgetKey`]: teapot_rt::GadgetKey
    pub fn replay(&mut self, w: &GadgetWitness) -> ReplayOutcome {
        let gadgets = self.run(&w.input, &w.heur_counts);
        ReplayOutcome {
            reproduced: gadgets.iter().any(|g| g.key == w.key),
            gadgets,
        }
    }

    /// Executes `input` with heuristics seeded from `heur_counts` and
    /// returns the mask of `keys` that fired: bit `i` is set iff
    /// `keys[i]` was reported. The run stops once all of them have
    /// fired, so the mask is the full run's at less cost.
    ///
    /// # Panics
    ///
    /// Panics on more than 64 keys.
    pub fn fired(&mut self, input: &[u8], heur_counts: &[(u64, u32)], keys: &[GadgetKey]) -> u64 {
        assert!(keys.len() <= 64, "a fired mask holds at most 64 keys");
        self.ctx.set_stop_keys(keys);
        let gadgets = self.run(input, heur_counts);
        self.ctx.set_stop_keys(&[]);
        keys.iter()
            .enumerate()
            .filter(|(_, k)| gadgets.iter().any(|g| g.key == **k))
            .fold(0, |mask, (i, _)| mask | (1 << i))
    }

    /// [`Replayer::fired`] with the origin shadow and witness recorder
    /// on: also returns the provenance-enriched trace, in which tainted
    /// accesses carry resolved input-byte origins and every fired key's
    /// completing access appears as a [`TraceEvent::LeakSite`]. The run
    /// stops after the last key's leak site, and the trace up to there
    /// is the full run's. Both switches are restored afterwards, so
    /// subsequent pooled replays (and their campaign-equivalence
    /// guarantee) are untouched.
    ///
    /// [`TraceEvent::LeakSite`]: teapot_rt::TraceEvent::LeakSite
    pub fn fired_provenance(
        &mut self,
        input: &[u8],
        heur_counts: &[(u64, u32)],
        keys: &[GadgetKey],
    ) -> (u64, Vec<TraceEvent>) {
        self.ctx.set_witness_recording(true);
        self.ctx.set_provenance(true);
        let mask = self.fired(input, heur_counts, keys);
        let trace = self.ctx.trace().to_vec();
        self.ctx.set_provenance(false);
        self.ctx.set_witness_recording(false);
        (mask, trace)
    }

    /// Replays a witness once with provenance on — the one-key case of
    /// [`Replayer::fired_provenance`]. Returns `None` when the witness
    /// does not reproduce.
    pub fn replay_provenance(&mut self, w: &GadgetWitness) -> Option<Vec<TraceEvent>> {
        let (mask, trace) = self.fired_provenance(&w.input, &w.heur_counts, &[w.key]);
        (mask != 0).then_some(trace)
    }
}

/// One-shot replay on a *fresh* context (no pooling) — the determinism
/// twin of [`Replayer::run`]: both must produce identical gadget lists
/// for identical inputs, because `ExecContext::reset` is observably
/// identical to `ExecContext::new`.
pub fn run_fresh(
    prog: &Arc<Program>,
    cfg: &ReplayConfig,
    input: &[u8],
    heur_counts: &[(u64, u32)],
) -> Vec<GadgetReport> {
    let mut heur = SpecHeuristics::from_counts(cfg.heur_style, heur_counts);
    let opts = RunOptions {
        input: input.to_vec(),
        fuel: cfg.fuel,
        config: cfg.detector.clone(),
        emu: cfg.emu,
        models: cfg.models,
    };
    Machine::from_program(prog.clone(), opts)
        .run(&mut heur)
        .gadgets
}
