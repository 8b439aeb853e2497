//! The VM stop set (`ExecContext::set_stop_keys`) on both dispatch
//! tiers.
//!
//! Triage replays only ask whether some gadget keys fire, so they give
//! the VM those keys as a stop set and the run ends once the last of
//! them is reported. That is only exact if the stopped run *is* the full
//! run up to that point. Over the planted spec-suite programs and the
//! witnesses of short libyaml and brotli campaigns, under `pht` and
//! `pht,rsb,stl`, on the compiled and the step tier, this suite checks:
//!
//! * a run with stop set S reports a prefix of the full run's gadget
//!   list that reaches the last key of S to fire, and retires no more
//!   instructions than the full run;
//! * a stop set with a key the full run never reports runs to
//!   completion, identical to the full run;
//! * clearing the stop set gives exactly the run of a context that never
//!   had one (same `RunStats`, same gadget list).

use std::sync::Arc;
use teapot::campaign::{Campaign, CampaignConfig};
use teapot::cc::Options;
use teapot::core::{rewrite, RewriteOptions};
use teapot::rt::{Channel, Controllability, GadgetKey, GadgetReport, SpecModel};
use teapot::vm::{
    DispatchTier, ExecContext, Machine, Program, RunOptions, RunStats, SpecHeuristics, SpecModelSet,
};

/// A key no run reports: no instruction lives at the top of the
/// address space.
const ABSENT: GadgetKey = GadgetKey {
    pc: u64::MAX,
    channel: Channel::Mds,
    controllability: Controllability::User,
    model: SpecModel::Pht,
};

/// One execution's inputs: bytes plus pre-run heuristic counts.
type Run = (Vec<u8>, Vec<(u64, u32)>);

fn exec(
    prog: &Arc<Program>,
    ctx: &mut ExecContext,
    cfg: &CampaignConfig,
    (input, counts): &Run,
    tier: DispatchTier,
) -> (RunStats, Vec<GadgetReport>) {
    let mut heur = SpecHeuristics::from_counts(cfg.heur_style, counts);
    let opts = RunOptions {
        input: input.clone(),
        fuel: cfg.fuel_per_run.saturating_mul(4),
        config: cfg.detector.clone(),
        emu: cfg.emu,
        models: cfg.models,
    };
    let mut m = Machine::with_context(prog, ctx, opts);
    m.set_dispatch_tier(tier);
    let stats = m.run_stats(&mut heur);
    (stats, ctx.take_gadgets())
}

/// Distinct discovering runs of a short campaign, plus the workload's
/// seeds and the planted spec-suite trigger on cold heuristics.
fn runs(prog: &Arc<Program>, w: &teapot::workloads::Workload, cfg: &CampaignConfig) -> Vec<Run> {
    let report = Campaign::new(cfg.clone())
        .unwrap()
        .run_shared(prog, &w.seeds);
    let mut runs: Vec<Run> = Vec::new();
    let seeds = w.seeds.iter().take(2).cloned();
    let trigger = std::iter::once(vec![0x14, 0x00]);
    for run in report
        .witnesses
        .iter()
        .map(|sw| (sw.witness.input.clone(), sw.witness.heur_counts.clone()))
        .chain(seeds.chain(trigger).map(|input| (input, Vec::new())))
    {
        if !runs.contains(&run) {
            runs.push(run);
        }
    }
    runs.truncate(8);
    runs
}

#[test]
fn stop_sets_cut_runs_short_without_changing_them() {
    let mut suite = teapot::workloads::spec_suite();
    suite.push(teapot::workloads::yaml_like());
    suite.push(teapot::workloads::brotli_like());
    let (mut stopped_early, mut reported) = (0usize, 0usize);
    for w in suite {
        let mut cots = w.build(&Options::gcc_like()).unwrap();
        cots.strip();
        let bin = rewrite(&cots, &RewriteOptions::default()).unwrap();
        let prog = Program::shared(&bin);
        for models in ["pht", "pht,rsb,stl"] {
            let cfg = CampaignConfig {
                shards: 4,
                epochs: 2,
                iters_per_epoch: 5,
                models: SpecModelSet::parse(models).unwrap(),
                dictionary: w.dictionary.clone(),
                ..CampaignConfig::default()
            };
            for (r, run) in runs(&prog, &w, &cfg).iter().enumerate() {
                for tier in [DispatchTier::Compiled, DispatchTier::Step] {
                    let what = format!("{} ({models}, run {r}, {tier:?})", w.name);
                    let (full, full_gadgets) =
                        exec(&prog, &mut ExecContext::new(&prog), &cfg, run, tier);
                    let keys: Vec<GadgetKey> = full_gadgets.iter().map(|g| g.key).collect();
                    reported += keys.len();
                    let mut sets: Vec<Vec<GadgetKey>> =
                        (0..keys.len()).map(|j| keys[j..].to_vec()).collect();
                    sets.extend(keys.iter().map(|&k| vec![k]));
                    sets.push(vec![ABSENT]);
                    sets.extend(keys.last().map(|&k| vec![k, ABSENT]));

                    let mut ctx = ExecContext::new(&prog);
                    for set in &sets {
                        ctx.set_stop_keys(set);
                        let (stats, gadgets) = exec(&prog, &mut ctx, &cfg, run, tier);
                        assert!(
                            gadgets[..] == full_gadgets[..gadgets.len().min(full_gadgets.len())],
                            "{what}: stop set {set:?} changed the reports"
                        );
                        assert!(stats.insts <= full.insts, "{what}: stop set {set:?}");
                        let last = set
                            .iter()
                            .map(|k| keys.iter().position(|f| f == k))
                            .collect::<Option<Vec<usize>>>()
                            .and_then(|at| at.into_iter().max());
                        match last {
                            Some(last) => assert!(
                                gadgets.len() > last,
                                "{what}: stop set {set:?} stopped before its last key"
                            ),
                            None => assert!(
                                stats == full && gadgets == full_gadgets,
                                "{what}: stop set {set:?} never completes yet stopped"
                            ),
                        }
                        stopped_early += usize::from(stats.insts < full.insts);
                    }
                    ctx.set_stop_keys(&[]);
                    let (stats, gadgets) = exec(&prog, &mut ctx, &cfg, run, tier);
                    assert_eq!(stats, full, "{what}: cleared stop set");
                    assert!(gadgets == full_gadgets, "{what}: cleared stop set");
                }
            }
        }
    }
    assert!(reported > 0, "no run reported a gadget");
    assert!(stopped_early > 0, "no stop set ended a run early");
}
