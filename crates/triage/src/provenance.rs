//! Causal-chain extraction from provenance replays.
//!
//! A campaign witness records *that* a gadget fired; the provenance
//! replay (the same witness re-executed with the VM's origin shadow on)
//! records *why*: which misprediction opened the speculative window,
//! which load pulled the secret in, which access leaked it, and which
//! attacker-controlled input bytes steered the whole flow. This module
//! turns that enriched trace into a [`CausalChain`] — the ordered
//! mispredict → tainted load → leaking access narrative that
//! `teapot explain` renders and the SARIF renderer emits as
//! `codeFlows`/`threadFlows`.
//!
//! Extraction is a pure function of `(trace, gadget report)`, so the
//! chain inherits the replay's determinism: the same witness always
//! explains the same way.

use teapot_rt::{GadgetReport, OriginSpan, SpecModel, TraceEvent};

/// What one [`CausalStep`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepRole {
    /// The misprediction that opened the speculative window.
    Mispredict,
    /// A tainted memory access inside the window (secret or
    /// attacker-data movement).
    TaintedLoad,
    /// The secret-dependent access that completed the gadget.
    Leak,
}

impl StepRole {
    /// Every role, in chain order.
    pub const ALL: [StepRole; 3] = [StepRole::Mispredict, StepRole::TaintedLoad, StepRole::Leak];

    /// Lower-case label used by every renderer.
    pub fn label(self) -> &'static str {
        match self {
            StepRole::Mispredict => "mispredict",
            StepRole::TaintedLoad => "tainted-load",
            StepRole::Leak => "leak",
        }
    }
}

/// One step of a gadget's causal chain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalStep {
    /// Role of this step in the chain.
    pub role: StepRole,
    /// Program counter (original binary coordinates).
    pub pc: u64,
    /// `symbol+off`, when the binary carries symbols.
    pub symbol: Option<String>,
    /// Speculation model of the window (mispredict/leak steps).
    pub model: SpecModel,
    /// Nesting depth (mispredict/leak steps).
    pub depth: u32,
    /// Accessed address (tainted-load steps; 0 otherwise).
    pub addr: u64,
    /// Access width in bytes (tainted-load steps; 0 otherwise).
    pub width: u8,
    /// DIFT tag bits observed at this step (0 for mispredict).
    pub tag: u8,
    /// Input-byte origin interval resolved at this step.
    pub origin: OriginSpan,
}

/// The causal chain of one gadget: mispredict site, the tainted loads
/// inside the window, and the leaking access, in execution order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CausalChain {
    /// Ordered steps; the first is always the mispredict, the last the
    /// leak.
    pub steps: Vec<CausalStep>,
    /// Input-byte interval that reached the leaking access — the bytes
    /// an attacker controls to steer the gadget.
    pub origin: OriginSpan,
}

impl CausalChain {
    /// The leak step (always present).
    pub fn leak(&self) -> &CausalStep {
        self.steps.last().expect("chains always end in a leak")
    }
}

/// Cap on tainted-load steps kept per chain: enough to narrate any
/// planted or real gadget without ballooning reports when a window
/// touches tainted data in a loop.
pub const MAX_LOAD_STEPS: usize = 8;

/// Extracts the causal chain for `g` from a provenance-replay `trace`.
///
/// The anchor is the first [`TraceEvent::LeakSite`] matching the
/// gadget's `(pc, model)`; the window opener is the most recent
/// preceding [`TraceEvent::SpecBranch`] at the report's `branch_pc`
/// (falling back to the most recent same-model branch, then to any
/// branch — nested windows can re-enter under a different model);
/// tainted accesses between the two become the intermediate steps,
/// deduplicated by PC with the *first* occurrence kept and its origin
/// widened over repeats. Returns `None` when the trace carries no
/// matching leak site (provenance off, or a stale witness).
pub fn extract(trace: &[TraceEvent], g: &GadgetReport) -> Option<CausalChain> {
    let leak_idx = trace.iter().position(|ev| {
        matches!(ev, TraceEvent::LeakSite { pc, model, .. }
                 if *pc == g.key.pc && *model == g.key.model)
    })?;
    let TraceEvent::LeakSite {
        pc: leak_pc,
        depth: leak_depth,
        model: leak_model,
        tag: leak_tag,
        origin: leak_origin,
    } = trace[leak_idx]
    else {
        unreachable!();
    };

    let branch_at = |pred: &dyn Fn(u64, SpecModel) -> bool| {
        trace[..leak_idx].iter().rposition(
            |ev| matches!(ev, TraceEvent::SpecBranch { pc, model, .. } if pred(*pc, *model)),
        )
    };
    let branch_idx = branch_at(&|pc, _| pc == g.branch_pc)
        .or_else(|| branch_at(&|_, model| model == g.key.model))
        .or_else(|| branch_at(&|_, _| true));

    let mut steps = Vec::new();
    let window_start = match branch_idx {
        Some(i) => {
            let TraceEvent::SpecBranch { pc, depth, model } = trace[i] else {
                unreachable!();
            };
            steps.push(CausalStep {
                role: StepRole::Mispredict,
                pc,
                symbol: None,
                model,
                depth,
                addr: 0,
                width: 0,
                tag: 0,
                origin: OriginSpan::NONE,
            });
            i + 1
        }
        None => 0,
    };

    for ev in &trace[window_start..leak_idx] {
        let TraceEvent::TaintedAccess {
            pc,
            addr,
            width,
            tag,
            origin,
        } = ev
        else {
            continue;
        };
        if let Some(prev) = steps
            .iter_mut()
            .find(|s| s.role == StepRole::TaintedLoad && s.pc == *pc)
        {
            prev.origin = prev.origin.join(*origin);
            continue;
        }
        if steps.len() <= MAX_LOAD_STEPS {
            steps.push(CausalStep {
                role: StepRole::TaintedLoad,
                pc: *pc,
                symbol: None,
                model: leak_model,
                depth: leak_depth,
                addr: *addr,
                width: *width,
                tag: *tag,
                origin: *origin,
            });
        }
    }

    steps.push(CausalStep {
        role: StepRole::Leak,
        pc: leak_pc,
        symbol: None,
        model: leak_model,
        depth: leak_depth,
        addr: 0,
        width: 0,
        tag: leak_tag,
        origin: leak_origin,
    });
    Some(CausalChain {
        steps,
        origin: leak_origin,
    })
}

/// Renders one step as the single-line form shared by the ranked text
/// report and `teapot explain`.
pub fn step_line(s: &CausalStep) -> String {
    let sym = match &s.symbol {
        Some(sym) => format!(" <{sym}>"),
        None => String::new(),
    };
    match s.role {
        StepRole::Mispredict => format!(
            "mispredict {:#x}{sym} (via {}, depth {})",
            s.pc, s.model, s.depth
        ),
        StepRole::TaintedLoad => format!(
            "tainted load {:#x}{sym} ({}B @ {:#x}, input bytes {})",
            s.pc, s.width, s.addr, s.origin
        ),
        StepRole::Leak => format!(
            "leaking access {:#x}{sym} (via {}, depth {}, input bytes {})",
            s.pc, s.model, s.depth, s.origin
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use teapot_rt::{Channel, Controllability, GadgetKey};

    fn report() -> GadgetReport {
        GadgetReport {
            key: GadgetKey {
                pc: 0x400180,
                channel: Channel::Cache,
                controllability: Controllability::User,
                model: SpecModel::Pht,
            },
            branch_pc: 0x400100,
            access_pc: 0x400140,
            depth: 1,
            description: "test".into(),
        }
    }

    fn trace() -> Vec<TraceEvent> {
        vec![
            TraceEvent::SpecBranch {
                pc: 0x400100,
                depth: 1,
                model: SpecModel::Pht,
            },
            TraceEvent::TaintedAccess {
                pc: 0x400140,
                addr: 0x80_0000,
                width: 1,
                tag: 1,
                origin: OriginSpan::from_offset(1),
            },
            TraceEvent::TaintedAccess {
                pc: 0x400140,
                addr: 0x80_0004,
                width: 1,
                tag: 1,
                origin: OriginSpan::from_offset(0),
            },
            TraceEvent::LeakSite {
                pc: 0x400180,
                depth: 1,
                model: SpecModel::Pht,
                tag: 4,
                origin: OriginSpan::from_offset(0).join(OriginSpan::from_offset(1)),
            },
            TraceEvent::Rollback {
                pc: 0x400100,
                depth: 1,
                model: SpecModel::Pht,
            },
        ]
    }

    #[test]
    fn extracts_branch_loads_and_leak() {
        let chain = extract(&trace(), &report()).unwrap();
        assert_eq!(chain.steps.len(), 3);
        assert_eq!(chain.steps[0].role, StepRole::Mispredict);
        assert_eq!(chain.steps[0].pc, 0x400100);
        // The two same-PC loads merged, origins widened.
        assert_eq!(chain.steps[1].role, StepRole::TaintedLoad);
        assert_eq!(chain.steps[1].origin.offsets(), Some((0, 1)));
        assert_eq!(chain.leak().pc, 0x400180);
        assert_eq!(chain.origin.offsets(), Some((0, 1)));
    }

    #[test]
    fn missing_leak_site_yields_no_chain() {
        let mut t = trace();
        t.retain(|ev| !matches!(ev, TraceEvent::LeakSite { .. }));
        assert!(extract(&t, &report()).is_none());
        // A leak for a different key doesn't anchor this gadget.
        let mut other = report();
        other.key.pc = 0x999999;
        assert!(extract(&trace(), &other).is_none());
    }

    #[test]
    fn step_lines_name_sites_and_offsets() {
        let chain = extract(&trace(), &report()).unwrap();
        assert_eq!(
            step_line(&chain.steps[0]),
            "mispredict 0x400100 (via pht, depth 1)"
        );
        assert!(step_line(&chain.steps[1]).contains("input bytes 0-1"));
        assert!(step_line(chain.leak()).starts_with("leaking access 0x400180"));
        let mut with_sym = chain.steps[0].clone();
        with_sym.symbol = Some("main+0x10".into());
        assert!(step_line(&with_sym).contains("<main+0x10>"));
    }
}
