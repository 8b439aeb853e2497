//! SARIF 2.1.0 rendering of a [`TriageDb`] — the interchange format
//! consumed by code-scanning UIs (GitHub, VS Code SARIF viewers, defect
//! dashboards), so triage findings plug into existing review workflows
//! the way SpecFuzz's whitelisting reports plug into patching.
//!
//! Mapping: one **rule** per policy bucket and speculation model
//! (`User-Cache` for PHT findings, `User-Cache@rsb` / `User-Cache@stl`
//! for the other models — PHT rule ids are unchanged from the
//! pre-specmodel pipeline), one **result** per root cause, one
//! **location** per observation site
//! (binary + absolute address of the transmitting instruction). The
//! minimized reproducer, heuristic metadata and raw PCs ride in
//! `properties`. Rendering is byte-deterministic: it walks the already
//! finalized (ranked) database and emits keys in a fixed order.
//!
//! Every result additionally carries a `codeFlows`/`threadFlows` chain:
//! the provenance replay's causal narrative (mispredict → tainted load
//! → leaking access, with input-byte origins) when the finding has one,
//! else a minimal branch → access → transmit flow synthesized from the
//! first location — so SARIF viewers always get a navigable flow.

use crate::db::{hex, TriageDb};
use crate::provenance::step_line;
use crate::TriageEntry;
use teapot_telemetry::json::{Fixed, Layout, Obj};

/// SARIF severity level for a 0–100 triage severity.
fn level(severity: u32) -> &'static str {
    match severity {
        70.. => "error",
        40..=69 => "warning",
        _ => "note",
    }
}

/// Renders the database as a SARIF 2.1.0 document.
pub fn render(db: &TriageDb) -> String {
    use Layout::{Lines, Spaced};
    // One rule per bucket and model, in sorted (BTreeMap) order.
    let rules = db.rule_counts();
    let mut o = Obj::new(Lines);
    o.field("$schema", "https://json.schemastore.org/sarif-2.1.0.json")
        .field("version", "2.1.0")
        .list("runs", Lines, Lines, [db], |run, db| {
            run.obj("tool", Lines, |tool| {
                tool.obj("driver", Lines, |d| {
                    d.field("name", "teapot-triage")
                        .field("version", "0.1.0")
                        .field("informationUri", "https://github.com/teapot/teapot")
                        .list("rules", Lines, Spaced, rules.keys(), |r, rule| {
                            r.field("id", rule).obj("shortDescription", Spaced, |t| {
                                t.field("text", format!("Spectre gadget ({rule})"));
                            });
                        });
                });
            })
            .list("results", Lines, Lines, db.entries(), write_result);
        });
    let mut out = o.finish();
    out.push('\n');
    out
}

/// One result: rule, level, rank, message, locations, code flows and
/// the triage properties.
fn write_result(r: &mut Obj, e: &TriageEntry) {
    use Layout::{Lines, Spaced};
    let message = format!(
        "[severity {}] {} — {} (root cause {})",
        e.severity, e.bucket, e.description, e.root_cause
    );
    r.field("ruleId", e.rule_id())
        .field("level", level(e.severity))
        .field("rank", Fixed(f64::from(e.severity), 1))
        .obj("message", Spaced, |m| {
            m.field("text", &message);
        })
        .list("locations", Lines, Spaced, &e.locations, |loc, l| {
            loc.obj("physicalLocation", Spaced, |p| {
                physical(p, &l.binary, l.key.pc)
            })
            .list("logicalLocations", Spaced, Spaced, [l.shard], |n, shard| {
                n.field("name", format!("shard {shard}"));
            });
        });
    write_code_flows(r, e);
    r.obj("properties", Lines, |p| {
        p.field("rootCause", &e.root_cause)
            .field("replayed", e.replayed)
            .field("minDepth", e.min_depth)
            .field("maxTaintedWidth", e.max_tainted_width);
        if let Some(chain) = &e.chain {
            p.field("leakedInputBytes", chain.origin.to_string());
        }
        p.field("minimizedInput", e.minimized_input.as_deref().map(hex));
    });
}

/// A SARIF `physicalLocation` body: the binary and an absolute address.
fn physical(p: &mut Obj, uri: &str, pc: u64) {
    p.obj("artifactLocation", Layout::Spaced, |a| {
        a.field("uri", uri);
    })
    .obj("address", Layout::Spaced, |a| {
        a.field("absoluteAddress", pc);
    });
}

/// Emits the result's `codeFlows` array: one thread flow walking the
/// causal chain (or, chain-less, a synthesized branch → access →
/// transmit flow over the first location's PCs).
fn write_code_flows(r: &mut Obj, e: &TriageEntry) {
    use Layout::{Lines, Spaced};
    let uri = e
        .locations
        .first()
        .map(|l| l.binary.as_str())
        .unwrap_or("unknown");
    let steps: Vec<(u64, String)> = match &e.chain {
        Some(chain) => chain.steps.iter().map(|s| (s.pc, step_line(s))).collect(),
        None => {
            let Some(l) = e.locations.first() else {
                return;
            };
            vec![
                (
                    l.branch_pc,
                    format!("mispredict {:#x} (via {})", l.branch_pc, l.key.model),
                ),
                (l.access_pc, format!("tainted load {:#x}", l.access_pc)),
                (
                    l.key.pc,
                    format!("leaking access {:#x} (via {})", l.key.pc, l.key.model),
                ),
            ]
        }
    };
    r.list("codeFlows", Lines, Spaced, [()], |flow, ()| {
        flow.list("threadFlows", Lines, Spaced, [()], |thread, ()| {
            thread.list("locations", Lines, Spaced, &steps, |step, (pc, msg)| {
                step.obj("location", Spaced, |loc| {
                    loc.obj("physicalLocation", Spaced, |p| physical(p, uri, *pc))
                        .obj("message", Spaced, |m| {
                            m.field("text", msg);
                        });
                });
            });
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_db_is_valid_shaped_sarif() {
        let mut db = TriageDb::new();
        db.finalize();
        let s = render(&db);
        assert!(s.contains("\"version\": \"2.1.0\""));
        assert!(s.contains("teapot-triage"));
        assert!(s.contains("\"results\": []"));
    }

    #[test]
    fn levels_follow_severity() {
        assert_eq!(level(90), "error");
        assert_eq!(level(55), "warning");
        assert_eq!(level(10), "note");
    }

    #[test]
    fn every_result_carries_code_flows() {
        use crate::db::{TriageEntry, TriageLocation};
        use crate::provenance::{CausalChain, CausalStep, StepRole};
        use teapot_rt::{Channel, Controllability, GadgetKey, OriginSpan, SpecModel};

        let location = TriageLocation {
            binary: "victim.tof".to_string(),
            shard: 0,
            key: GadgetKey {
                pc: 0x400180,
                channel: Channel::Cache,
                controllability: Controllability::User,
                model: SpecModel::Pht,
            },
            branch_pc: 0x400100,
            access_pc: 0x400140,
            depth: 1,
        };
        let entry = |root: &str, chain: Option<CausalChain>| TriageEntry {
            root_cause: root.to_string(),
            bucket: "User-Cache".to_string(),
            model: SpecModel::Pht,
            severity: 70,
            description: "d".to_string(),
            access_symbol: None,
            branch_symbol: None,
            min_depth: 1,
            max_tainted_width: 1,
            witness_input: vec![3, 0],
            minimized_input: Some(vec![3]),
            minimize_steps: 0,
            replayed: true,
            chain,
            locations: vec![location.clone()],
        };
        let chain = CausalChain {
            steps: vec![
                CausalStep {
                    role: StepRole::Mispredict,
                    pc: 0x400100,
                    symbol: Some("main".into()),
                    model: SpecModel::Pht,
                    depth: 1,
                    addr: 0,
                    width: 0,
                    tag: 0,
                    origin: OriginSpan::NONE,
                },
                CausalStep {
                    role: StepRole::Leak,
                    pc: 0x400180,
                    symbol: None,
                    model: SpecModel::Pht,
                    depth: 1,
                    addr: 0,
                    width: 0,
                    tag: 4,
                    origin: OriginSpan::from_offset(0).join(OriginSpan::from_offset(1)),
                },
            ],
            origin: OriginSpan::from_offset(0).join(OriginSpan::from_offset(1)),
        };
        let mut db = TriageDb::new();
        db.insert(entry("with-chain", Some(chain)));
        db.insert(entry("chain-less", None));
        db.finalize();
        let s = render(&db);
        // Both results carry a codeFlows chain: the provenance one its
        // narrated steps, the chain-less one the synthesized flow.
        assert_eq!(s.matches("\"codeFlows\"").count(), 2);
        assert_eq!(s.matches("\"threadFlows\"").count(), 2);
        assert!(s.contains("mispredict 0x400100 <main> (via pht, depth 1)"));
        assert!(s.contains("input bytes 0-1"));
        assert!(s.contains("\"leakedInputBytes\": \"0-1\""));
        assert!(s.contains("tainted load 0x400140"));
    }
}
