//! Deterministic JSON rendering of campaign reports.
//!
//! Hand-rolled so the workspace stays dependency-free: keys are emitted
//! in a fixed order, maps are sorted (`BTreeMap`), and nothing
//! timing- or thread-dependent is included — the bytes are a pure
//! function of the campaign result, which is what makes the
//! "`--workers 8` equals `--workers 1`" acceptance check meaningful.

use crate::{CampaignReport, ShardSummary};
use teapot_rt::{GadgetReport, SpecModel};
use teapot_telemetry::escape;

fn render_gadget(g: &GadgetReport, out: &mut String) {
    // The model field is emitted only for non-PHT gadgets: default
    // (PHT-only) campaign JSON stays byte-identical to the
    // pre-specmodel pipeline.
    let model = if g.key.model == SpecModel::Pht {
        String::new()
    } else {
        format!("\"model\":\"{}\",", g.key.model)
    };
    out.push_str(&format!(
        "{{\"pc\":\"{:#x}\",\"channel\":\"{}\",\"controllability\":\"{}\",{model}\
         \"bucket\":\"{}\",\"branch_pc\":\"{:#x}\",\"access_pc\":\"{:#x}\",\
         \"depth\":{},\"description\":\"{}\"}}",
        g.key.pc,
        g.key.channel,
        g.key.controllability,
        g.bucket(),
        g.branch_pc,
        g.access_pc,
        g.depth,
        escape(&g.description),
    ));
}

fn render_shard(s: &ShardSummary, out: &mut String) {
    out.push_str(&format!(
        "{{\"shard\":{},\"iters\":{},\"corpus_len\":{},\"gadgets\":{},\
         \"crashes\":{},\"total_cost\":{}}}",
        s.shard, s.iters, s.corpus_len, s.gadgets, s.crashes, s.total_cost,
    ));
}

/// Renders a [`CampaignReport`] as deterministic, pretty-stable JSON.
pub fn render_report(r: &CampaignReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"seed\": {},\n", r.seed));
    out.push_str(&format!("  \"shards\": {},\n", r.shards));
    out.push_str(&format!("  \"epochs\": {},\n", r.epochs));
    // Emitted only for non-default model sets: default campaign JSON is
    // byte-identical to the pre-specmodel renderer.
    if !r.spec_models.is_default() {
        out.push_str(&format!("  \"spec_models\": \"{}\",\n", r.spec_models));
    }
    out.push_str(&format!(
        "  \"decode_cache\": {{\"blocks\": {}, \"insts\": {}, \"bytes\": {}, \
         \"undecoded_bytes\": {}}},\n",
        r.decode_stats.blocks,
        r.decode_stats.insts,
        r.decode_stats.bytes,
        r.decode_stats.undecoded_bytes
    ));
    out.push_str(&format!("  \"iters\": {},\n", r.iters));
    out.push_str(&format!("  \"total_cost\": {},\n", r.total_cost));
    out.push_str(&format!("  \"crashes\": {},\n", r.crashes));
    out.push_str(&format!("  \"corpus_total\": {},\n", r.corpus_total));
    out.push_str(&format!(
        "  \"cov_normal_features\": {},\n",
        r.cov_normal_features
    ));
    out.push_str(&format!(
        "  \"cov_spec_features\": {},\n",
        r.cov_spec_features
    ));
    out.push_str(&format!("  \"unique_gadgets\": {},\n", r.unique_gadgets()));

    out.push_str("  \"buckets\": {");
    for (i, (bucket, n)) in r.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{}\":{}", escape(bucket), n));
    }
    out.push_str("},\n");

    out.push_str("  \"gadgets\": [");
    for (i, g) in r.gadgets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        render_gadget(g, &mut out);
    }
    if !r.gadgets.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n");

    out.push_str("  \"per_shard\": [");
    for (i, s) in r.per_shard.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str("\n    ");
        render_shard(s, &mut out);
    }
    if !r.per_shard.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use teapot_rt::{Channel, Controllability, GadgetKey, SpecModelSet};

    fn sample_report() -> CampaignReport {
        CampaignReport {
            seed: 7,
            shards: 2,
            epochs: 1,
            spec_models: SpecModelSet::PHT_ONLY,
            iters: 100,
            total_cost: 5000,
            crashes: 0,
            corpus_total: 12,
            cov_normal_features: 4,
            cov_spec_features: 9,
            gadgets: vec![GadgetReport {
                key: GadgetKey {
                    pc: 0x400100,
                    channel: Channel::Mds,
                    controllability: Controllability::User,
                    model: SpecModel::Pht,
                },
                branch_pc: 0x4000f0,
                access_pc: 0x4000f8,
                depth: 2,
                description: "load of \"secret\"\n".into(),
            }],
            witnesses: Vec::new(),
            buckets: BTreeMap::from([("User-MDS".to_string(), 1)]),
            per_shard: vec![ShardSummary {
                shard: 0,
                iters: 50,
                corpus_len: 6,
                gadgets: 1,
                crashes: 0,
                total_cost: 2500,
            }],
            decode_stats: teapot_vm::DecodeStats {
                blocks: 3,
                insts: 70,
                bytes: 512,
                undecoded_bytes: 0,
            },
        }
    }

    #[test]
    fn rendering_is_deterministic() {
        let r = sample_report();
        assert_eq!(render_report(&r), render_report(&r.clone()));
    }

    #[test]
    fn escapes_quotes_and_newlines() {
        let json = render_report(&sample_report());
        assert!(json.contains("load of \\\"secret\\\"\\n"));
        assert!(json.contains("\"User-MDS\":1"));
        assert!(json.contains("\"pc\":\"0x400100\""));
    }

    #[test]
    fn model_fields_render_only_for_non_default_sets() {
        let mut r = sample_report();
        // Default set: no model annotations anywhere (pre-specmodel
        // byte-compatibility).
        let json = render_report(&r);
        assert!(!json.contains("spec_models"));
        assert!(!json.contains("\"model\""));
        // Non-default set + RSB gadget: both annotations appear.
        r.spec_models = SpecModelSet::parse("pht,rsb").unwrap();
        r.gadgets[0].key.model = SpecModel::Rsb;
        let json = render_report(&r);
        assert!(json.contains("\"spec_models\": \"pht,rsb\""));
        assert!(json.contains("\"model\":\"rsb\""));
    }
}
