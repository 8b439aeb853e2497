//! Deterministic JSON rendering of campaign reports.
//!
//! Spelled through the workspace codec ([`teapot_telemetry::json`]):
//! keys are emitted in a fixed order, maps are sorted (`BTreeMap`), and
//! nothing timing- or thread-dependent is included — the bytes are a
//! pure function of the campaign result, which is what makes the
//! "`--workers 8` equals `--workers 1`" acceptance check meaningful.

use crate::{CampaignReport, ShardSummary};
use teapot_rt::{GadgetReport, SpecModel};
use teapot_telemetry::json::{Hex, Layout, Obj};

fn render_gadget(o: &mut Obj, g: &GadgetReport) {
    o.field("pc", Hex(g.key.pc))
        .field("channel", g.key.channel.to_string())
        .field("controllability", g.key.controllability.to_string());
    // The model field is emitted only for non-PHT gadgets: default
    // (PHT-only) campaign JSON stays byte-identical to the
    // pre-specmodel pipeline.
    if g.key.model != SpecModel::Pht {
        o.field("model", g.key.model.to_string());
    }
    o.field("bucket", g.bucket())
        .field("branch_pc", Hex(g.branch_pc))
        .field("access_pc", Hex(g.access_pc))
        .field("depth", g.depth)
        .field("description", &g.description);
}

fn render_shard(o: &mut Obj, s: &ShardSummary) {
    o.field("shard", s.shard)
        .field("iters", s.iters)
        .field("corpus_len", s.corpus_len)
        .field("gadgets", s.gadgets)
        .field("crashes", s.crashes)
        .field("total_cost", s.total_cost);
}

/// Renders a [`CampaignReport`] as deterministic, pretty-stable JSON.
pub fn render_report(r: &CampaignReport) -> String {
    use Layout::{Compact, Lines, Spaced};
    let mut o = Obj::new(Lines);
    o.field("seed", r.seed)
        .field("shards", r.shards)
        .field("epochs", r.epochs);
    // Emitted only for non-default model sets: default campaign JSON is
    // byte-identical to the pre-specmodel renderer.
    if !r.spec_models.is_default() {
        o.field("spec_models", r.spec_models.to_string());
    }
    let d = &r.decode_stats;
    o.obj("decode_cache", Spaced, |c| {
        c.field("blocks", d.blocks)
            .field("insts", d.insts)
            .field("bytes", d.bytes)
            .field("undecoded_bytes", d.undecoded_bytes);
    })
    .field("iters", r.iters)
    .field("total_cost", r.total_cost)
    .field("crashes", r.crashes)
    .field("corpus_total", r.corpus_total)
    .field("cov_normal_features", r.cov_normal_features)
    .field("cov_spec_features", r.cov_spec_features)
    .field("unique_gadgets", r.unique_gadgets())
    .obj("buckets", Compact, |b| {
        for (bucket, n) in &r.buckets {
            b.field(bucket, n);
        }
    })
    .list("gadgets", Lines, Compact, &r.gadgets, render_gadget)
    .list("per_shard", Lines, Compact, &r.per_shard, render_shard);
    let mut out = o.finish();
    out.push('\n');
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
