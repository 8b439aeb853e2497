//! End-to-end CLI smoke tests driving the built `teapot` binary the way
//! the paper artifact's scripts drive its tools.

use std::path::PathBuf;
use std::process::Command;
use teapot_telemetry::json::Value;

fn teapot_bin() -> PathBuf {
    // target/<profile>/teapot next to the test executable.
    let mut p = std::env::current_exe().unwrap();
    p.pop(); // deps/
    p.pop(); // debug|release/
    p.push("teapot");
    p
}

fn run_cli(args: &[&str]) -> (bool, String) {
    let out = Command::new(teapot_bin())
        .args(args)
        .output()
        .expect("spawn teapot");
    let text = format!(
        "{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    (out.status.success(), text)
}

#[test]
fn compile_instrument_run_pipeline() {
    let dir = std::env::temp_dir().join("teapot-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cots = dir.join("jsmn.tof");
    let inst = dir.join("jsmn_inst.tof");
    let input = dir.join("in.json");
    std::fs::write(&input, br#"{"k": [1, 2, 3]}"#).unwrap();

    let (ok, text) = run_cli(&["compile", "jsmn", "-o", cots.to_str().unwrap(), "--strip"]);
    assert!(ok, "{text}");

    let (ok, text) = run_cli(&[
        "instrument",
        cots.to_str().unwrap(),
        "-o",
        inst.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");

    let (ok, text) = run_cli(&[
        "run",
        inst.to_str().unwrap(),
        "--input-file",
        input.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("status: Exit(0)"), "{text}");
    assert!(text.contains("simulations:"), "{text}");
}

#[test]
fn dis_prints_functions_and_blocks() {
    let dir = std::env::temp_dir().join("teapot-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let cots = dir.join("htp.tof");
    let (ok, text) = run_cli(&["compile", "libhtp", "-o", cots.to_str().unwrap()]);
    assert!(ok, "{text}");
    let (ok, text) = run_cli(&["dis", cots.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(text.contains("fn list_size"), "{text}");
    assert!(text.contains("block"), "{text}");
}

/// Builds a fresh instrumented victim binary under `dir` (each test
/// uses its own directory — tests run in parallel threads and must not
/// share artifacts).
fn build_victim(dir: &std::path::Path) -> PathBuf {
    std::fs::remove_dir_all(dir).ok();
    std::fs::create_dir_all(dir).unwrap();
    let src = dir.join("victim.minic");
    let cots = dir.join("victim.tof");
    let inst = dir.join("victim_inst.tof");
    // A classic Spectre-V1 shape small campaigns find reliably.
    std::fs::write(
        &src,
        "char bar[256];
         int baz;
         char inbuf[16];
         int main() {
             char *foo = malloc(16);
             read_input(inbuf, 16);
             int index = inbuf[1];
             if (index < 10) {
                 int secret = foo[index];
                 baz = bar[secret];
             }
             return 0;
         }",
    )
    .unwrap();
    let (ok, text) = run_cli(&[
        "compile",
        src.to_str().unwrap(),
        "-o",
        cots.to_str().unwrap(),
        "--strip",
    ]);
    assert!(ok, "{text}");
    let (ok, text) = run_cli(&[
        "instrument",
        cots.to_str().unwrap(),
        "-o",
        inst.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    inst
}

#[test]
fn triage_pipeline_emits_ranked_report_and_sarif() {
    let dir = std::env::temp_dir().join("teapot-cli-triage-test");
    let inst = build_victim(&dir);
    let sarif = dir.join("victim.sarif");
    let jsonl = dir.join("victim.jsonl");

    let (ok, text) = run_cli(&[
        "triage",
        inst.to_str().unwrap(),
        "--shards",
        "2",
        "--epochs",
        "2",
        "--iters",
        "40",
        "--sarif",
        sarif.to_str().unwrap(),
        "--jsonl",
        jsonl.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("teapot triage report"), "{text}");
    assert!(text.contains("root cause"), "{text}");
    assert!(text.contains("0 replay failure(s)"), "{text}");

    let sarif_text = std::fs::read_to_string(&sarif).unwrap();
    assert!(sarif_text.contains("\"version\": \"2.1.0\""));
    assert!(sarif_text.contains("teapot-triage"));
    let jsonl_text = std::fs::read_to_string(&jsonl).unwrap();
    assert!(jsonl_text.starts_with("{\"teapot_triage\":1"));
    assert!(jsonl_text.contains("minimized_input"));
}

#[test]
fn campaign_runs_triage_automatically() {
    let dir = std::env::temp_dir().join("teapot-cli-campaign-triage-test");
    let inst = build_victim(&dir);
    let (ok, text) = run_cli(&[
        "campaign",
        inst.to_str().unwrap(),
        "--shards",
        "2",
        "--epochs",
        "2",
        "--iters",
        "40",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("unique gadgets"), "{text}");
    assert!(text.contains("teapot triage report"), "{text}");

    let (ok, text) = run_cli(&[
        "campaign",
        inst.to_str().unwrap(),
        "--shards",
        "2",
        "--epochs",
        "2",
        "--iters",
        "40",
        "--no-triage",
    ]);
    assert!(ok, "{text}");
    assert!(!text.contains("teapot triage report"), "{text}");
}

#[test]
fn unknown_command_fails_cleanly() {
    let (ok, text) = run_cli(&["frobnicate"]);
    assert!(!ok);
    assert!(text.contains("unknown command"));
}

#[test]
fn help_lists_workloads() {
    let (ok, text) = run_cli(&["help"]);
    assert!(ok);
    for w in [
        "jsmn",
        "libyaml",
        "libhtp",
        "brotli",
        "openssl",
        "spectre-rsb",
        "spectre-stl",
        "--spec-models",
    ] {
        assert!(text.contains(w), "missing {w}");
    }
}

/// Compiles + instruments a named workload into `dir`.
fn build_workload(dir: &std::path::Path, name: &str) -> PathBuf {
    std::fs::create_dir_all(dir).unwrap();
    let cots = dir.join(format!("{name}.tof"));
    let inst = dir.join(format!("{name}_inst.tof"));
    let (ok, text) = run_cli(&["compile", name, "-o", cots.to_str().unwrap(), "--strip"]);
    assert!(ok, "{text}");
    let (ok, text) = run_cli(&[
        "instrument",
        cots.to_str().unwrap(),
        "-o",
        inst.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    inst
}

#[test]
fn spec_models_flag_gates_the_planted_rsb_gadget() {
    let dir = std::env::temp_dir().join("teapot-cli-specmodels-test");
    let inst = build_workload(&dir, "spectre-rsb");
    let base = [
        "campaign",
        inst.to_str().unwrap(),
        "--shards",
        "2",
        "--epochs",
        "1",
        "--iters",
        "15",
        "--workload",
        "spectre-rsb",
        "--no-triage",
    ];

    // Default (PHT-only): the planted program stays clean.
    let (ok, text) = run_cli(&base);
    assert!(ok, "{text}");
    assert!(text.contains("unique gadgets: 0"), "{text}");

    // RSB enabled: the gadget appears, attributed to the model.
    let mut with_rsb = base.to_vec();
    with_rsb.extend(["--spec-models", "pht,rsb"]);
    let (ok, text) = run_cli(&with_rsb);
    assert!(ok, "{text}");
    assert!(text.contains("[via rsb]"), "{text}");

    // Bad model names fail with the valid set spelled out.
    let mut bad = base.to_vec();
    bad.extend(["--spec-models", "pht,bogus"]);
    let (ok, text) = run_cli(&bad);
    assert!(!ok);
    assert!(text.contains("unknown speculation model"), "{text}");
    assert!(text.contains("pht, rsb, stl"), "{text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tcs_fingerprint_mismatch_names_both_fingerprints() {
    let dir = std::env::temp_dir().join("teapot-cli-fingerprint-test");
    let a = build_workload(&dir, "spectre-stl");
    let b = build_workload(&dir, "jsmn");
    let snap = dir.join("a.tcs");

    let (ok, text) = run_cli(&[
        "campaign",
        a.to_str().unwrap(),
        "--shards",
        "2",
        "--epochs",
        "1",
        "--iters",
        "10",
        "--no-triage",
        "--snapshot",
        snap.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");

    // Triage the snapshot against the WRONG binary: the error must name
    // both files and both fingerprints, not just "different binary".
    let (ok, text) = run_cli(&[
        "triage",
        snap.to_str().unwrap(),
        "--bin",
        b.to_str().unwrap(),
    ]);
    assert!(!ok);
    assert!(text.contains("snapshot fingerprint 0x"), "{text}");
    assert!(text.contains("binary fingerprint 0x"), "{text}");
    assert!(text.contains("a.tcs"), "{text}");
    assert!(text.contains("jsmn_inst.tof"), "{text}");
    // Two distinct 18-character fingerprints appear.
    let fps: Vec<&str> = text
        .split("fingerprint ")
        .skip(1)
        .filter_map(|s| s.get(..18))
        .collect();
    assert_eq!(fps.len(), 2, "{text}");
    assert_ne!(fps[0], fps[1], "{text}");

    // `campaign --resume` against the wrong binary reports the same way,
    // in process and on a fleet.
    for fleet in [&[][..], &["--fleet", "2"][..]] {
        let mut args = vec![
            "campaign",
            b.to_str().unwrap(),
            "--resume",
            snap.to_str().unwrap(),
        ];
        args.extend_from_slice(fleet);
        let (ok, text) = run_cli(&args);
        assert!(!ok, "{fleet:?}: {text}");
        assert!(
            text.contains("snapshot fingerprint 0x"),
            "{fleet:?}: {text}"
        );
        assert!(text.contains("binary fingerprint 0x"), "{fleet:?}: {text}");
        assert!(text.contains("a.tcs"), "{fleet:?}: {text}");
        assert!(text.contains("jsmn_inst.tof"), "{fleet:?}: {text}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bad_flag_values_fail_instead_of_running_something_else() {
    let dir = std::env::temp_dir().join("teapot-cli-bad-flags-test");
    std::fs::remove_dir_all(&dir).ok();
    let inst = build_workload(&dir, "jsmn");
    let inst = inst.to_str().unwrap();
    let dir_str = dir.to_str().unwrap();

    // An unknown workload name is an error naming the valid ones, on
    // every command that takes --workload (the short budget keeps a
    // silent run cheap should the check ever regress).
    let budget = ["--shards", "1", "--epochs", "1", "--iters", "1"];
    for cmd in ["campaign", "triage", "explain", "serve"] {
        let target = if cmd == "serve" { dir_str } else { inst };
        let mut args = vec![cmd, target, "--workload", "nope", "--no-triage"];
        args.extend(budget);
        let (ok, text) = run_cli(&args);
        assert!(!ok, "{cmd}: {text}");
        assert!(text.contains("unknown workload `nope`"), "{cmd}: {text}");
        assert!(text.contains("jsmn, libyaml"), "{cmd}: {text}");
    }

    // `--iters` parses like every other numeric flag.
    let (ok, text) = run_cli(&["campaign", inst, "--iters", "12x"]);
    assert!(!ok, "{text}");
    assert!(text.contains("--iters: bad number `12x`"), "{text}");

    // A trailing value-taking flag without its value is an error.
    for args in [
        &["campaign", inst, "--iters"][..],
        &["campaign", inst, "--workload"][..],
        &["run", inst, "--input-file"][..],
        &["run", inst, "--spec-models"][..],
    ] {
        let (ok, text) = run_cli(args);
        assert!(!ok, "{args:?}: {text}");
        assert!(text.contains("requires a value"), "{args:?}: {text}");
    }

    std::fs::remove_dir_all(&dir).ok();
}

/// Writes a copy of jsmn's instrumented binary with its `.teapot.meta`
/// note changed by `damage`, then checks that `run` and `campaign` on it
/// fail with exit code 1 and a message naming the file and saying
/// `reason`, not a panic.
fn damaged_meta_fails_cleanly(
    test: &str,
    damage: fn(&mut teapot_obj::LoadedSection),
    reason: &str,
) {
    let dir = std::env::temp_dir().join(test);
    std::fs::remove_dir_all(&dir).ok();
    let inst = build_workload(&dir, "jsmn");
    let mut bin = teapot_obj::Binary::from_bytes(&std::fs::read(&inst).unwrap()).unwrap();
    let note = bin
        .sections
        .iter_mut()
        .find(|s| s.name == ".teapot.meta")
        .unwrap();
    damage(note);
    let bad = dir.join("bad.tof");
    std::fs::write(&bad, bin.to_bytes()).unwrap();
    let bad = bad.to_str().unwrap();
    for args in [
        &["run", bad][..],
        &[
            "campaign", bad, "--shards", "1", "--epochs", "1", "--iters", "1",
        ][..],
    ] {
        let out = Command::new(teapot_bin()).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with(&format!("teapot: {bad}: ")) && stderr.contains(reason),
            "{args:?}: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncated_teapot_meta_fails_with_a_typed_error() {
    // Magic, then the first range bound runs out: 8 bytes wanted at
    // offset 4, 6 there.
    damaged_meta_fails_cleanly(
        "teapot-cli-truncated-meta-test",
        |note| note.bytes.truncate(10),
        "malformed .teapot.meta section: truncated inside the header section at byte offset 4",
    );
}

#[test]
fn missing_teapot_meta_fails_with_a_typed_error() {
    damaged_meta_fails_cleanly(
        "teapot-cli-missing-meta-test",
        |note| note.name = ".renamed".into(),
        "instrumented binary has no .teapot.meta section",
    );
}

fn fixtures() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// Runs the CLI in `dir`; returns (success, stdout).
fn stdout_in(dir: &std::path::Path, args: &[&str]) -> (bool, String) {
    let out = Command::new(teapot_bin())
        .args(args)
        .current_dir(dir)
        .output()
        .expect("spawn teapot");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
    )
}

/// `metrics_full.jsonl` carries one event of every kind in the
/// telemetry schema (all seven `fabric` ops among them); the expected
/// reports beside it pin every line `stats` and `stats --diff` print.
#[test]
fn stats_and_stats_diff_render_the_fixture_streams() {
    let dir = fixtures();
    for (args, expected) in [
        (&["stats", "metrics_full.jsonl"][..], "stats_full.txt"),
        (
            &["stats", "metrics_full.jsonl", "--top", "2"][..],
            "stats_full_top2.txt",
        ),
        (
            &[
                "stats",
                "--diff",
                "metrics_base.jsonl",
                "metrics_full.jsonl",
            ][..],
            "stats_diff.txt",
        ),
    ] {
        let (ok, text) = stdout_in(&dir, args);
        assert!(ok, "{args:?}: {text}");
        let want = std::fs::read_to_string(dir.join(expected)).unwrap();
        assert_eq!(text, want, "{args:?}");
    }
}

/// Quotes, backslashes, tabs and `},{` inside JSON strings come back
/// exactly as written, both from a metrics stream and from a triage
/// JSONL; a malformed line fails the read.
#[test]
fn stats_and_explain_print_escaped_strings_verbatim() {
    let dir = std::env::temp_dir().join("teapot-cli-escapes-test");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(
        dir.join("m.jsonl"),
        concat!(
            r#"{"event":"meta","schema":1,"binary":"we\"ird\\x.tof","models":"pht"}"#,
            "\n",
            r#"{"event":"fabric","op":"quarantine","worker":"w\"0","error":"bad \"frame\", len 3"}"#,
            "\n",
            r#"{"event":"fabric","op":"merge","epoch":0,"deltas":2,"bytes":9,"wall_ms":0}"#,
            "\n",
        ),
    )
    .unwrap();
    let (ok, text) = stdout_in(&dir, &["stats", "m.jsonl"]);
    assert!(ok, "{text}");
    assert!(text.starts_with("we\"ird\\x.tof: models pht\n"), "{text}");
    assert!(
        text.contains("chaos: quarantined w\"0: bad \"frame\", len 3\n"),
        "{text}"
    );
    let (ok, text) = stdout_in(&dir, &["stats", "--diff", "m.jsonl", "m.jsonl"]);
    assert!(ok, "{text}");
    assert!(text.contains("old: we\"ird\\x.tof (models pht)"), "{text}");

    std::fs::write(
        dir.join("r.jsonl"),
        concat!(
            r#"{"root_cause":"f+0x1:User-MDS","bucket":"User-MDS","severity":80,"#,
            r#""description":"load of \"secret\"\tvia \\ptr","minimized_input":"14","#,
            r#""leaked_input_bytes":"0-1","chain":[{"role":"mispredict","pc":"0x10","#,
            r#""symbol":"op\"q","model":"pht","depth":1},{"role":"leak","pc":"0x20","#,
            r#""symbol":null,"model":"pht","depth":1,"origin":"0-1"}],"locations":[]}"#,
            "\n",
            // A chain symbol holding `},{` must not split the chain.
            r#"{"root_cause":"g+0x2:User-MDS","bucket":"User-MDS","model":"rsb","severity":70,"#,
            r#""description":"d","minimized_input":null,"leaked_input_bytes":"0","#,
            r#""chain":[{"role":"mispredict","pc":"0x30","symbol":"op},{q","model":"rsb","#,
            r#""depth":1},{"role":"leak","pc":"0x40","symbol":null,"model":"rsb","depth":1,"#,
            r#""origin":"0"}],"locations":[]}"#,
            "\n",
        ),
    )
    .unwrap();
    let (ok, text) = stdout_in(&dir, &["explain", "r.jsonl"]);
    assert!(ok, "{text}");
    assert!(text.contains("  load of \"secret\"\tvia \\ptr\n"), "{text}");
    assert!(text.contains("mispredict 0x10 <op\"q>"), "{text}");
    assert!(
        text.contains("gadget g+0x2:User-MDS [severity 70] User-MDS [via rsb]\n"),
        "{text}"
    );
    assert!(
        text.contains("1. mispredict 0x30 <op},{q> (via rsb, depth 1)\n"),
        "{text}"
    );
    assert!(text.contains("explained 2 of 2 root cause(s)"), "{text}");

    // A line that is not a JSON object fails `stats`, `stats --diff`
    // and `explain` with its file, line, byte offset and what was
    // expected, instead of being skipped or half-read.
    let meta = r#"{"event":"meta","schema":1,"binary":"b.tof","models":"pht"}"#;
    let truncated = r#"{"event":"counters","tlb_hits":5,"#;
    std::fs::write(dir.join("t.jsonl"), format!("{meta}\n{truncated}\n")).unwrap();
    std::fs::write(dir.join("g.jsonl"), format!("{meta}\ngarbage\n")).unwrap();
    let t_err = "teapot: t.jsonl:2: expected a string at byte 33\n";
    let g_err = "teapot: g.jsonl:2: expected a value at byte 0\n";
    for (args, want) in [
        (&["stats", "t.jsonl"][..], t_err),
        (&["stats", "g.jsonl"][..], g_err),
        (&["stats", "--diff", "m.jsonl", "t.jsonl"][..], t_err),
        (&["stats", "--diff", "g.jsonl", "m.jsonl"][..], g_err),
        (&["explain", "t.jsonl"][..], t_err),
        (&["explain", "g.jsonl"][..], g_err),
    ] {
        let out = Command::new(teapot_bin())
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn teapot");
        assert!(!out.status.success(), "{args:?} succeeded");
        assert_eq!(String::from_utf8_lossy(&out.stderr), want, "{args:?}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes stdout early (`teapot stats m.jsonl | head`)
/// ends the CLI quietly instead of panicking on the next print.
#[cfg(unix)]
#[test]
fn closed_stdout_ends_the_cli_without_a_panic() {
    let (reader, writer) = std::io::pipe().unwrap();
    drop(reader);
    let out = Command::new(teapot_bin())
        .args(["stats", "metrics_full.jsonl"])
        .current_dir(fixtures())
        .stdout(writer)
        .output()
        .expect("spawn teapot");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
}

/// The numeric `(key, value)` members of one metrics line, in order.
fn numeric_fields(line: &str) -> Vec<(String, u64)> {
    let v = teapot_telemetry::json::parse(line).unwrap();
    v.members()
        .unwrap()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
        .collect()
}

/// The `counters` event of a real `--metrics` run is the per-key sum
/// of its per-shard `vm` events, in the same key order.
#[test]
fn campaign_counters_event_sums_the_vm_events() {
    let dir = std::env::temp_dir().join("teapot-cli-counters-test");
    std::fs::remove_dir_all(&dir).ok();
    let inst = build_workload(&dir, "spectre-rsb");
    let metrics = dir.join("m.jsonl");
    let (ok, text) = run_cli(&[
        "campaign",
        inst.to_str().unwrap(),
        "--shards",
        "3",
        "--epochs",
        "1",
        "--iters",
        "10",
        "--workload",
        "spectre-rsb",
        "--spec-models",
        "pht,rsb",
        "--no-triage",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    let stream = std::fs::read_to_string(&metrics).unwrap();
    let vm: Vec<_> = stream
        .lines()
        .filter(|l| l.starts_with(r#"{"event":"vm","#))
        .map(|l| {
            let mut f = numeric_fields(l);
            assert_eq!(f.remove(0).0, "shard");
            f
        })
        .collect();
    assert_eq!(vm.len(), 3);
    let counters: Vec<_> = stream
        .lines()
        .filter(|l| l.starts_with(r#"{"event":"counters","#))
        .collect();
    assert_eq!(counters.len(), 1);
    let counters = numeric_fields(counters[0]);
    assert_eq!(counters.len(), vm[0].len());
    for (i, (key, total)) in counters.iter().enumerate() {
        let sum: u64 = vm
            .iter()
            .map(|shard| {
                assert_eq!(&shard[i].0, key);
                shard[i].1
            })
            .sum();
        assert_eq!(*total, sum, "{key}");
    }
    assert!(counters
        .iter()
        .any(|(k, v)| k == "compiled_insts" && *v > 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// A string member of a parsed metrics line.
fn str_field<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    v.get(key)?.as_str()
}

/// `triage <bin.tof> --metrics` times the campaign and the triage pass
/// as separate spans, and its `meta` event carries the campaign
/// configuration that `stats` prints.
#[test]
fn triage_metrics_split_campaign_and_triage_spans() {
    let dir = std::env::temp_dir().join("teapot-cli-triage-metrics-test");
    std::fs::remove_dir_all(&dir).ok();
    let inst = build_workload(&dir, "spectre-stl");
    let metrics = dir.join("m.jsonl");
    let (ok, text) = run_cli(&[
        "triage",
        inst.to_str().unwrap(),
        "--shards",
        "2",
        "--epochs",
        "2",
        "--iters",
        "40",
        "--workload",
        "spectre-stl",
        "--spec-models",
        "pht,stl",
        "--metrics",
        metrics.to_str().unwrap(),
    ]);
    assert!(ok, "{text}");
    let events: Vec<Value> = std::fs::read_to_string(&metrics)
        .unwrap()
        .lines()
        .map(|l| teapot_telemetry::json::parse(l).unwrap())
        .collect();
    let of_kind = |kind: &'static str| {
        let events = events.iter();
        events.filter(move |v| str_field(v, "event") == Some(kind))
    };
    let spans: Vec<&str> = of_kind("span")
        .filter_map(|v| str_field(v, "name"))
        .collect();
    assert_eq!(spans, ["campaign", "triage"]);
    let meta: Vec<&Value> = of_kind("meta").collect();
    assert_eq!(meta.len(), 1);
    assert_eq!(meta[0].get("shards").and_then(Value::as_u64), Some(2));
    assert_eq!(of_kind("triage").count(), 1);

    let (ok, text) = run_cli(&["stats", metrics.to_str().unwrap()]);
    assert!(ok, "{text}");
    assert!(
        text.contains("2 shard(s) x 2 epoch(s) x 40 iters/epoch"),
        "{text}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `explain` resolves a `.tcs` snapshot and a queue directory the way
/// `triage` does: a snapshot notes the campaign flags its own
/// configuration overrides, and a directory is campaigned and narrated.
#[test]
fn explain_accepts_a_snapshot_and_a_directory() {
    let dir = std::env::temp_dir().join("teapot-cli-explain-targets-test");
    std::fs::remove_dir_all(&dir).ok();
    let inst = build_workload(&dir, "spectre-stl");
    let queue = dir.join("queue");
    std::fs::create_dir_all(&queue).unwrap();
    std::fs::copy(&inst, queue.join("spectre-stl_inst.tof")).unwrap();
    let snap = dir.join("s.tcs");
    let budget = [
        "--shards",
        "2",
        "--epochs",
        "2",
        "--iters",
        "60",
        "--workload",
        "spectre-stl",
        "--spec-models",
        "pht,rsb,stl",
    ];
    let mut args = vec!["campaign", inst.to_str().unwrap(), "--no-triage"];
    args.extend(["--snapshot", snap.to_str().unwrap()]);
    args.extend(budget);
    let (ok, text) = run_cli(&args);
    assert!(ok, "{text}");

    let (ok, text) = run_cli(&[
        "explain",
        snap.to_str().unwrap(),
        "--bin",
        inst.to_str().unwrap(),
        "--shards",
        "9",
    ]);
    assert!(ok, "{text}");
    assert!(text.contains("--shards is ignored"), "{text}");
    assert!(text.contains("leaks input bytes 0-1"), "{text}");

    let mut args = vec!["explain", queue.to_str().unwrap()];
    args.extend(budget);
    let (ok, text) = run_cli(&args);
    assert!(ok, "{text}");
    let summary = text
        .lines()
        .find_map(|l| l.strip_prefix("explained "))
        .unwrap_or_else(|| panic!("{text}"));
    let (shown, total) = summary
        .strip_suffix(" root cause(s)")
        .and_then(|s| s.split_once(" of "))
        .unwrap_or_else(|| panic!("{text}"));
    assert_eq!(shown, total, "{text}");
    assert_ne!(shown, "0", "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

/// `--spectaint` selects SpecTaint's emulation *and* its five-tries
/// heuristic, as Table 3's SpecTaint runs; the `.tcs` records both.
#[test]
fn spectaint_flag_selects_spectaints_heuristic() {
    let dir = std::env::temp_dir().join("teapot-cli-spectaint-test");
    std::fs::remove_dir_all(&dir).ok();
    build_workload(&dir, "jsmn");
    let cots = dir.join("jsmn.tof");
    let snap = dir.join("s.tcs");
    let (ok, text) = run_cli(&[
        "campaign",
        cots.to_str().unwrap(),
        "--spectaint",
        "--shards",
        "1",
        "--epochs",
        "1",
        "--iters",
        "2",
        "--snapshot",
        snap.to_str().unwrap(),
        "--no-triage",
    ]);
    assert!(ok, "{text}");
    let loaded = teapot_campaign::CampaignSnapshot::load(&snap).unwrap();
    assert_eq!(loaded.config.emu, teapot_vm::EmuStyle::SpecTaint);
    assert_eq!(
        loaded.config.heur_style,
        teapot_vm::HeurStyle::SpecTaintFive
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// `campaign <dir> --metrics` writes the stream `triage <dir> --metrics`
/// does: `meta` with the campaign configuration, a `campaign` span, and
/// the `triage` span and event unless `--no-triage`.
#[test]
fn queue_campaign_writes_a_metrics_stream() {
    let dir = std::env::temp_dir().join("teapot-cli-queue-metrics-test");
    std::fs::remove_dir_all(&dir).ok();
    let inst = build_workload(&dir, "spectre-stl");
    let queue = dir.join("queue");
    std::fs::create_dir_all(&queue).unwrap();
    std::fs::copy(&inst, queue.join("spectre-stl_inst.tof")).unwrap();
    let metrics = dir.join("m.jsonl");
    let stream = |extra: &[&str]| {
        let mut args = vec![
            "campaign",
            queue.to_str().unwrap(),
            "--shards",
            "2",
            "--epochs",
            "1",
            "--iters",
            "20",
            "--workload",
            "spectre-stl",
            "--metrics",
            metrics.to_str().unwrap(),
        ];
        args.extend(extra);
        let (ok, text) = run_cli(&args);
        assert!(ok, "{text}");
        let events: Vec<Value> = std::fs::read_to_string(&metrics)
            .unwrap()
            .lines()
            .map(|l| teapot_telemetry::json::parse(l).unwrap())
            .collect();
        events
    };
    let kinds = |events: &[Value]| -> Vec<String> {
        events
            .iter()
            .map(|v| match str_field(v, "event") {
                Some("span") => format!("span {}", str_field(v, "name").unwrap()),
                kind => kind.unwrap().to_string(),
            })
            .collect()
    };

    let events = stream(&[]);
    assert_eq!(
        kinds(&events),
        ["meta", "span campaign", "span triage", "triage"]
    );
    assert_eq!(events[0].get("shards").and_then(Value::as_u64), Some(2));
    let events = stream(&["--no-triage"]);
    assert_eq!(kinds(&events), ["meta", "span campaign"]);

    // A queue still has no snapshot to resume or write.
    for name in ["--resume", "--snapshot"] {
        let args = ["campaign", queue.to_str().unwrap(), name, "x.tcs"];
        let (ok, text) = run_cli(&args);
        assert!(!ok, "{name}: {text}");
        assert!(text.contains("single-binary campaigns"), "{name}: {text}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
