//! End-to-end CLI smoke tests driving the built `teapot` binary the way
//! the paper artifact's scripts drive its tools.

use std::path::PathBuf;
use std::process::Command;

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
