//! The reproduction keeps Figure 7's shape on all five programs: the
//! SpecTaint-style emulator costs at least 10x Teapot where it runs
//! (jsmn and libyaml, as in the paper), and Teapot costs more than the
//! SpecFuzz-style baseline but less than twice as much. The costs come
//! from the deterministic cost model, so every run gives the same
//! ratios (at this writing: SpecTaint/Teapot 19.7x and 18.8x,
//! Teapot/SpecFuzz 1.29-1.74).

#[test]
fn fig7_costs_keep_the_paper_shape() {
    let names = ["jsmn", "libyaml", "libhtp", "brotli", "openssl"];
    let rows = teapot_bench::runtime::run(&names);
    assert_eq!(rows.len(), names.len());
    for r in &rows {
        let ratio = r.teapot / r.specfuzz;
        assert!(
            1.0 < ratio && ratio < 2.0,
            "{}: Teapot/SpecFuzz {ratio:.2} outside (1, 2)",
            r.name
        );
        let emulated = matches!(r.name.as_str(), "jsmn" | "libyaml");
        assert_eq!(r.spectaint.is_some(), emulated, "{}", r.name);
        if let Some(spectaint) = r.spectaint {
            assert!(
                spectaint >= 10.0 * r.teapot,
                "{}: SpecTaint {spectaint:.0}x is under 10x Teapot's {:.0}x",
                r.name,
                r.teapot
            );
        }
    }
}
