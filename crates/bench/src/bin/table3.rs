//! Regenerates Table 3: artificial-gadget detection scores. Exits 1
//! when the rows break the paper's shape (`table3::shape_breaks`).
fn main() {
    let iters = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(400);
    println!("Table 3: artificially injected gadgets ({iters} fuzz iters/tool)\n");
    let rows = teapot_bench::table3::run(iters);
    println!("{}", teapot_bench::table3::render(&rows));
    let breaks = teapot_bench::table3::shape_breaks(&rows);
    for b in &breaks {
        eprintln!("table3: shape broken: {b}");
    }
    if !breaks.is_empty() {
        std::process::exit(1);
    }
}
