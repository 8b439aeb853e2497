//! VM hot-path microbenchmark: raw guest loads/stores per second on a
//! memcpy + checksum kernel, isolating the memory subsystem (flat
//! region-backed slab + software TLB + chunked accessors) from the
//! fuzzing pipeline around it. Writes `BENCH_vmhot.json`; the CI smoke
//! step enforces a `TEAPOT_SMOKE_MIN_MOPS` floor on it so a regression
//! back toward the per-byte-hashmap design fails loudly.

use std::time::Instant;
use teapot_cc::{compile_to_binary, Options};
use teapot_vm::{
    DispatchTier, ExecContext, ExitStatus, Machine, Program, RunOptions, SpecHeuristics,
};

/// Bytes the kernel streams per pass (two arrays of this size).
pub const BUF: usize = 2048;

/// The guest kernel: copy `src` into `dst` byte-by-byte, then checksum
/// `dst`, `passes` times. Data traffic per run: `3 * n * passes`
/// architectural loads+stores (copy load + copy store + checksum load);
/// loop bookkeeping in registers/stack is not counted.
fn kernel_source(passes: u32) -> String {
    format!(
        r#"
char src[{BUF}];
char dst[{BUF}];

int main(void) {{
    int n = input_size();
    if (n > {BUF}) {{ n = {BUF}; }}
    read_input(src, n);
    int sum = 0;
    int pass = 0;
    while (pass < {passes}) {{
        int i = 0;
        while (i < n) {{ dst[i] = src[i]; i++; }}
        i = 0;
        while (i < n) {{ sum = sum + dst[i]; i++; }}
        pass++;
    }}
    print_int(sum);
    return 0;
}}
"#
    )
}

/// One measurement of the memcpy/checksum kernel.
///
/// With `reps > 1` the whole `runs`-run loop is timed `reps` times and
/// the headline values (`secs`, `mops_per_sec`, `minsts_per_sec`) are
/// the **median** over repetitions — single timed passes on a noisy
/// 1-CPU container are not reproducible. The `*_min` fields report the
/// per-metric minimum over repetitions, bounding the spread.
#[derive(Debug, Clone)]
pub struct VmhotResult {
    /// Copy/checksum passes per run.
    pub passes: u32,
    /// Runs executed (pooled `ExecContext`, reset between runs).
    pub runs: u32,
    /// Timed repetitions of the whole run loop.
    pub reps: u32,
    /// Input bytes streamed per pass.
    pub bytes: usize,
    /// Counted guest data loads+stores across all runs (one rep).
    pub mem_ops: u64,
    /// Executed instructions across all runs (architectural total, one
    /// rep — identical across reps by VM determinism).
    pub insts: u64,
    /// Wall-clock seconds (median over reps).
    pub secs: f64,
    /// Fastest repetition's wall-clock seconds.
    pub secs_min: f64,
    /// Counted data loads+stores per second, in millions (median).
    pub mops_per_sec: f64,
    /// Slowest repetition's data-op throughput, in millions.
    pub mops_per_sec_min: f64,
    /// Executed instructions per second, in millions (median).
    pub minsts_per_sec: f64,
    /// Slowest repetition's instruction throughput, in millions.
    pub minsts_per_sec_min: f64,
    /// Once-per-binary `Program` build time (decode + template
    /// compilation), in milliseconds — the cost the compiled tier
    /// amortizes over every run.
    pub compile_ms: f64,
    /// Instruction throughput per forced dispatch tier, in millions
    /// (median / slowest rep). `minsts_per_sec` above is the default
    /// (compiled) tier and equals `minsts_per_sec_compiled`.
    pub minsts_per_sec_interp: f64,
    pub minsts_per_sec_interp_min: f64,
    pub minsts_per_sec_compiled: f64,
    pub minsts_per_sec_compiled_min: f64,
}

/// Median of a sample (mean of the middle pair for even sizes).
pub(crate) fn median(xs: &[f64]) -> f64 {
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Runs the kernel `runs` times with `passes` passes each on one pooled
/// context and reports data-op throughput (single repetition).
///
/// # Panics
///
/// Panics if the kernel does not compile or a run exits abnormally
/// (both would be harness bugs, not measurements).
pub fn run(passes: u32, runs: u32) -> VmhotResult {
    run_reps(passes, runs, 1)
}

/// [`run`] timed `reps` times; headline numbers are the median over the
/// default (compiled) dispatch tier. Every tier is additionally timed
/// with the same runs/reps for the per-tier rows; each tier gets a
/// fresh heuristics state so both measurements execute identical run
/// sequences (asserted via the architectural instruction total).
pub fn run_reps(passes: u32, runs: u32, reps: u32) -> VmhotResult {
    assert!(reps >= 1, "at least one repetition");
    let src = kernel_source(passes);
    let mut bin = compile_to_binary(&src, &Options::gcc_like()).expect("vmhot kernel compiles");
    bin.strip();
    let build_start = Instant::now();
    let prog = Program::shared(&bin);
    let compile_ms = build_start.elapsed().as_secs_f64() * 1e3;
    let mut ctx = ExecContext::new(&prog);
    let input: Vec<u8> = (0..BUF).map(|i| (i * 31 + 7) as u8).collect();

    let mut measure = |tier: DispatchTier| -> (u64, Vec<f64>) {
        let mut heur = SpecHeuristics::default();
        let mut insts = 0u64;
        let mut rep_secs = Vec::new();
        for rep in 0..reps {
            let mut rep_insts = 0u64;
            let start = Instant::now();
            for _ in 0..runs {
                let opts = RunOptions {
                    input: input.clone(),
                    ..RunOptions::default()
                };
                let mut m = Machine::with_context(&prog, &mut ctx, opts);
                m.set_dispatch_tier(tier);
                let stats = m.run_stats(&mut heur);
                assert_eq!(
                    stats.status,
                    ExitStatus::Exit(0),
                    "vmhot kernel must exit cleanly"
                );
                rep_insts += stats.insts;
            }
            rep_secs.push(start.elapsed().as_secs_f64());
            if rep == 0 {
                insts = rep_insts;
            } else {
                assert_eq!(insts, rep_insts, "vmhot kernel must be deterministic");
            }
        }
        (insts, rep_secs)
    };

    let (step_insts, step_secs) = measure(DispatchTier::Step);
    let (insts, rep_secs) = measure(DispatchTier::Compiled);
    assert_eq!(
        insts, step_insts,
        "dispatch tiers must retire identical instruction totals"
    );

    let mem_ops = 3 * BUF as u64 * passes as u64 * runs as u64;
    let rate = |secs: &[f64]| -> Vec<f64> {
        secs.iter()
            .map(|s| insts as f64 / s.max(1e-9) / 1e6)
            .collect()
    };
    let mops: Vec<f64> = rep_secs
        .iter()
        .map(|s| mem_ops as f64 / s.max(1e-9) / 1e6)
        .collect();
    let minsts = rate(&rep_secs);
    let minsts_step = rate(&step_secs);
    let min = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    VmhotResult {
        passes,
        runs,
        reps,
        bytes: BUF,
        mem_ops,
        insts,
        secs: median(&rep_secs),
        secs_min: min(&rep_secs),
        mops_per_sec: median(&mops),
        mops_per_sec_min: min(&mops),
        minsts_per_sec: median(&minsts),
        minsts_per_sec_min: min(&minsts),
        compile_ms,
        minsts_per_sec_interp: median(&minsts_step),
        minsts_per_sec_interp_min: min(&minsts_step),
        minsts_per_sec_compiled: median(&minsts),
        minsts_per_sec_compiled_min: min(&minsts),
    }
}

/// Renders the result as an aligned text table (median values), plus a
/// spread line when more than one repetition was timed.
pub fn render(r: &VmhotResult) -> String {
    let mut out = crate::render_table(
        &[
            "passes",
            "runs",
            "reps",
            "bytes",
            "mem ops",
            "secs",
            "Mops/sec",
            "Minsts/sec",
        ],
        &[vec![
            r.passes.to_string(),
            r.runs.to_string(),
            r.reps.to_string(),
            r.bytes.to_string(),
            r.mem_ops.to_string(),
            format!("{:.3}", r.secs),
            format!("{:.1}", r.mops_per_sec),
            format!("{:.1}", r.minsts_per_sec),
        ]],
    );
    if r.reps > 1 {
        out.push_str(&format!(
            "spread over {} reps: fastest {:.3}s, slowest {:.1} Mops/sec \
             ({:.1} Minsts/sec)\n",
            r.reps, r.secs_min, r.mops_per_sec_min, r.minsts_per_sec_min
        ));
    }
    out.push_str(&format!(
        "tiers (Minsts/sec, median): step {:.1}, compiled {:.1}; \
         program build {:.1} ms\n",
        r.minsts_per_sec_interp, r.minsts_per_sec_compiled, r.compile_ms
    ));
    out
}

/// Deterministic JSON rendering for `BENCH_vmhot.json`. The unsuffixed
/// timing keys are medians over `reps` (so existing consumers read the
/// robust value); `_min`/`_median` spell the aggregation out.
pub fn render_json(r: &VmhotResult) -> String {
    format!(
        "{{\n  \"workload\": \"vmhot\",\n  \"passes\": {},\n  \"runs\": {},\n  \
         \"reps\": {},\n  \
         \"bytes_per_pass\": {},\n  \"mem_ops\": {},\n  \"insts\": {},\n  \
         \"compile_ms\": {:.2},\n  \
         \"secs\": {:.4},\n  \"secs_min\": {:.4},\n  \"secs_median\": {:.4},\n  \
         \"mops_per_sec\": {:.2},\n  \"mops_per_sec_min\": {:.2},\n  \
         \"mops_per_sec_median\": {:.2},\n  \
         \"minsts_per_sec\": {:.2},\n  \"minsts_per_sec_min\": {:.2},\n  \
         \"minsts_per_sec_median\": {:.2},\n  \
         \"minsts_per_sec_interp\": {:.2},\n  \"minsts_per_sec_interp_min\": {:.2},\n  \
         \"minsts_per_sec_compiled\": {:.2},\n  \"minsts_per_sec_compiled_min\": {:.2}\n}}\n",
        r.passes,
        r.runs,
        r.reps,
        r.bytes,
        r.mem_ops,
        r.insts,
        r.compile_ms,
        r.secs,
        r.secs_min,
        r.secs,
        r.mops_per_sec,
        r.mops_per_sec_min,
        r.mops_per_sec,
        r.minsts_per_sec,
        r.minsts_per_sec_min,
        r.minsts_per_sec,
        r.minsts_per_sec_interp,
        r.minsts_per_sec_interp_min,
        r.minsts_per_sec_compiled,
        r.minsts_per_sec_compiled_min
    )
}
