//! Emits `BENCH_estimation.json`: measured cost of the fused correlation
//! kernel and throughput of the parallel Monte Carlo evaluation engine.
//!
//! ```text
//! cargo run -p bench --release --bin estimation_bench                 # full run
//! cargo run -p bench --release --bin estimation_bench -- --smoke     # CI-sized
//! cargo run -p bench --release --bin estimation_bench -- \
//!     --smoke --check BENCH_estimation.json                          # regression gate
//! ```
//!
//! `--check <baseline>` fails the process when a required key is missing
//! from the fresh measurement or the baseline, when the M=14 estimate (or
//! any batched `batch_estimate_ns_b*` figure) is more than 25 % slower
//! than the committed baseline, or when the amortized B=16 batched
//! estimate misses both the 1 µs target and the `estimate_m14_ns / 3`
//! fallback floor.
//! The parallel-efficiency floor (≥ 0.6× per core) is enforced only on
//! machines with ≥ 4 cores, since smaller hosts cannot exhibit the
//! scaling in the first place; a baseline recorded on a different core
//! count only triggers a warning, as its timings are indicative only.

use bench::{bench_patterns, BaselineCheck, Better};
use css::estimator::reference::ReferenceEstimator;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions, KernelPath};
use css::{BatchEstimator, BatchScratch};
use eval::engine;
use eval::estimation::estimation_error_par;
use eval::scenario::{EvalScenario, Fidelity};
use geom::rng::{sample_indices, sub_rng, sub_rng_indexed};
use std::hint::black_box;
use std::time::Instant;
use talon_channel::{Environment, Link, SweepReading};

/// The pre-optimization M=14 estimate cost on the original `Vec<Vec<f64>>`
/// kernel, ns (the `estimate_m14_ns` of the PR-2 `BENCH_obs.json`).
const PRECHANGE_ESTIMATE_M14_NS: f64 = 10648.03;

/// Keys every `BENCH_estimation.json` must carry (the `--check` contract).
const REQUIRED_KEYS: &[&str] = &[
    "estimate_m14_ns",
    "reference_estimate_m14_ns",
    "kernel_speedup",
    "speedup_vs_prechange",
    "batch_estimate_ns_b1",
    "batch_estimate_ns_b16",
    "batch_estimate_ns_b64",
    "eval_units",
    "eval_1t_ms",
    "eval_nt_ms",
    "eval_threads",
    "parallel_speedup",
    "parallel_efficiency",
    "cores",
];

/// Nanoseconds per call of `f`: best mean across 8 chunks, after a
/// warm-up pass. Shared or frequency-throttled hosts stall individual
/// stretches of a long timed loop by 20-40%; the fastest chunk is the
/// closest observable estimate of the kernel's true cost, and is what
/// regression checks should compare across runs.
fn time_ns(iters: u32, mut f: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        f();
    }
    let chunk = (iters / 8).max(1);
    let mut best = f64::INFINITY;
    let mut done = 0;
    while done < iters {
        let n = chunk.min(iters - done);
        let start = Instant::now();
        for _ in 0..n {
            f();
        }
        best = best.min(start.elapsed().as_nanos() as f64 / f64::from(n));
        done += n;
    }
    best
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_estimation.json".into());
    let check = args
        .iter()
        .position(|a| a == "--check")
        .and_then(|i| args.get(i + 1).cloned());

    obs::clear_sink();

    // ── Kernel: M=14 joint estimate on the 100-point coarse grid (the
    // same measurement `BENCH_obs.json` has always reported).
    let (patterns, dut, fixed) = bench_patterns(42);
    let link = Link::new(Environment::lab());
    let mut rng = sub_rng(42, "estimation-bench");
    let full = dut.codebook.sweep_order();
    let sweep = link.sweep(&mut rng, &dut, &full, &fixed);
    let readings: Vec<_> = sweep.iter().take(14).copied().collect();

    let kernel_iters = if smoke { 2_000 } else { 50_000 };
    let fused = CompressiveEstimator::new(&patterns, CorrelationMode::JointSnrRssi);
    let estimate_m14_ns = time_ns(kernel_iters, || {
        black_box(fused.estimate(black_box(&readings)));
    });
    let naive = ReferenceEstimator::new(&patterns, CorrelationMode::JointSnrRssi);
    let reference_estimate_m14_ns = time_ns(kernel_iters / 4, || {
        black_box(naive.estimate(black_box(&readings)));
    });
    let kernel_speedup = reference_estimate_m14_ns / estimate_m14_ns;
    let speedup_vs_prechange = PRECHANGE_ESTIMATE_M14_NS / estimate_m14_ns;

    // ── Batched kernel: B concurrent links through the GEMM-shaped
    // multi-link sweep, on the f32 path over the bench's dense 25×4 grid.
    // Reported amortized: ns per estimate, so the figures are directly
    // comparable to `estimate_m14_ns`.
    const MAX_B: usize = 64;
    let links_store: Vec<Vec<SweepReading>> = (0..MAX_B)
        .map(|i| {
            let mut lrng = sub_rng_indexed(42, "bench-batch-links", i as u64);
            sample_indices(&mut lrng, sweep.len(), 14)
                .into_iter()
                .map(|j| sweep[j])
                .collect()
        })
        .collect();
    let batched = BatchEstimator::new(
        &patterns,
        CorrelationMode::JointSnrRssi,
        EstimatorOptions {
            kernel_path: KernelPath::F32,
            ..EstimatorOptions::default()
        },
    );
    let mut bscratch = BatchScratch::new();
    let mut bout = Vec::new();
    let mut bench_batch = |b: usize| -> f64 {
        let links: Vec<&[SweepReading]> = links_store[..b].iter().map(Vec::as_slice).collect();
        let iters = (kernel_iters / b as u32).max(100);
        let per_sweep = time_ns(iters, || {
            batched.estimate_batch_into(&mut bscratch, black_box(&links), &mut bout);
            black_box(&bout);
        });
        per_sweep / b as f64
    };
    let batch_estimate_ns_b1 = bench_batch(1);
    let batch_estimate_ns_b16 = bench_batch(16);
    let batch_estimate_ns_b64 = bench_batch(MAX_B);

    // ── Engine: Fig. 7 Monte Carlo on 1 thread vs all cores. The result
    // is bit-identical either way (see eval::engine); only time differs.
    let eval_seed = 4242;
    let mut scenario = EvalScenario::conference_room(Fidelity::Fast, eval_seed);
    let data = scenario.record(eval_seed);
    let (m_values, draws) = if smoke {
        (vec![6usize, 14], 4)
    } else {
        (vec![6usize, 10, 14, 18, 24, 30], 16)
    };
    let n_sweeps: usize = data.positions.iter().map(|p| p.sweeps.len()).sum();
    let eval_units = m_values.len() * n_sweeps * draws;
    let threads = engine::default_threads();

    let t0 = Instant::now();
    let r1 = estimation_error_par(&data, &scenario.patterns, &m_values, draws, eval_seed, 1);
    let eval_1t_ms = t0.elapsed().as_secs_f64() * 1e3;
    let tn = Instant::now();
    let rn = estimation_error_par(
        &data,
        &scenario.patterns,
        &m_values,
        draws,
        eval_seed,
        threads,
    );
    let eval_nt_ms = tn.elapsed().as_secs_f64() * 1e3;
    assert_eq!(
        format!("{r1:?}"),
        format!("{rn:?}"),
        "parallel eval must be bit-identical to sequential"
    );
    let parallel_speedup = eval_1t_ms / eval_nt_ms;
    let parallel_efficiency = parallel_speedup / threads as f64;
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let json = format!(
        "{{\n  \"estimate_m14_ns\": {estimate_m14_ns:.2},\n  \
         \"reference_estimate_m14_ns\": {reference_estimate_m14_ns:.2},\n  \
         \"kernel_speedup\": {kernel_speedup:.2},\n  \
         \"speedup_vs_prechange\": {speedup_vs_prechange:.2},\n  \
         \"batch_estimate_ns_b1\": {batch_estimate_ns_b1:.2},\n  \
         \"batch_estimate_ns_b16\": {batch_estimate_ns_b16:.2},\n  \
         \"batch_estimate_ns_b64\": {batch_estimate_ns_b64:.2},\n  \
         \"eval_units\": {eval_units},\n  \
         \"eval_1t_ms\": {eval_1t_ms:.2},\n  \
         \"eval_nt_ms\": {eval_nt_ms:.2},\n  \
         \"eval_threads\": {threads},\n  \
         \"parallel_speedup\": {parallel_speedup:.2},\n  \
         \"parallel_efficiency\": {parallel_efficiency:.2},\n  \
         \"cores\": {cores},\n  \
         \"smoke\": {smoke}\n}}\n"
    );
    // Read the baseline before writing `out`: without `--out` they are the
    // same file, and the check would compare the run with itself.
    let check = check.map(|path| (BaselineCheck::read(&path, &json, REQUIRED_KEYS), path));
    std::fs::write(&out, &json).expect("write BENCH_estimation.json");
    println!("{json}");
    println!("wrote {out}");

    if let Some((mut check, baseline_path)) = check {
        for key in [
            "estimate_m14_ns",
            "batch_estimate_ns_b1",
            "batch_estimate_ns_b16",
            "batch_estimate_ns_b64",
        ] {
            check.bound(key, Better::Lower, 0.25);
        }
        // Amortized batched floor: sub-µs per estimate at B=16; hosts too
        // slow for the absolute target must still beat the scalar kernel
        // by 3× (same workload, so the ratio is hardware-independent).
        if batch_estimate_ns_b16 > 1_000.0 && batch_estimate_ns_b16 > estimate_m14_ns / 3.0 {
            check.fail(format!(
                "B=16 batched estimate {batch_estimate_ns_b16:.0} ns misses both the \
                 1000 ns target and the estimate_m14_ns/3 floor ({:.0} ns)",
                estimate_m14_ns / 3.0
            ));
        }
        let base_cores = check.baseline("cores");
        if let Some(base_cores) = base_cores {
            if (base_cores - cores as f64).abs() > 0.5 {
                println!(
                    "warning: baseline {baseline_path} was recorded on {base_cores:.0} core(s) \
                     but this machine has {cores} — timing comparisons are indicative only"
                );
            }
        }
        // A baseline recorded on a 1-core host carries no parallel signal
        // (its speedup/efficiency are ~1.0 by construction), so comparing
        // against it would flag every multi-core run. Skip the parallel
        // comparison then; the host-side efficiency floor still applies.
        if base_cores.is_none_or(|c| c > 1.0) {
            if threads > 1 {
                check.bound("parallel_speedup", Better::Higher, 0.25);
            }
        } else {
            println!(
                "note: baseline {baseline_path} was recorded with cores: 1 — \
                 skipping the parallel-key regression comparison"
            );
        }
        if cores >= 4 && parallel_efficiency < 0.6 {
            check.fail(format!(
                "parallel efficiency {parallel_efficiency:.2} below the 0.6×/core floor \
                 on a {cores}-core host"
            ));
        }
        check.exit_on_failure("BENCH_estimation");
    }
}
