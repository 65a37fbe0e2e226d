//! Golden-equivalence for the GEMM-shaped batched estimator
//! (`css::batch`) against the scalar fused kernel:
//!
//! * the `F64` batch path must match the scalar estimator to ≤ 1e-12 on
//!   scores for every link of every batch, and agree on the argmax up to
//!   exact plateau ties (the report-floor clip of the gain matrix makes
//!   distant cells mathematically identical when only one probed sector
//!   survives the clip — rounding, not logic, picks among them);
//! * the reduced-precision `F32`/`Q15` paths must stay within their
//!   documented tolerances and agree with the f64 argmax (same winning
//!   cell, same selected sector) at the configured rates over 1 000
//!   seeded beam-pattern scenarios;
//! * the 1-, 4- and 8-lane inner kernels must be bit-identical;
//! * batch composition (alone vs inside a larger batch) must not change
//!   any link's bits — the property the deterministic parallel engine
//!   relies on;
//! * the scalar `CompressiveEstimator` dispatch for non-F64 kernel paths
//!   must agree with a directly-built `BatchEstimator`.

use chamber::SectorPatterns;
use css::estimator::{
    top_cells, CompressiveEstimator, CorrelationMode, EstimatorOptions, KernelPath,
};
use css::{BatchEstimator, BatchScratch, CompressiveSelection, CssConfig};
use geom::rng::sub_rng;
use geom::sphere::{Direction, GridSpec, SphericalGrid};
use rand::rngs::StdRng;
use rand::Rng;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

const TOL: f64 = 1e-12;

/// A pattern store with random geometry and fully random gains. Under the
/// −7 dB report-floor clip this is deliberately pathological: many cells
/// keep only one unclipped probed sector, which produces exact
/// correlation plateaus — the hardest case for argmax agreement.
fn random_store(rng: &mut StdRng) -> SectorPatterns {
    let az_step = [2.0, 3.0, 7.5][rng.gen_range(0..3usize)];
    let el = if rng.gen_bool(0.5) {
        GridSpec::fixed(0.0)
    } else {
        GridSpec::new(0.0, 30.0, 10.0)
    };
    let grid = SphericalGrid::new(GridSpec::new(-60.0, 60.0, az_step), el);
    let n_sectors = rng.gen_range(3..=20);
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..n_sectors {
        let gains: Vec<f64> = (0..grid.len())
            .map(|_| rng.gen_range(-30.0..15.0))
            .collect();
        store.insert(
            SectorId(s as u8 + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

/// Random readings over a random probe subset: some masked, some for
/// sectors the store has never measured.
fn random_readings(rng: &mut StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
    let ids = store.sector_ids();
    let m = rng.gen_range(0..=ids.len());
    let subset = geom::rng::sample_indices(rng, ids.len(), m);
    let mut readings: Vec<SweepReading> = subset
        .into_iter()
        .map(|i| {
            let measurement = if rng.gen_bool(0.25) {
                None
            } else {
                let snr = rng.gen_range(-7.0..25.0);
                Some(Measurement {
                    snr_db: snr,
                    rssi_dbm: snr - 65.0 + rng.gen_range(-3.0..3.0),
                })
            };
            SweepReading {
                sector: ids[i],
                measurement,
            }
        })
        .collect();
    if rng.gen_bool(0.3) {
        readings.push(SweepReading {
            sector: SectorId(200),
            measurement: Some(Measurement {
                snr_db: 10.0,
                rssi_dbm: -55.0,
            }),
        });
    }
    readings
}

/// A realistic store: directional lobes with random centers, widths and
/// ripple, like the chamber-measured Talon patterns. Correlation maps
/// over these are smooth with a dominant peak, so argmax agreement is a
/// meaningful metric (no exact plateaus).
fn beam_store(rng: &mut StdRng) -> SectorPatterns {
    let az_step = [2.0, 3.0][rng.gen_range(0..2usize)];
    let el = if rng.gen_bool(0.5) {
        GridSpec::fixed(0.0)
    } else {
        GridSpec::new(0.0, 30.0, 10.0)
    };
    beam_store_on(
        rng,
        SphericalGrid::new(GridSpec::new(-60.0, 60.0, az_step), el),
    )
}

fn beam_store_on(rng: &mut StdRng, grid: SphericalGrid) -> SectorPatterns {
    let n_sectors = rng.gen_range(6..=16);
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..n_sectors {
        let az0 = rng.gen_range(-55.0..55.0);
        let el0 = rng.gen_range(0.0..30.0);
        let width = rng.gen_range(60.0..160.0);
        let peak = rng.gen_range(5.0..15.0);
        let gains: Vec<f64> = grid
            .iter()
            .map(|(_, d)| {
                let da = d.az_deg - az0;
                let de = d.el_deg - el0;
                peak - (da * da + 0.5 * de * de) / width + rng.gen_range(-1.0..1.0)
            })
            .collect();
        store.insert(
            SectorId(s as u8 + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

/// Readings consistent with a hidden source direction: each probed
/// sector reads its pattern gain at the truth minus a common path loss,
/// plus noise; weak sectors are sometimes reported as masked. Retries
/// until at least four probes carry a measurement — fewer usable probes
/// leave the correlation map multi-modal with knife-edge argmaxes, which
/// measures tie-breaking luck rather than kernel precision.
fn beam_readings(rng: &mut StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
    loop {
        let readings = beam_readings_once(rng, store);
        if readings.iter().filter(|r| r.measurement.is_some()).count() >= 4 {
            return readings;
        }
    }
}

fn beam_readings_once(rng: &mut StdRng, store: &SectorPatterns) -> Vec<SweepReading> {
    let ids = store.sector_ids();
    let truth = Direction::new(rng.gen_range(-55.0..55.0), rng.gen_range(0.0..30.0));
    let m = rng.gen_range(4..=ids.len());
    let subset = geom::rng::sample_indices(rng, ids.len(), m);
    let path_loss = rng.gen_range(0.0..8.0);
    subset
        .into_iter()
        .map(|i| {
            let gain = store
                .get(ids[i])
                .expect("id from store")
                .gain_interp(&truth);
            let snr = gain - path_loss + rng.gen_range(-1.0..1.0);
            let measurement = if snr < -7.0 && rng.gen_bool(0.5) {
                None
            } else {
                Some(Measurement {
                    snr_db: snr,
                    rssi_dbm: snr - 65.0 + rng.gen_range(-0.5..0.5),
                })
            };
            SweepReading {
                sector: ids[i],
                measurement,
            }
        })
        .collect()
}

fn options_for(path: KernelPath, variant: usize) -> EstimatorOptions {
    EstimatorOptions {
        energy_prior: variant.is_multiple_of(2),
        smoothing: variant % 4 < 2,
        subcell_refinement: !variant.is_multiple_of(3),
        kernel_path: path,
    }
}

#[test]
fn f64_batch_matches_scalar_estimator() {
    let mut rng = sub_rng(3101, "batch-golden-f64");
    let mut nontrivial = 0usize;
    let mut plateau_ties = 0usize;
    for trial in 0..40 {
        let store = random_store(&mut rng);
        let links_store: Vec<Vec<SweepReading>> =
            (0..7).map(|_| random_readings(&mut rng, &store)).collect();
        let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
        for mode in [CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi] {
            let options = options_for(KernelPath::F64, trial);
            let scalar = CompressiveEstimator::new(&store, mode).with_options(options);
            let batch = BatchEstimator::new(&store, mode, options);
            let mut scratch = BatchScratch::new();
            let got = batch.estimate_batch(&mut scratch, &links);
            assert_eq!(got.len(), links.len());
            for (b, readings) in links_store.iter().enumerate() {
                let want = scalar.estimate(readings);
                let ctx = format!("trial {trial}, mode {mode:?}, link {b}");
                match (got[b], want) {
                    (None, None) => {}
                    (Some(e), Some((dir, score))) => {
                        nontrivial += 1;
                        assert!(
                            (e.score - score).abs() <= TOL,
                            "{ctx}: scores diverge: {} vs {score}",
                            e.score
                        );
                        let same_dir = (e.direction.az_deg - dir.az_deg).abs() <= 1e-6
                            && (e.direction.el_deg - dir.el_deg).abs() <= 1e-6;
                        if !same_dir {
                            // The clipped gain matrix can make distant
                            // cells mathematically identical (exact
                            // plateau). The two kernels round `w`
                            // differently — uv²/(uu·vv) vs
                            // (uv/(√uu·√vv))² — so each may land on a
                            // different plateau member. Accept the
                            // disagreement iff the batch's cell sits on
                            // the scalar map's 1e-12 plateau.
                            let smap = scalar.correlation_map(readings);
                            let best = smap.iter().copied().fold(0.0, f64::max);
                            assert!(
                                smap[e.cell] >= best - TOL,
                                "{ctx}: batch argmax {} is not on the scalar plateau \
                                 ({} vs best {best}); scalar dir {dir}, batch {}",
                                e.cell,
                                smap[e.cell],
                                e.direction
                            );
                            plateau_ties += 1;
                        }
                    }
                    (a, b) => panic!("{ctx}: one path degenerate: batch {a:?} vs scalar {b:?}"),
                }
            }
        }
    }
    assert!(
        nontrivial >= 150,
        "randomization produced only {nontrivial} non-degenerate estimates"
    );
    assert!(
        plateau_ties * 4 <= nontrivial,
        "plateau ties should be the exception: {plateau_ties}/{nontrivial}"
    );
}

/// Measured agreement of one reduced-precision path against the f64
/// reference over many seeded beam-pattern scenarios, at the deployment
/// options (energy prior + smoothing + sub-cell refinement).
struct Agreement {
    compared: usize,
    same_presence: usize,
    same_cell: usize,
    same_sector: usize,
    max_score_err_same_cell: f64,
}

fn measure_agreement(path: KernelPath, scenarios: usize) -> Agreement {
    let mut rng = sub_rng(777, "batch-golden-quantized");
    let mut agg = Agreement {
        compared: 0,
        same_presence: 0,
        same_cell: 0,
        same_sector: 0,
        max_score_err_same_cell: 0.0,
    };
    for _ in 0..scenarios {
        let store = beam_store(&mut rng);
        let readings = beam_readings(&mut rng, &store);
        let opts64 = EstimatorOptions::default();
        let optsq = EstimatorOptions {
            kernel_path: path,
            ..opts64
        };
        let golden = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, opts64);
        let quant = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, optsq);
        let mut scratch = BatchScratch::new();
        let a = golden.estimate_batch(&mut scratch, &[&readings])[0];
        let b = quant.estimate_batch(&mut scratch, &[&readings])[0];
        agg.compared += 1;
        if a.is_some() != b.is_some() {
            continue;
        }
        agg.same_presence += 1;
        let (Some(a), Some(b)) = (a, b) else { continue };
        if a.cell == b.cell {
            agg.same_cell += 1;
            agg.max_score_err_same_cell =
                agg.max_score_err_same_cell.max((a.score - b.score).abs());
        }
        if store.best_sector_at(&a.direction) == store.best_sector_at(&b.direction) {
            agg.same_sector += 1;
        }
    }
    println!(
        "{path:?}: compared {}, presence {}, cell {}, sector {}, max score err {:.3e}",
        agg.compared,
        agg.same_presence,
        agg.same_cell,
        agg.same_sector,
        agg.max_score_err_same_cell
    );
    agg
}

#[test]
fn f32_path_agrees_with_f64_within_documented_tolerance() {
    // Documented contract (DESIGN.md "Batched estimation & precision
    // modes"): the f32 path reproduces the f64 winning cell in ≥ 99 % of
    // scenarios, selects the same sector in ≥ 99 %, and same-cell scores
    // agree to ≤ 1e-4.
    let agg = measure_agreement(KernelPath::F32, 1_000);
    assert_eq!(agg.same_presence, agg.compared, "degeneracy must agree");
    assert!(
        agg.same_cell as f64 >= 0.99 * agg.compared as f64,
        "f32 argmax agreement too low: {}/{}",
        agg.same_cell,
        agg.compared
    );
    assert!(
        agg.same_sector as f64 >= 0.99 * agg.compared as f64,
        "f32 sector agreement too low: {}/{}",
        agg.same_sector,
        agg.compared
    );
    assert!(
        agg.max_score_err_same_cell <= 1e-4,
        "f32 same-cell score error {} above 1e-4",
        agg.max_score_err_same_cell
    );
}

#[test]
fn q15_path_agrees_with_f64_within_documented_tolerance() {
    // Documented contract: quarter-dB fixed point reproduces the f64
    // winning cell in ≥ 92 % of scenarios (the ~6 % it moves are almost
    // always one-cell shifts) and the selected sector in ≥ 97 %;
    // same-cell scores agree to ≤ 0.05 (the correlation weights live in
    // [0, 1]).
    let agg = measure_agreement(KernelPath::Q15, 1_000);
    assert!(
        agg.same_presence as f64 >= 0.99 * agg.compared as f64,
        "q15 degeneracy agreement too low: {}/{}",
        agg.same_presence,
        agg.compared
    );
    assert!(
        agg.same_cell as f64 >= 0.92 * agg.compared as f64,
        "q15 argmax agreement too low: {}/{}",
        agg.same_cell,
        agg.compared
    );
    assert!(
        agg.same_sector as f64 >= 0.97 * agg.compared as f64,
        "q15 sector agreement too low: {}/{}",
        agg.same_sector,
        agg.compared
    );
    assert!(
        agg.max_score_err_same_cell <= 0.05,
        "q15 same-cell score error {} above 0.05",
        agg.max_score_err_same_cell
    );
}

#[test]
fn lane_widths_are_bit_identical() {
    let mut rng = sub_rng(515, "batch-golden-lanes");
    for trial in 0..20 {
        let store = random_store(&mut rng);
        // 13 links exercises the 8-, 4- and 1-lane kernels in one sweep.
        let links_store: Vec<Vec<SweepReading>> =
            (0..13).map(|_| random_readings(&mut rng, &store)).collect();
        let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
        for path in [KernelPath::F64, KernelPath::F32, KernelPath::Q15] {
            let options = options_for(path, trial);
            let mut scratch = BatchScratch::new();
            let runs: Vec<_> = [None, Some(1), Some(4), Some(8)]
                .into_iter()
                .map(|lanes| {
                    BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options)
                        .with_forced_lanes(lanes)
                        .estimate_batch(&mut scratch, &links)
                })
                .collect();
            for other in &runs[1..] {
                for (b, (a, o)) in runs[0].iter().zip(other).enumerate() {
                    let ctx = format!("trial {trial}, path {path:?}, link {b}");
                    match (a, o) {
                        (None, None) => {}
                        (Some(a), Some(o)) => {
                            assert_eq!(
                                a.score.to_bits(),
                                o.score.to_bits(),
                                "{ctx}: lane width changed the score"
                            );
                            assert_eq!(
                                (a.direction.az_deg.to_bits(), a.direction.el_deg.to_bits()),
                                (o.direction.az_deg.to_bits(), o.direction.el_deg.to_bits()),
                                "{ctx}: lane width changed the direction"
                            );
                            assert_eq!(a.cell, o.cell, "{ctx}: lane width changed the argmax");
                        }
                        (a, o) => panic!("{ctx}: lane width changed degeneracy: {a:?} vs {o:?}"),
                    }
                }
            }
        }
    }
}

#[test]
fn batch_composition_does_not_change_any_link() {
    // Link b's column depends only on its own panel column: estimating a
    // link alone, or inside any batch, at any position, must be
    // bit-identical. This is what makes the batched eval engine
    // thread-count-invariant.
    let mut rng = sub_rng(616, "batch-golden-composition");
    let store = random_store(&mut rng);
    let links_store: Vec<Vec<SweepReading>> =
        (0..16).map(|_| random_readings(&mut rng, &store)).collect();
    let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
    for path in [KernelPath::F64, KernelPath::F32, KernelPath::Q15] {
        let options = options_for(path, 0);
        let est = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options);
        let mut scratch = BatchScratch::new();
        let whole = est.estimate_batch(&mut scratch, &links);
        for (b, link) in links.iter().enumerate() {
            let alone = est.estimate_batch(&mut scratch, &[link])[0];
            assert_eq!(alone, whole[b], "path {path:?}, link {b}: alone vs batched");
        }
        // A shuffled sub-batch sees the same per-link numbers.
        let sub: Vec<&[SweepReading]> = vec![links[9], links[2], links[14]];
        let sub_out = est.estimate_batch(&mut scratch, &sub);
        assert_eq!(sub_out[0], whole[9], "path {path:?}");
        assert_eq!(sub_out[1], whole[2], "path {path:?}");
        assert_eq!(sub_out[2], whole[14], "path {path:?}");
    }
}

#[test]
fn scalar_dispatch_routes_quantized_paths_through_the_batch_kernel() {
    let mut rng = sub_rng(717, "batch-golden-dispatch");
    for trial in 0..15 {
        let store = random_store(&mut rng);
        let readings = random_readings(&mut rng, &store);
        for path in [KernelPath::F32, KernelPath::Q15] {
            let options = options_for(path, trial);
            let scalar = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi)
                .with_options(options);
            let batch = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options);
            let via_scalar = scalar.estimate(&readings);
            let direct = batch
                .estimate_one(&readings)
                .map(|e| (e.direction, e.score));
            assert_eq!(
                via_scalar, direct,
                "trial {trial}, path {path:?}: scalar dispatch diverged"
            );
        }
    }
}

#[test]
fn reduced_precision_decisions_record_the_closure_of_the_kernel_that_decided() {
    // A decision on the f32 / q15 path is made by the batched kernel; its
    // record must carry that kernel's closure (probe values as the path
    // quantized them, its final map's top cells, its energy normalizer),
    // not the closure of a hidden f64 re-run.
    let _guard = obs::testing::lock();
    let mut rng = sub_rng(818, "batch-golden-recorded");
    let mode = CorrelationMode::JointSnrRssi;
    for (path, energy_rel_tol) in [(KernelPath::F32, 1e-5), (KernelPath::Q15, 2e-2)] {
        let narrow = |v: f64| match path {
            KernelPath::F32 => f64::from(v as f32),
            _ => (v * 4.0).round() / 4.0,
        };
        let mut differs_from_f64 = false;
        for trial in 0..12 {
            let store = beam_store(&mut rng);
            let readings = beam_readings(&mut rng, &store);
            let options = options_for(path, trial);
            let ctx = format!("{path:?} trial {trial}");
            let mut css =
                CompressiveSelection::new(store.clone(), CssConfig::paper_default(), trial as u64);
            css.set_estimator_options(options);
            let mem = std::sync::Arc::new(obs::MemorySink::new());
            obs::set_sink(mem.clone());
            let _ = css.select_from_readings(&readings);
            obs::clear_sink();
            let decisions = mem.take_decisions();
            let rec = &decisions[0];
            assert_eq!(rec.kernel_path, path.as_str(), "{ctx}");

            // The kernel that decided: the batched kernel on this path.
            let batch = BatchEstimator::new(&store, mode, options);
            let est = batch.estimate_one(&readings).expect("beam readings decide");
            assert!(rec.has_estimate, "{ctx}");
            assert_eq!(
                (rec.est_az_deg, rec.est_el_deg, rec.score),
                (est.direction.az_deg, est.direction.el_deg, est.score),
                "{ctx}"
            );
            // Its final map ranks the recorded cells; the weights sit on
            // the score scale, the best one being the score itself.
            let map = batch
                .final_map_one(&mut BatchScratch::new(), &readings)
                .expect("non-degenerate");
            let (cells, weights) = top_cells(&map, rec.top_cells.len());
            assert_eq!(rec.top_cells, cells, "{ctx}");
            assert_eq!(rec.top_weights[0], rec.score, "{ctx}");
            for (w, m) in rec.top_weights.iter().zip(&weights) {
                assert!((w / rec.score - m / weights[0]).abs() <= 1e-12, "{ctx}");
            }
            // Probe values as this path quantized them, and its energy
            // normalizer on the f64 kernel's scale.
            let f64_closure = CompressiveEstimator::new(&store, mode).kernel_closure(&readings, 8);
            let narrowed = |v: &[f64]| v.iter().map(|&x| narrow(x)).collect::<Vec<_>>();
            assert_eq!(rec.p_snr, narrowed(&f64_closure.p_snr), "{ctx}");
            assert_eq!(rec.p_rssi, narrowed(&f64_closure.p_rssi), "{ctx}");
            assert!(
                (rec.energy_max - f64_closure.energy_max).abs()
                    <= energy_rel_tol * f64_closure.energy_max,
                "{ctx}: energy_max {} vs f64 {}",
                rec.energy_max,
                f64_closure.energy_max
            );
            differs_from_f64 |=
                rec.p_snr != f64_closure.p_snr || rec.energy_max != f64_closure.energy_max;
        }
        assert!(
            differs_from_f64,
            "{path:?}: recorded closures indistinguishable from the f64 kernel's"
        );
    }
}
