//! Property-based tests on the compressive estimator's invariants.

use chamber::SectorPatterns;
use css::estimator::{top_cells, CompressiveEstimator, CorrelationMode};
use geom::sphere::{GridSpec, SphericalGrid};
use proptest::prelude::*;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

/// A small synthetic store with parabolic lobes at fixed azimuths.
fn lobe_store() -> SectorPatterns {
    let grid = SphericalGrid::new(
        GridSpec::new(-60.0, 60.0, 3.0),
        GridSpec::new(0.0, 12.0, 6.0),
    );
    let mut store = SectorPatterns::new(grid.clone());
    for (k, peak) in [-45.0, -15.0, 15.0, 45.0].iter().enumerate() {
        let gains: Vec<f64> = grid
            .iter()
            .map(|(_, d)| 11.0 - (d.az_deg - peak).powi(2) / 50.0 - d.el_deg / 4.0)
            .map(|g| g.max(-7.0))
            .collect();
        store.insert(
            SectorId(k as u8 + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

fn reading(sector: u8, snr: f64) -> SweepReading {
    SweepReading {
        sector: SectorId(sector),
        measurement: Some(Measurement {
            snr_db: snr.clamp(-7.0, 12.0),
            rssi_dbm: (snr - 68.0).clamp(-100.0, -20.0),
        }),
    }
}

/// The top-k order by a full sort of every cell: weight descending, ties
/// to the lower index, truncated to `k`.
fn full_sort_top_k(map: &[f64], k: usize) -> (Vec<u64>, Vec<f64>) {
    let mut order: Vec<usize> = (0..map.len()).collect();
    order.sort_by(|&a, &b| map[b].partial_cmp(&map[a]).unwrap().then(a.cmp(&b)));
    order.truncate(k);
    (
        order.iter().map(|&i| i as u64).collect(),
        order.iter().map(|&i| map[i]).collect(),
    )
}

proptest! {
    #[test]
    fn partial_selection_top_k_equals_the_full_sort(
        levels in prop::collection::vec(0usize..8, 0..300),
        distinct in 1usize..6,
        k in 0usize..12,
    ) {
        // Weights drawn from `distinct` values: many exact ties, and an
        // all-zero map whenever `distinct` is 1.
        let map: Vec<f64> = levels.iter().map(|&l| (l % distinct) as f64 / 4.0).collect();
        prop_assert_eq!(top_cells(&map, k), full_sort_top_k(&map, k));
    }

    #[test]
    fn partial_selection_top_k_equals_the_full_sort_on_real_maps(
        snrs in prop::collection::vec(-7.0f64..12.0, 4),
        k in 0usize..40,
    ) {
        let store = lobe_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let readings: Vec<SweepReading> = snrs
            .iter()
            .enumerate()
            .map(|(i, &s)| reading(i as u8 + 1, s))
            .collect();
        let map = est.correlation_map(&readings);
        prop_assert_eq!(top_cells(&map, k), full_sort_top_k(&map, k));
    }

    #[test]
    fn correlation_map_is_bounded(
        snrs in prop::collection::vec(-7.0f64..12.0, 4),
        mode in prop::sample::select(vec![CorrelationMode::SnrOnly, CorrelationMode::JointSnrRssi]),
    ) {
        let store = lobe_store();
        let est = CompressiveEstimator::new(&store, mode);
        let readings: Vec<SweepReading> = snrs
            .iter()
            .enumerate()
            .map(|(i, &s)| reading(i as u8 + 1, s))
            .collect();
        let map = est.correlation_map(&readings);
        prop_assert_eq!(map.len(), est.grid().len());
        prop_assert!(map.iter().all(|&w| (0.0..=1.0 + 1e-9).contains(&w) && w.is_finite()));
    }

    #[test]
    fn estimate_lies_on_the_grid(
        snrs in prop::collection::vec(-6.0f64..12.0, 4),
    ) {
        let store = lobe_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let readings: Vec<SweepReading> = snrs
            .iter()
            .enumerate()
            .map(|(i, &s)| reading(i as u8 + 1, s))
            .collect();
        if let Some((dir, score)) = est.estimate(&readings) {
            prop_assert!((-60.0..=60.0).contains(&dir.az_deg));
            prop_assert!((0.0..=12.0).contains(&dir.el_deg));
            prop_assert!((0.0..=1.0 + 1e-9).contains(&score));
        }
    }

    #[test]
    fn clean_single_lobe_readings_recover_the_lobe(which in 0usize..4) {
        // Feed the exact pattern values of a lobe direction: the estimate
        // must land near that lobe.
        let peaks = [-45.0, -15.0, 15.0, 45.0];
        let store = lobe_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::SnrOnly);
        let truth = geom::Direction::new(peaks[which], 0.0);
        let readings: Vec<SweepReading> = (1u8..=4)
            .map(|id| {
                let g = store.get(SectorId(id)).unwrap().gain_interp(&truth);
                reading(id, g)
            })
            .collect();
        let (dir, _) = est.estimate(&readings).unwrap();
        prop_assert!(
            (dir.az_deg - peaks[which]).abs() <= 9.0,
            "estimated {dir} for lobe at {}", peaks[which]
        );
    }

    #[test]
    fn permutation_of_readings_does_not_change_the_map(
        snrs in prop::collection::vec(-6.0f64..12.0, 4),
        seed in any::<u64>(),
    ) {
        let store = lobe_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let mut readings: Vec<SweepReading> = snrs
            .iter()
            .enumerate()
            .map(|(i, &s)| reading(i as u8 + 1, s))
            .collect();
        let a = est.correlation_map(&readings);
        // Rotate the reading order deterministically.
        readings.rotate_left((seed % 4) as usize);
        let b = est.correlation_map(&readings);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
    }

    #[test]
    fn missing_measurements_never_produce_nan(
        present in prop::collection::vec(any::<bool>(), 4),
        snr in -6.0f64..12.0,
    ) {
        let store = lobe_store();
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi);
        let readings: Vec<SweepReading> = present
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                if p {
                    reading(i as u8 + 1, snr)
                } else {
                    SweepReading { sector: SectorId(i as u8 + 1), measurement: None }
                }
            })
            .collect();
        let map = est.correlation_map(&readings);
        prop_assert!(map.iter().all(|w| w.is_finite()));
    }
}
