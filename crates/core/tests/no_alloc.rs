//! A warm estimator allocates nothing: after one call has sized its
//! scratch, every further scalar estimate (on each kernel path) and every
//! batched sweep runs without touching the heap. A counting global
//! allocator wraps `System` and tallies allocations per thread, so tests
//! running in parallel do not see each other's traffic.
//!
//! This lives in an integration test (its own crate) because the css
//! library itself is `#![forbid(unsafe_code)]` and a `GlobalAlloc` impl
//! needs `unsafe`.

use chamber::SectorPatterns;
use css::estimator::{CompressiveEstimator, CorrelationMode, EstimatorOptions, KernelPath};
use css::{BatchEstimator, BatchScratch};
use geom::sphere::{GridSpec, SphericalGrid};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use talon_array::{GainPattern, SectorId};
use talon_channel::{Measurement, SweepReading};

struct CountingAlloc;

thread_local! {
    /// Allocations made by this thread. A const-initialised `Cell` with no
    /// destructor: touching it from inside the allocator never allocates.
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// Counts one allocation against the calling thread (none while the
/// thread's locals are being torn down).
fn tally() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations the calling thread performed while running `f`.
fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// Eight Gaussian-lobe sectors on a 25×4 grid, the shape of the coarse
/// chamber campaign, so both the interior and the border smoothing run.
fn lobe_store() -> SectorPatterns {
    let grid = SphericalGrid::new(
        GridSpec::new(-60.0, 60.0, 5.0),
        GridSpec::new(0.0, 30.0, 10.0),
    );
    let mut store = SectorPatterns::new(grid.clone());
    for s in 0..8u8 {
        let peak = -52.5 + 15.0 * f64::from(s);
        let gains = grid
            .iter()
            .map(|(_, d)| {
                let (da, de) = (d.az_deg - peak, d.el_deg - 10.0);
                12.0 - (da * da + de * de) / 60.0
            })
            .collect();
        store.insert(
            SectorId(s + 1),
            GainPattern::from_table(grid.clone(), gains),
        );
    }
    store
}

/// Readings of a source at `az_deg`: every sector probed, one masked.
fn readings_at(store: &SectorPatterns, az_deg: f64) -> Vec<SweepReading> {
    let truth = geom::sphere::Direction::new(az_deg, 8.0);
    store
        .sector_ids()
        .into_iter()
        .enumerate()
        .map(|(i, id)| {
            let snr = store.get(id).expect("stored").gain_interp(&truth);
            SweepReading {
                sector: id,
                measurement: (i != 3).then_some(Measurement {
                    snr_db: snr,
                    rssi_dbm: snr - 66.0,
                }),
            }
        })
        .collect()
}

fn options(kernel_path: KernelPath) -> EstimatorOptions {
    EstimatorOptions {
        kernel_path,
        ..EstimatorOptions::default()
    }
}

#[test]
fn warm_scalar_estimates_allocate_nothing() {
    let store = lobe_store();
    let readings = readings_at(&store, 12.0);
    for path in [KernelPath::F64, KernelPath::F32, KernelPath::Q15] {
        let est = CompressiveEstimator::new(&store, CorrelationMode::JointSnrRssi)
            .with_options(options(path));
        // Cold: the per-thread scratch (and, off F64, the batched kernel
        // behind the scalar API) is built here.
        let cold = allocations_during(|| {
            assert!(est.estimate(&readings).is_some());
        });
        assert!(cold > 0, "{path:?}: the counting allocator sees cold calls");
        let warm = allocations_during(|| {
            for _ in 0..100 {
                black_box(est.estimate(black_box(&readings)));
            }
        });
        assert_eq!(
            warm, 0,
            "{path:?}: warm scalar estimates allocated {warm} times"
        );
    }
}

#[test]
fn warm_batch_sweeps_allocate_nothing() {
    let store = lobe_store();
    let links_store: Vec<Vec<SweepReading>> = (0..16)
        .map(|i| readings_at(&store, -45.0 + 6.0 * f64::from(i)))
        .collect();
    let links: Vec<&[SweepReading]> = links_store.iter().map(Vec::as_slice).collect();
    for path in [KernelPath::F64, KernelPath::F32, KernelPath::Q15] {
        let batch = BatchEstimator::new(&store, CorrelationMode::JointSnrRssi, options(path));
        for b in [1usize, 16] {
            let mut scratch = BatchScratch::new();
            let mut out = Vec::new();
            batch.estimate_batch_into(&mut scratch, &links[..b], &mut out);
            assert!(out.iter().all(Option::is_some));
            let warm = allocations_during(|| {
                for _ in 0..100 {
                    batch.estimate_batch_into(&mut scratch, black_box(&links[..b]), &mut out);
                }
            });
            assert_eq!(
                warm, 0,
                "{path:?}, B={b}: warm batch sweeps allocated {warm} times"
            );
        }
    }
}
