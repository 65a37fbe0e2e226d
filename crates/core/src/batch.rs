//! GEMM-shaped batched estimation: B concurrent links against one sweep
//! of the grid-major gains matrix.
//!
//! The fused scalar kernel ([`crate::estimator`]) streams the whole
//! `grid × sectors` gain matrix once **per link**. A multi-link daemon
//! serving thousands of stations re-reads the same matrix thousands of
//! times per scheduling epoch — pure memory traffic. This module amortizes
//! the traversal: the probe vectors of `B` links are packed into
//! sector-major **panels** (`panel[s * B + b]` = link `b`'s reading for
//! sector row `s`), and one sweep over the grid computes, per grid point
//! `g`, the correlation inputs of all `B` links at once — the classic
//! `(grid × sectors) · (sectors × B)` GEMM shape:
//!
//! ```text
//! uv[g][b] = Σ_s gains[g·S + s] · panel[s·B + b]        (probe·pattern)
//! vv[g][b] = Σ_s gains[g·S + s]² · mask[s·B + b]        (pattern energy)
//! ```
//!
//! The gain matrix is stored **sparsely**: the −7 dB report-floor clip
//! ([`report_scale`]) zeroes every gain a sector does not actually cast
//! toward a grid point, and a zero gain contributes exactly `+0.0` (or
//! integer `0`) to every accumulator — all terms are non-negative, so no
//! `-0.0` can arise and skipping the zeros is bit-identical to summing
//! them. Each grid point therefore carries only its *lit* `(row, gain)`
//! pairs (CSR-style), which on directional codebooks cuts the inner-loop
//! trip count severalfold below the sector count.
//!
//! The per-link mask panel carries *how many* readings landed on a sector
//! row (0 for unprobed/masked), so each link's expected-energy norm `‖x‖²`
//! counts exactly the sectors that link probed. Each output column depends
//! only on its own link's panel column, which makes every per-link result
//! **independent of the batch composition** — the property the
//! deterministic parallel engine ([`eval::engine`]) relies on: however
//! units are grouped into batches or batches onto threads, link `b`'s
//! numbers never change.
//!
//! # Precision paths
//!
//! [`KernelPath`] selects the arithmetic (see DESIGN.md for the tolerance
//! policy):
//!
//! * `F64` — exact: matches the scalar fused kernel to ≤ 1e-12.
//! * `F32` — f32 gains/panels with one f32 accumulator per link lane.
//!   Per-link sums run in ascending sector order *regardless of lane
//!   width*, so the 1-, 4- and 8-lane kernels are bit-identical.
//! * `Q15` — quarter-dB fixed point: gains and probes quantized to
//!   `round(4 · report_scale)` in i16, correlated in i32/i64 integer
//!   arithmetic. Integer sums are associative, so this path is
//!   bit-identical on every platform and lane width. The firmware's SNR
//!   reports are quarter-dB quantized and clamped to [−7, 12] dB at the
//!   source (§4.3), so this path discards no information the radio ever
//!   provided — only the synthetic f64 noise tails of simulation.
//!
//! The correlation `w = ⟨p,x⟩² / (‖p‖²‖x‖²)` is computed from the raw
//! accumulators without square roots; the final per-link pass (energy
//! prior, smoothing, argmax, parabolic refinement) always runs in f64.
//!
//! # Coarse-to-fine pruning
//!
//! [`PruneConfig`] enables a two-stage argmax in the spirit of
//! Agile-Link's hierarchical search: score a `decimate`-strided coarse
//! lattice first, then recompute exactly (same arithmetic as the full
//! pass) only the neighbourhoods of the top-K coarse cells. Refined
//! neighbourhoods are padded so the 3×3 smoothing ring and the parabolic
//! neighbours of any selectable cell are always available; within the
//! refined set the map values are bit-identical to the full pass, so the
//! pruned argmax equals the full-grid argmax whenever the true peak lies
//! in a refined neighbourhood (`tests/batch_golden.rs` proves this across
//! seeded scenarios). The energy-prior normalizer is computed over the
//! refined set only — a per-link constant factor that cannot move the
//! argmax or the (scale-invariant) parabolic offset, but which makes
//! pruned *scores* incomparable to full-grid scores.

use crate::estimator::{
    parabolic_offset, report_scale, smooth_map_into, smooth_map_into_mul, top_cells_into,
    CompressiveEstimator, CorrelationMode, EstimatorOptions, KernelClosure, KernelPath,
};
use chamber::SectorPatterns;
use geom::sphere::Direction;
use std::cell::RefCell;
use talon_channel::SweepReading;

/// Quarter-dB fixed-point quantization of a report-scale value.
///
/// The clamp bounds the worst-case `Σ x²·count` accumulation at
/// `2047² · 4 · 256` ≈ 4.3e9… per *term* 2047² ≈ 4.2e6, times 256 sector
/// rows ≈ 1.1e9 — inside i32 with headroom (realistic report-scale values
/// quantize below 200).
fn quantize_q15(v: f64) -> i16 {
    ((v * 4.0).round() as i64).clamp(-2047, 2047) as i16
}

/// Float width of the per-cell correlation/prior arithmetic. The exact
/// `F64` path computes in f64; the reduced-precision paths compute in
/// f32, whose divide/sqrt run at twice the SIMD width — well inside
/// their documented agreement gates (≤ 1e-4 / ≤ 0.05 same-cell score
/// error), and still deterministic on every platform (plain IEEE ops,
/// no contraction).
trait CorrFloat:
    Copy
    + PartialOrd
    + std::ops::Add<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::Div<Output = Self>
{
    const ZERO: Self;
    const ONE: Self;
    const EPS: Self;
    fn to_f64(self) -> f64;
    fn sqrt(self) -> Self;
    fn max(self, other: Self) -> Self;
}

impl CorrFloat for f64 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPS: Self = f64::EPSILON;
    fn to_f64(self) -> f64 {
        self
    }
    fn sqrt(self) -> Self {
        f64::sqrt(self)
    }
    fn max(self, other: Self) -> Self {
        f64::max(self, other)
    }
}

impl CorrFloat for f32 {
    const ZERO: Self = 0.0;
    const ONE: Self = 1.0;
    const EPS: Self = f32::EPSILON;
    fn to_f64(self) -> f64 {
        f64::from(self)
    }
    fn sqrt(self) -> Self {
        f32::sqrt(self)
    }
    fn max(self, other: Self) -> Self {
        f32::max(self, other)
    }
}

/// One panel element type, its accumulator, and its per-cell float
/// width: f64/f64/f64, f32/f32/f32, i16/i32/f32.
trait PanelElem: Copy {
    /// Accumulator of `Σ x·p` sums over one grid point.
    type Acc: Copy
        + Default
        + From<Self>
        + Into<f64>
        + std::ops::AddAssign
        + std::ops::Mul<Output = Self::Acc>;
    /// Float width of the correlation/prior math on those sums.
    type W: CorrFloat;
    fn to_w(acc: Self::Acc) -> Self::W;
}

impl PanelElem for f64 {
    type Acc = f64;
    type W = f64;
    fn to_w(acc: f64) -> f64 {
        acc
    }
}
impl PanelElem for f32 {
    type Acc = f32;
    type W = f32;
    fn to_w(acc: f32) -> f32 {
        acc
    }
}
impl PanelElem for i16 {
    type Acc = i32;
    type W = f32;
    fn to_w(acc: i32) -> f32 {
        acc as f32
    }
}

/// The wide-lane inner kernel: one grid point against `L` adjacent link
/// lanes. `vals`/`rows` are the grid point's lit `(gain, sector-row)`
/// pairs from the sparse matrix. `L` accumulators live in registers; the
/// per-lane sum order is ascending sector row for every `L`, so lane
/// width never changes a link's result. Written as plain indexed loops
/// over `[T; L]`-shaped slices — the autovectorizer turns the lane loop
/// into SIMD without any `std::arch` (this crate forbids `unsafe`).
#[inline]
#[allow(clippy::type_complexity)]
fn gemm_point<T: PanelElem, const L: usize>(
    vals: &[T],
    rows: &[u16],
    pnl: &[T],
    b0: usize,
    stride: usize,
    joint: bool,
) -> ([T::Acc; L], [T::Acc; L], [T::Acc; L]) {
    let mut uvs = [T::Acc::default(); L];
    let mut uvr = [T::Acc::default(); L];
    let mut vv = [T::Acc::default(); L];
    // Safe bounds-check elimination: the row index comes from data, so
    // the optimizer cannot hoist the slice checks out of the loop — at
    // one compare-and-branch per plane per row they cost more than the
    // arithmetic. Clamping the row into the provable range (a single
    // `min` that never binds: build-time rows are < n_rows by
    // construction) plus these loop-invariant asserts lets LLVM prove
    // every access in-bounds once, leaving the hot loop branch-free.
    // The three planes of one row are adjacent in the interleaved panel
    // (probe | shifted-RSSI | mask, `stride` apart), so a row touches
    // one contiguous run the prefetcher can follow.
    let n_rows = pnl.len() / (3 * stride);
    assert!(b0 + L <= stride && pnl.len() == 3 * stride * n_rows && n_rows > 0);
    for (&x, &row) in vals.iter().zip(rows) {
        let x: T::Acc = x.into();
        let x2 = x * x;
        let base = (row as usize).min(n_rows - 1) * (3 * stride);
        let c = &pnl[base..base + 3 * stride];
        let p = &c[b0..b0 + L];
        let m = &c[2 * stride + b0..2 * stride + b0 + L];
        for l in 0..L {
            uvs[l] += x * T::Acc::from(p[l]);
            vv[l] += x2 * T::Acc::from(m[l]);
        }
        if joint {
            let q = &c[stride + b0..stride + b0 + L];
            for l in 0..L {
                uvr[l] += x * T::Acc::from(q[l]);
            }
        }
    }
    (uvs, uvr, vv)
}

/// Widest lane kernel applicable to `rem` remaining links (16 → 8 → 4
/// → 1), or the forced width while it fits (test/bench cross-check
/// knob). Lane width never changes a link's bits (each lane's sums are
/// independent), so widening is purely a throughput knob.
fn lane_width(rem: usize, forced: Option<usize>) -> usize {
    match forced {
        Some(16) if rem >= 16 => 16,
        Some(8) if rem >= 8 => 8,
        Some(4) if rem >= 4 => 4,
        Some(_) => 1,
        None if rem >= 16 => 16,
        None if rem >= 8 => 8,
        None if rem >= 4 => 4,
        None => 1,
    }
}

/// Sweeps the panel against a set of grid cells, writing the correlation
/// `w` (prior-tilted when `prior` is set) of every (cell, link) pair and
/// folding each link's running maximum pattern energy `max_g ‖x_g‖²`
/// into `vv_max` (cells ascending — the same fold order, hence the same
/// bits, as a scan over a materialized energy row would produce).
///
/// `cells` yields `(grid_index, out_index)`; outputs land link-major at
/// `out[b * out_stride + out_index]`. The full pass uses the identity
/// mapping over the whole grid; the coarse pruning pass maps lattice
/// cells to compact indices; per-link refinement passes a single-link
/// range `b_lo..b_lo+1` over a sparse candidate list.
///
/// Three flop-count tricks, all argmax-preserving:
///
/// * the joint-mode correlation is computed with a **single division**,
///   `w = uvs²·uvr² / vv²`, instead of one guarded division per metric;
/// * the per-link probe-norm factor `inv_u = 1/(uu_snr·uu_rssi)` is a
///   positive constant across cells, so it is **deferred** out of the
///   sweep entirely and folded into the winning score in the finish
///   stage (a degenerate probe norm means the scalar kernel's map is
///   identically zero — the finish returns `None` for such links before
///   ever looking at the map, so the deferral cannot change outcomes);
/// * the energy prior is fused in as the **unnormalized** tilt
///   `w · vv^{1/8}`; the per-link constant `vv_max^{-1/8}` joins `inv_u`
///   in the deferred score factor.
///
/// A positive constant scale cannot move the argmax, the 3×3 smoothing
/// average's ordering, or the scale-invariant parabolic sub-cell offset,
/// so only the reported score needs the deferred factors.
#[allow(clippy::too_many_arguments)]
fn sweep_panel<T: PanelElem>(
    nz_vals: &[T],
    nz_rows: &[u16],
    nz_off: &[u32],
    joint: bool,
    prior: bool,
    pnl: &[T],
    stride: usize,
    cells: impl Iterator<Item = (usize, usize)>,
    b_lo: usize,
    b_hi: usize,
    out_stride: usize,
    forced: Option<usize>,
    maps: &mut [f64],
    vv_max: &mut [f64],
) {
    /// One (cell, lane-group) tail. The running energy max folds in `W`
    /// width into the caller's per-lane-group accumulator — for `F64`
    /// and `F32` bit-equal to an f64 fold (the f32→f64 conversion is
    /// exact and `max` commutes with it); for `Q15` the i32→f32 rounding
    /// perturbs the normalizer by ≤ 6e-8 relative, noise against that
    /// path's 0.05 gate.
    /// Monomorphized over mode and prior so the per-lane loop is
    /// branch-free: the dark-cell guard selects the *denominator* (1 for
    /// dark cells, whose numerator is exactly 0 — no probed sector is
    /// lit, so `uvs = 0` whenever `vv = 0`), which keeps the division
    /// exception-free and lets the whole div/sqrt chain pack into SIMD
    /// lanes instead of predicting a branch per link.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn emit<T: PanelElem, const L: usize, const JOINT: bool, const PRIOR: bool>(
        vals: &[T],
        rows: &[u16],
        pnl: &[T],
        b0: usize,
        stride: usize,
        oi: usize,
        out_stride: usize,
        maps: &mut [f64],
        vvm: &mut [T::W],
    ) {
        let (uvs, uvr, vv) = gemm_point::<T, L>(vals, rows, pnl, b0, stride, JOINT);
        let mut w = [T::W::ZERO; L];
        for l in 0..L {
            let vvw = T::to_w(vv[l]);
            let uvsw = T::to_w(uvs[l]);
            let dark = vvw <= T::W::EPS;
            let num = if JOINT {
                let uvrw = T::to_w(uvr[l]);
                (uvsw * uvsw) * (uvrw * uvrw)
            } else {
                uvsw * uvsw
            };
            let den = if JOINT { vvw * vvw } else { vvw };
            let den = if dark { T::W::ONE } else { den };
            let quot = num / den;
            let quot = if dark { T::W::ZERO } else { quot };
            w[l] = if PRIOR {
                quot * vvw.sqrt().sqrt().sqrt()
            } else {
                quot
            };
            vvm[l] = vvm[l].max(vvw);
        }
        for l in 0..L {
            maps[(b0 + l) * out_stride + oi] = w[l].to_f64();
        }
    }
    fn run<T: PanelElem, const JOINT: bool, const PRIOR: bool>(
        nz_vals: &[T],
        nz_rows: &[u16],
        nz_off: &[u32],
        pnl: &[T],
        stride: usize,
        cells: impl Iterator<Item = (usize, usize)>,
        b_lo: usize,
        b_hi: usize,
        out_stride: usize,
        forced: Option<usize>,
        maps: &mut [f64],
        vvm: &mut [T::W],
    ) {
        for (g, oi) in cells {
            let (lo, hi) = (nz_off[g] as usize, nz_off[g + 1] as usize);
            let vals = &nz_vals[lo..hi];
            let rows = &nz_rows[lo..hi];
            let mut b0 = b_lo;
            while b0 < b_hi {
                let vvm = &mut vvm[b0 - b_lo..];
                match lane_width(b_hi - b0, forced) {
                    16 => {
                        emit::<T, 16, JOINT, PRIOR>(
                            vals,
                            rows,
                            pnl,
                            b0,
                            stride,
                            oi,
                            out_stride,
                            maps,
                            &mut vvm[..16],
                        );
                        b0 += 16;
                    }
                    8 => {
                        emit::<T, 8, JOINT, PRIOR>(
                            vals,
                            rows,
                            pnl,
                            b0,
                            stride,
                            oi,
                            out_stride,
                            maps,
                            &mut vvm[..8],
                        );
                        b0 += 8;
                    }
                    4 => {
                        emit::<T, 4, JOINT, PRIOR>(
                            vals,
                            rows,
                            pnl,
                            b0,
                            stride,
                            oi,
                            out_stride,
                            maps,
                            &mut vvm[..4],
                        );
                        b0 += 4;
                    }
                    _ => {
                        emit::<T, 1, JOINT, PRIOR>(
                            vals,
                            rows,
                            pnl,
                            b0,
                            stride,
                            oi,
                            out_stride,
                            maps,
                            &mut vvm[..1],
                        );
                        b0 += 1;
                    }
                }
            }
        }
    }
    let mut vvm = vec![T::W::ZERO; b_hi - b_lo];
    #[allow(clippy::too_many_arguments)]
    match (joint, prior) {
        (true, true) => run::<T, true, true>(
            nz_vals, nz_rows, nz_off, pnl, stride, cells, b_lo, b_hi, out_stride, forced, maps,
            &mut vvm,
        ),
        (true, false) => run::<T, true, false>(
            nz_vals, nz_rows, nz_off, pnl, stride, cells, b_lo, b_hi, out_stride, forced, maps,
            &mut vvm,
        ),
        (false, true) => run::<T, false, true>(
            nz_vals, nz_rows, nz_off, pnl, stride, cells, b_lo, b_hi, out_stride, forced, maps,
            &mut vvm,
        ),
        (false, false) => run::<T, false, false>(
            nz_vals, nz_rows, nz_off, pnl, stride, cells, b_lo, b_hi, out_stride, forced, maps,
            &mut vvm,
        ),
    }
    // Merge the lane-group folds into the caller's per-link maxima (the
    // f64 conversion is exact for every `W`, and `max(0, x) = x` for the
    // non-negative energies, so this matches the old per-cell f64 fold).
    for (i, m) in vvm.iter().enumerate() {
        let b = b_lo + i;
        vv_max[b] = vv_max[b].max(m.to_f64());
    }
}

/// Coarse-to-fine pruning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PruneConfig {
    /// Stride of the coarse lattice along each grid axis (≥ 2 to prune).
    pub decimate: usize,
    /// Number of top-ranked coarse cells whose neighbourhoods are refined.
    pub top_k: usize,
}

impl Default for PruneConfig {
    fn default() -> Self {
        PruneConfig {
            decimate: 2,
            top_k: 8,
        }
    }
}

/// Precomputed coarse lattice of a [`PruneConfig`] over a given grid.
#[derive(Debug, Clone)]
struct PrunePlan {
    /// Full-grid indices of the decimated lattice cells, ascending.
    coarse: Vec<u32>,
    /// Neighbourhood half-widths (Chebyshev, in cells) around a selected
    /// coarse cell: raw values computed, smoothing eligible, argmax
    /// eligible. `r_raw = r_sm + 1 = r_sel + 2` guarantees every argmax
    /// candidate has its full (border-clamped) smoothing ring and both
    /// parabolic neighbours available.
    r_sel: usize,
    r_sm: usize,
    r_raw: usize,
    /// Refined candidates per selection.
    top_k: usize,
}

/// One link's estimate out of a batched sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEstimate {
    /// Estimated angle of arrival (sub-cell refined when enabled).
    pub direction: Direction,
    /// Final map weight of the winning cell (post prior and smoothing).
    /// With pruning enabled the energy-prior normalizer is local to the
    /// refined set, so scores are only comparable within one configuration.
    pub score: f64,
    /// Winning grid cell (pre-refinement argmax).
    pub cell: usize,
}

/// Reusable buffers of [`BatchEstimator::estimate_batch_into`]: probe
/// panels for each precision, per-link norms, per-link correlation maps,
/// and the pruning mark/candidate sets. A warm scratch allocates nothing.
#[derive(Debug, Default)]
pub struct BatchScratch {
    // Sector-major interleaved panels (probe | shifted-RSSI | mask
    // planes per row, `bt` apart), one per precision path; only the
    // active path's panel is touched.
    pnl64: Vec<f64>,
    pnl32: Vec<f32>,
    pnl15: Vec<i16>,
    /// Per-link reciprocal probe-norm product `1/(uu_snr·uu_rssi)` (or
    /// `1/uu_snr` in SNR-only mode), promoted to f64; exactly 0.0 for
    /// degenerate links, which zeroes every correlation like the scalar
    /// kernel's ε-guards.
    inv_u: Vec<f64>,
    /// Per-link usable (pattern-matched, unmasked) reading count.
    usable: Vec<u32>,
    /// Link-major correlation maps (`maps[b * n_grid + g]`). In pruned
    /// mode only marked cells hold live values.
    maps: Vec<f64>,
    /// Per-link maximum pattern energy `max_g ‖x_g‖²`, folded inside the
    /// sweep (reset per link before the pruned refinement sweep, whose
    /// normalizer is local to the candidate set).
    vv_max: Vec<f64>,
    /// Per-link smoothing output (one grid).
    smoothed: Vec<f64>,
    // Pruning state: coarse maps, ranked coarse cells, candidate list and
    // stamp-based membership marks (no per-link clearing).
    cmaps: Vec<f64>,
    ranked: Vec<(f64, u32)>,
    cand: Vec<u32>,
    mark_raw: Vec<u32>,
    mark_sm: Vec<u32>,
    mark_sel: Vec<u32>,
    stamp: u32,
    /// Cell-index buffer of the top-k selection (provenance path only).
    order: Vec<u32>,
}

impl BatchScratch {
    /// Fresh, empty scratch (the first batch through it allocates).
    pub fn new() -> Self {
        BatchScratch::default()
    }
}

thread_local! {
    /// Per-thread scratch backing [`BatchEstimator::estimate_one`].
    static THREAD_BATCH_SCRATCH: RefCell<BatchScratch> = RefCell::new(BatchScratch::new());
}

/// The batched multi-link estimator: the scalar estimator's grid-major
/// pattern matrix, pre-expanded once into every precision path.
pub struct BatchEstimator {
    /// Sector rows of the lit `(gain, row)` pairs per grid point, CSR
    /// concatenated in ascending row order (the report-floor clip makes
    /// the scalar kernel's grid-major matrix sparse; zeros contribute
    /// nothing, so they are dropped at build time — see the module docs).
    nz_rows: Vec<u16>,
    /// `n_grid + 1` prefix offsets into the `nz_*` arrays.
    nz_off: Vec<u32>,
    /// f64 report-scale values of the lit pairs.
    nzv64: Vec<f64>,
    /// The same values narrowed to f32.
    nzv32: Vec<f32>,
    /// The same values in quarter-dB i16 fixed point.
    nzv15: Vec<i16>,
    /// Sector rows of the (logical) matrix — the panel minor dimension.
    n_sectors: usize,
    /// O(1) sector-id → matrix-row table (`u16::MAX` = no pattern).
    row_of: [u16; 256],
    /// The angular grid shared by all patterns.
    grid: geom::sphere::SphericalGrid,
    /// Correlation mode.
    mode: CorrelationMode,
    /// Numerical options; `options.kernel_path` selects the arithmetic.
    options: EstimatorOptions,
    /// Coarse-to-fine plan, when pruning is enabled and worthwhile.
    prune: Option<PrunePlan>,
    /// Forced lane width (None = widest applicable); test/bench knob.
    forced_lanes: Option<usize>,
    /// Cached metric handles.
    ctr_links: std::sync::Arc<obs::Counter>,
    ctr_sweeps: std::sync::Arc<obs::Counter>,
}

impl BatchEstimator {
    /// Builds a batched estimator from a measured pattern database.
    pub fn new(
        patterns: &SectorPatterns,
        mode: CorrelationMode,
        options: EstimatorOptions,
    ) -> Self {
        Self::from_estimator(&CompressiveEstimator::new(patterns, mode).with_options(options))
    }

    /// Builds a batched estimator sharing a scalar estimator's pattern
    /// matrix, mode and options.
    pub fn from_estimator(est: &CompressiveEstimator) -> Self {
        let n_grid = est.grid().len();
        let n_s = est.n_sectors;
        let mut nz_rows = Vec::new();
        let mut nzv64 = Vec::new();
        let mut nz_off = Vec::with_capacity(n_grid + 1);
        nz_off.push(0u32);
        for g in 0..n_grid {
            for (s, &x) in est.gains[g * n_s..(g + 1) * n_s].iter().enumerate() {
                if x != 0.0 {
                    nz_rows.push(s as u16);
                    nzv64.push(x);
                }
            }
            nz_off.push(nz_rows.len() as u32);
        }
        let nzv32: Vec<f32> = nzv64.iter().map(|&g| g as f32).collect();
        let nzv15: Vec<i16> = nzv64.iter().map(|&g| quantize_q15(g)).collect();
        BatchEstimator {
            nz_rows,
            nz_off,
            nzv64,
            nzv32,
            nzv15,
            n_sectors: est.n_sectors,
            row_of: est.row_of,
            grid: est.grid().clone(),
            mode: est.mode,
            options: est.options,
            prune: None,
            forced_lanes: None,
            ctr_links: obs::counter("css.batch_estimates"),
            ctr_sweeps: obs::counter("css.batch_sweeps"),
        }
    }

    /// Enables coarse-to-fine pruning (builder style). Falls back to the
    /// full sweep when the configuration cannot prune (stride < 2), when
    /// the grid is too small for the coarse stage to rank anything, or
    /// when the estimated two-stage workload (coarse lattice + `top_k`
    /// padded neighbourhoods) would not beat the dense sweep — on small
    /// grids the "pruned" pass visits every cell anyway, at worse lane
    /// utilization.
    pub fn with_prune(mut self, cfg: PruneConfig) -> Self {
        self.prune = Self::plan(&self.grid, cfg);
        self
    }

    /// Forces a fixed inner-kernel lane width (1, 4 or 8); `None` restores
    /// runtime selection. Lane width never changes any result — this knob
    /// exists so tests and benches can prove exactly that.
    pub fn with_forced_lanes(mut self, lanes: Option<usize>) -> Self {
        self.forced_lanes = lanes;
        self
    }

    /// Correlation mode.
    pub fn mode(&self) -> CorrelationMode {
        self.mode
    }

    /// Numerical options (including the arithmetic path).
    pub fn options(&self) -> EstimatorOptions {
        self.options
    }

    /// The estimation grid.
    pub fn grid(&self) -> &geom::sphere::SphericalGrid {
        &self.grid
    }

    /// Whether coarse-to-fine pruning is active.
    pub fn prune_active(&self) -> bool {
        self.prune.is_some()
    }

    fn plan(grid: &geom::sphere::SphericalGrid, cfg: PruneConfig) -> Option<PrunePlan> {
        if cfg.decimate < 2 || cfg.top_k == 0 {
            return None;
        }
        let (n_az, n_el) = (grid.az.len(), grid.el.len());
        let mut coarse = Vec::new();
        for e in (0..n_el).step_by(cfg.decimate) {
            for a in (0..n_az).step_by(cfg.decimate) {
                coarse.push((e * n_az + a) as u32);
            }
        }
        // A coarse stage smaller than top_k refines everything anyway —
        // the two-stage pass would only add overhead.
        if coarse.len() <= cfg.top_k {
            return None;
        }
        let r_raw = cfg.decimate + 3;
        // Per-link workload estimate: the coarse stage plus `top_k`
        // padded neighbourhoods, clamped per axis. When that does not
        // beat the dense sweep (small grids), pruning is pure overhead —
        // worse, the refinement runs at lane width 1 — so fall back.
        let nbhd = (2 * r_raw + 1).min(n_az) * (2 * r_raw + 1).min(n_el);
        if coarse.len() + cfg.top_k * nbhd >= grid.len() {
            return None;
        }
        Some(PrunePlan {
            coarse,
            r_sel: cfg.decimate + 1,
            r_sm: cfg.decimate + 2,
            r_raw,
            top_k: cfg.top_k,
        })
    }

    /// Estimates every link of the batch (allocating convenience wrapper
    /// over [`Self::estimate_batch_into`]).
    pub fn estimate_batch(
        &self,
        scratch: &mut BatchScratch,
        links: &[&[SweepReading]],
    ) -> Vec<Option<LinkEstimate>> {
        let mut out = Vec::with_capacity(links.len());
        self.estimate_batch_into(scratch, links, &mut out);
        out
    }

    /// Estimates a single link through the batched kernel, on a per-thread
    /// scratch. This is what scalar [`CompressiveEstimator::estimate`]
    /// dispatches to for non-`F64` kernel paths.
    pub fn estimate_one(&self, readings: &[SweepReading]) -> Option<LinkEstimate> {
        THREAD_BATCH_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let mut out = Vec::with_capacity(1);
            self.estimate_batch_into(&mut s, &[readings], &mut out);
            out[0]
        })
    }

    /// [`Self::estimate_one`] plus the provenance closure of the same
    /// pass, read from the scratch it left behind:
    ///
    /// * `p_snr`/`p_rssi`: the usable probes' values as this path
    ///   correlated them (narrowed to f32, or quarter-dB steps for `Q15`);
    /// * `top_cells`/`top_weights`: the `k` best cells of the final map
    ///   (the argmax input), weights scaled to the reported score, so
    ///   `top_weights[0]` is the score;
    /// * `energy_max`: `max_g ‖x(g)‖` in report-scale dB.
    ///
    /// A degenerate link records the first `k` cells at weight 0, as the
    /// f64 kernel's all-zero map does, and `energy_max` 0 when fewer than
    /// two probes were usable. Dense estimators only: a pruned pass leaves
    /// no full map to rank.
    pub fn estimate_one_recorded(
        &self,
        readings: &[SweepReading],
        k: usize,
    ) -> (Option<LinkEstimate>, KernelClosure) {
        assert!(self.prune.is_none(), "recorded estimates need a dense pass");
        THREAD_BATCH_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let mut out = Vec::with_capacity(1);
            self.estimate_batch_into(&mut s, &[readings], &mut out);
            (out[0], self.dense_closure(&mut s, readings, k))
        })
    }

    /// The closure of link 0 after a dense single-link pass.
    fn dense_closure(
        &self,
        s: &mut BatchScratch,
        readings: &[SweepReading],
        k: usize,
    ) -> KernelClosure {
        let path = self.options.kernel_path;
        let as_correlated = |v: f64| match path {
            KernelPath::F64 => v,
            KernelPath::F32 => f64::from(v as f32),
            KernelPath::Q15 => f64::from(quantize_q15(v)) / 4.0,
        };
        let (p_snr, p_rssi) = self
            .usable_probes(readings)
            .map(|(_, vs, vr)| (as_correlated(vs), as_correlated(vr)))
            .unzip();
        let n_grid = self.grid.len();
        let (top_cells, top_weights) = match self.dense_norm(s, 0) {
            Some(inv_norm) => {
                let map = if self.options.smoothing {
                    &s.smoothed[..n_grid]
                } else {
                    &s.maps[..n_grid]
                };
                let (cells, mut weights) = top_cells_into(map, k, &mut s.order);
                weights.iter_mut().for_each(|w| *w *= inv_norm);
                (cells, weights)
            }
            None => {
                let k = k.min(n_grid);
                ((0..k as u64).collect(), vec![0.0; k])
            }
        };
        // Q15 energies accumulate quarter-dB steps: ‖4x‖ = 4‖x‖.
        let energy_max = match (s.usable[0] < 2, path) {
            (true, _) => 0.0,
            (false, KernelPath::Q15) => s.vv_max[0].sqrt() / 4.0,
            (false, _) => s.vv_max[0].sqrt(),
        };
        KernelClosure {
            p_snr,
            p_rssi,
            top_cells,
            top_weights,
            energy_max,
        }
    }

    /// The batched estimate: packs the links' probe panels, sweeps the
    /// gains matrix once (full grid or coarse-to-fine), then finishes each
    /// link (energy prior, smoothing, argmax, parabolic refinement) in
    /// f64. `out` receives exactly one entry per link, in order.
    pub fn estimate_batch_into(
        &self,
        s: &mut BatchScratch,
        links: &[&[SweepReading]],
        out: &mut Vec<Option<LinkEstimate>>,
    ) {
        out.clear();
        let bt = links.len();
        if bt == 0 {
            return;
        }
        self.ctr_sweeps.inc();
        self.ctr_links.add(bt as u64);
        let mut span = obs::sink_active().then(|| obs::span("css.estimate_batch"));
        if let Some(sp) = &mut span {
            sp.field("batch", bt as f64);
            sp.field("pruned", u8::from(self.prune.is_some()) as f64);
        }
        let n_grid = self.grid.len();
        self.pack(s, links);
        let need = bt * n_grid;
        if s.maps.len() < need {
            s.maps.resize(need, 0.0);
        }
        if s.smoothed.len() < n_grid {
            s.smoothed.resize(n_grid, 0.0);
        }
        if self.prune.is_some() {
            self.pruned_pass(s, links.len(), out);
        } else {
            self.full_pass(s, links.len(), out);
        }
    }

    /// The usable probes of one sweep as the kernel gathers them, in
    /// reading order: `(matrix row, report-scale SNR, shifted RSSI)`.
    /// Unknown sectors and masked readings drop out entirely; the RSSI
    /// vector is shifted so its strongest reading lines up with the
    /// strongest SNR reading.
    fn usable_probes<'a>(
        &'a self,
        readings: &'a [SweepReading],
    ) -> impl Iterator<Item = (u16, f64, f64)> + 'a {
        let (mut max_rssi, mut max_snr_scaled) = (f64::NEG_INFINITY, 0.0f64);
        for m in readings.iter().filter_map(|r| r.measurement) {
            max_rssi = max_rssi.max(m.rssi_dbm);
            max_snr_scaled = max_snr_scaled.max(report_scale(m.snr_db));
        }
        let rssi_offset = max_snr_scaled - max_rssi;
        readings.iter().filter_map(move |r| {
            let row = self.row_of[r.sector.raw() as usize];
            let m = r.measurement.filter(|_| row != u16::MAX)?;
            Some((
                row,
                report_scale(m.snr_db),
                (m.rssi_dbm + rssi_offset).max(0.0),
            ))
        })
    }

    /// Packs the links' readings into the active path's panels and hoists
    /// the per-link probe norms. The gather is the scalar kernel's
    /// ([`Self::usable_probes`], in f64 for every path); the values are
    /// narrowed to the path afterwards.
    fn pack(&self, s: &mut BatchScratch, links: &[&[SweepReading]]) {
        let bt = links.len();
        let len = 3 * self.n_sectors * bt;
        fit(&mut s.inv_u, bt, 0.0);
        fit(&mut s.vv_max, bt, 0.0);
        fit(&mut s.usable, bt, 0);
        match self.options.kernel_path {
            KernelPath::F64 => fit(&mut s.pnl64, len, 0.0),
            KernelPath::F32 => fit(&mut s.pnl32, len, 0.0),
            KernelPath::Q15 => fit(&mut s.pnl15, len, 0),
        }
        for (b, readings) in links.iter().enumerate() {
            let mut n = 0u32;
            let (mut us64, mut ur64) = (0.0f64, 0.0f64);
            let (mut us32, mut ur32) = (0.0f32, 0.0f32);
            let (mut us15, mut ur15) = (0i64, 0i64);
            for (row, vs, vr) in self.usable_probes(readings) {
                let idx = row as usize * 3 * bt + b;
                match self.options.kernel_path {
                    KernelPath::F64 => {
                        s.pnl64[idx] += vs;
                        s.pnl64[idx + bt] += vr;
                        s.pnl64[idx + 2 * bt] += 1.0;
                        us64 += vs * vs;
                        ur64 += vr * vr;
                    }
                    KernelPath::F32 => {
                        let (vs, vr) = (vs as f32, vr as f32);
                        s.pnl32[idx] += vs;
                        s.pnl32[idx + bt] += vr;
                        s.pnl32[idx + 2 * bt] += 1.0;
                        us32 += vs * vs;
                        ur32 += vr * vr;
                    }
                    KernelPath::Q15 => {
                        let (qs, qr) = (quantize_q15(vs), quantize_q15(vr));
                        s.pnl15[idx] = s.pnl15[idx].saturating_add(qs);
                        s.pnl15[idx + bt] = s.pnl15[idx + bt].saturating_add(qr);
                        s.pnl15[idx + 2 * bt] += 1;
                        us15 += i64::from(qs) * i64::from(qs);
                        ur15 += i64::from(qr) * i64::from(qr);
                    }
                }
                n += 1;
            }
            s.usable[b] = n;
            let (us, ur) = match self.options.kernel_path {
                KernelPath::F64 => (us64, ur64),
                KernelPath::F32 => (f64::from(us32), f64::from(ur32)),
                KernelPath::Q15 => (us15 as f64, ur15 as f64),
            };
            let joint = self.mode == CorrelationMode::JointSnrRssi;
            s.inv_u[b] = if us <= f64::EPSILON || (joint && ur <= f64::EPSILON) {
                0.0
            } else if joint {
                1.0 / (us * ur)
            } else {
                1.0 / us
            };
        }
    }

    /// Runs [`sweep_panel`] for the active path over `cells`.
    #[allow(clippy::too_many_arguments)]
    fn sweep(
        &self,
        s: &mut BatchScratch,
        bt: usize,
        cells: impl Iterator<Item = (usize, usize)>,
        b_lo: usize,
        b_hi: usize,
        out_stride: usize,
        coarse: bool,
    ) {
        let joint = self.mode == CorrelationMode::JointSnrRssi;
        let prior = self.options.energy_prior;
        let forced = self.forced_lanes;
        let maps = if coarse { &mut s.cmaps } else { &mut s.maps };
        let vv_max = &mut s.vv_max;
        match self.options.kernel_path {
            KernelPath::F64 => sweep_panel(
                &self.nzv64,
                &self.nz_rows,
                &self.nz_off,
                joint,
                prior,
                &s.pnl64,
                bt,
                cells,
                b_lo,
                b_hi,
                out_stride,
                forced,
                maps,
                vv_max,
            ),
            KernelPath::F32 => sweep_panel(
                &self.nzv32,
                &self.nz_rows,
                &self.nz_off,
                joint,
                prior,
                &s.pnl32,
                bt,
                cells,
                b_lo,
                b_hi,
                out_stride,
                forced,
                maps,
                vv_max,
            ),
            KernelPath::Q15 => sweep_panel(
                &self.nzv15,
                &self.nz_rows,
                &self.nz_off,
                joint,
                prior,
                &s.pnl15,
                bt,
                cells,
                b_lo,
                b_hi,
                out_stride,
                forced,
                maps,
                vv_max,
            ),
        }
    }

    /// Exhaustive pass: every grid cell for every link, then the dense
    /// per-link finish.
    fn full_pass(&self, s: &mut BatchScratch, bt: usize, out: &mut Vec<Option<LinkEstimate>>) {
        let n_grid = self.grid.len();
        self.sweep(s, bt, (0..n_grid).map(|g| (g, g)), 0, bt, n_grid, false);
        for b in 0..bt {
            out.push(self.finish_link_dense(s, b));
        }
    }

    /// Finishes link `b` of a dense sweep up to the argmax input: the
    /// sweep already wrote the prior-tilted (unnormalized) map, so only
    /// smoothing runs here, leaving the argmax input in `s.smoothed`
    /// (smoothing on) or the link's `s.maps` window (off). Returns the
    /// per-link score normalizer `vv_max^{-1/8}` — the deferred constant
    /// factor of the energy prior `(vv/vv_max)^{1/8}` (1.0 with the prior
    /// off) — or `None` when the link is degenerate (fewer than two
    /// usable probes, or zero expected energy everywhere).
    fn dense_finalize(&self, s: &mut BatchScratch, b: usize) -> Option<f64> {
        let inv_norm = self.dense_norm(s, b)?;
        let n_grid = self.grid.len();
        let base = b * n_grid;
        let map = &s.maps[base..base + n_grid];
        if self.options.smoothing {
            // The F64 path keeps division-form smoothing (bit parity with
            // the scalar kernel and recorded traces); the quantized paths
            // take the reciprocal-multiply variant, whose one-ulp drift
            // is invisible at their documented tolerances.
            let (n_az, n_el) = (self.grid.az.len(), self.grid.el.len());
            match self.options.kernel_path {
                KernelPath::F64 => smooth_map_into(map, n_az, n_el, &mut s.smoothed),
                _ => smooth_map_into_mul(map, n_az, n_el, &mut s.smoothed),
            }
        }
        Some(inv_norm)
    }

    /// The score normalizer of link `b` of a dense sweep (see
    /// [`Self::dense_finalize`]), or `None` when the link is degenerate.
    fn dense_norm(&self, s: &BatchScratch, b: usize) -> Option<f64> {
        if s.usable[b] < 2 || s.inv_u[b] == 0.0 {
            // A degenerate probe norm zeroes the scalar kernel's whole
            // map, which can never win the `> 0` argmax check — bail
            // before looking at the (unscaled) sweep output.
            return None;
        }
        let vv_max = s.vv_max[b];
        if vv_max.sqrt() <= f64::EPSILON {
            return None;
        }
        Some(if self.options.energy_prior {
            s.inv_u[b] / vv_max.sqrt().sqrt().sqrt()
        } else {
            s.inv_u[b]
        })
    }

    /// Per-link dense finish: energy prior, smoothing, argmax, parabolic
    /// refinement — identical logic (and, on the `F64` path, matching
    /// arithmetic to ≤ 1e-12) to the scalar `estimate_with`.
    fn finish_link_dense(&self, s: &mut BatchScratch, b: usize) -> Option<LinkEstimate> {
        let inv_norm = self.dense_finalize(s, b)?;
        let n_grid = self.grid.len();
        let base = b * n_grid;
        let final_map: &[f64] = if self.options.smoothing {
            &s.smoothed
        } else {
            &s.maps[base..base + n_grid]
        };
        // Two-pass branchless argmax: an 8-lane max fold (maps are
        // NaN-free, so `max` is order-insensitive and the split chain
        // both vectorizes and breaks the serial `maxsd` dependency),
        // then the last index attaining it — the same
        // highest-index-among-equals tie-break as `Iterator::max_by`.
        let mut lanes = [f64::NEG_INFINITY; 8];
        let chunks = final_map.chunks_exact(8);
        let tail = chunks.remainder();
        for c in chunks {
            for (m, &w) in lanes.iter_mut().zip(c) {
                *m = m.max(w);
            }
        }
        let mut best_w = tail.iter().fold(f64::NEG_INFINITY, |m, &w| m.max(w));
        for m in lanes {
            best_w = best_w.max(m);
        }
        let mut best_i = 0usize;
        for (i, &w) in final_map.iter().enumerate() {
            if w == best_w {
                best_i = i;
            }
        }
        if best_w <= 0.0 {
            return None;
        }
        Some(self.refine(best_i, best_w, inv_norm, |i| Some(final_map[i])))
    }

    /// Dense final correlation map of a single link — the exact argmax
    /// input of the unpruned finish, on the active kernel path. With the
    /// energy prior on, values carry the *unnormalized* tilt `w·vv^{1/8}`
    /// (the per-link `vv_max^{-1/8}` normalizer is deferred to the
    /// reported score and never materialized in the map). `None` when the
    /// link is degenerate. Meant for golden tests and debugging (ignores
    /// any prune configuration); production callers want
    /// [`Self::estimate_batch`].
    pub fn final_map_one(
        &self,
        s: &mut BatchScratch,
        readings: &[SweepReading],
    ) -> Option<Vec<f64>> {
        let links: [&[SweepReading]; 1] = [readings];
        let n_grid = self.grid.len();
        self.pack(s, &links);
        if s.maps.len() < n_grid {
            s.maps.resize(n_grid, 0.0);
        }
        if s.smoothed.len() < n_grid {
            s.smoothed.resize(n_grid, 0.0);
        }
        self.sweep(s, 1, (0..n_grid).map(|g| (g, g)), 0, 1, n_grid, false);
        self.dense_finalize(s, 0)?;
        Some(if self.options.smoothing {
            s.smoothed[..n_grid].to_vec()
        } else {
            s.maps[..n_grid].to_vec()
        })
    }

    /// Coarse-to-fine pass: rank the decimated lattice per link, then
    /// recompute only the top-K neighbourhoods with the exact full-pass
    /// arithmetic.
    fn pruned_pass(&self, s: &mut BatchScratch, bt: usize, out: &mut Vec<Option<LinkEstimate>>) {
        let plan = self.prune.as_ref().expect("pruned_pass requires a plan");
        let n_grid = self.grid.len();
        let (n_az, n_el) = (self.grid.az.len(), self.grid.el.len());
        let n_c = plan.coarse.len();
        let need = bt * n_c;
        if s.cmaps.len() < need {
            s.cmaps.resize(need, 0.0);
        }
        if s.mark_raw.len() < n_grid {
            s.mark_raw.resize(n_grid, 0);
            s.mark_sm.resize(n_grid, 0);
            s.mark_sel.resize(n_grid, 0);
        }
        // Stage 1: score the whole coarse lattice for every link in one
        // batched sweep.
        let coarse_cells = plan
            .coarse
            .iter()
            .enumerate()
            .map(|(ci, &g)| (g as usize, ci));
        self.sweep(s, bt, coarse_cells, 0, bt, n_c, true);
        for b in 0..bt {
            out.push(self.finish_link_pruned(s, b, bt, plan, n_az, n_el));
        }
    }

    /// Stage 2 for one link: select top-K coarse cells, mark their padded
    /// neighbourhoods, recompute those cells exactly, and run the usual
    /// finish restricted to the marked sets.
    fn finish_link_pruned(
        &self,
        s: &mut BatchScratch,
        b: usize,
        bt: usize,
        plan: &PrunePlan,
        n_az: usize,
        n_el: usize,
    ) -> Option<LinkEstimate> {
        if s.usable[b] < 2 || s.inv_u[b] == 0.0 {
            // Same degenerate-probe-norm bail as the dense finish.
            return None;
        }
        let n_grid = self.grid.len();
        let n_c = plan.coarse.len();
        // Rank coarse cells directly on the sweep output: with the prior
        // on it is already the *unnormalized* tilt `w·vv^{1/8}`, and the
        // normalizer is a per-link constant — it cannot reorder cells.
        s.ranked.clear();
        for (ci, &g) in plan.coarse.iter().enumerate() {
            s.ranked.push((s.cmaps[b * n_c + ci], g));
        }
        s.ranked.sort_by(|x, y| {
            y.0.partial_cmp(&x.0)
                .expect("correlation is finite")
                .then(x.1.cmp(&y.1))
        });
        s.ranked.truncate(plan.top_k);
        // Mark the padded neighbourhood of every selected coarse cell.
        s.stamp = s.stamp.wrapping_add(1);
        let stamp = s.stamp;
        s.cand.clear();
        for &(_, g) in &s.ranked {
            let (e0, a0) = (g as usize / n_az, g as usize % n_az);
            for e in e0.saturating_sub(plan.r_raw)..=(e0 + plan.r_raw).min(n_el - 1) {
                for a in a0.saturating_sub(plan.r_raw)..=(a0 + plan.r_raw).min(n_az - 1) {
                    let gg = e * n_az + a;
                    if s.mark_raw[gg] != stamp {
                        s.mark_raw[gg] = stamp;
                        s.cand.push(gg as u32);
                    }
                    let d = e.abs_diff(e0).max(a.abs_diff(a0));
                    if d <= plan.r_sm {
                        s.mark_sm[gg] = stamp;
                    }
                    if d <= plan.r_sel {
                        s.mark_sel[gg] = stamp;
                    }
                }
            }
        }
        s.cand.sort_unstable();
        // Recompute the candidate cells with the exact full-pass
        // arithmetic (same kernel, lane width 1 for a single link). The
        // per-link energy max is reset first so the sweep folds the
        // *local* maximum over exactly the candidate set (ascending, the
        // same order a scan over materialized energies would use).
        let cand = std::mem::take(&mut s.cand);
        s.vv_max[b] = 0.0;
        self.sweep(
            s,
            bt,
            cand.iter().map(|&g| (g as usize, g as usize)),
            b,
            b + 1,
            n_grid,
            false,
        );
        s.cand = cand;
        let base = b * n_grid;
        let vv_max = s.vv_max[b];
        if vv_max.sqrt() <= f64::EPSILON {
            return None;
        }
        // The sweep already wrote the prior-tilted maps; the deferred
        // probe-norm factor and the prior normalizer (local to the
        // refined set — see `LinkEstimate::score`) apply to the winning
        // score at the end.
        let inv_norm = if self.options.energy_prior {
            s.inv_u[b] / vv_max.sqrt().sqrt().sqrt()
        } else {
            s.inv_u[b]
        };
        // Smoothing over the eligible cells; the (border-clamped) 3×3
        // ring of an `r_sm` cell lies inside the `r_raw` set.
        if self.options.smoothing {
            for &g in &s.cand {
                let g = g as usize;
                if s.mark_sm[g] != stamp {
                    continue;
                }
                let (e, a) = (g / n_az, g % n_az);
                let mut acc = 0.0;
                let mut cnt = 0.0;
                for de in e.saturating_sub(1)..=(e + 1).min(n_el - 1) {
                    for da in a.saturating_sub(1)..=(a + 1).min(n_az - 1) {
                        acc += s.maps[base + de * n_az + da];
                        cnt += 1.0;
                    }
                }
                s.smoothed[g] = acc / cnt;
            }
        }
        // Argmax over the selection-eligible cells, ascending index with
        // `>=` replacement — the same last-max tie-break as `max_by`.
        let mut best: Option<(usize, f64)> = None;
        for &g in &s.cand {
            let g = g as usize;
            if s.mark_sel[g] != stamp {
                continue;
            }
            let w = if self.options.smoothing {
                s.smoothed[g]
            } else {
                s.maps[base + g]
            };
            best = match best {
                Some((_, bw)) if w < bw => best,
                _ => Some((g, w)),
            };
        }
        let (best_i, best_w) = best?;
        if best_w <= 0.0 {
            return None;
        }
        let smoothing = self.options.smoothing;
        let maps = &s.maps;
        let smoothed = &s.smoothed;
        let mark_sm = &s.mark_sm;
        let mark_raw = &s.mark_raw;
        let value_at = |i: usize| {
            if smoothing {
                (mark_sm[i] == stamp).then(|| smoothed[i])
            } else {
                (mark_raw[i] == stamp).then(|| maps[base + i])
            }
        };
        Some(self.refine(best_i, best_w, inv_norm, value_at))
    }

    /// Parabolic sub-cell refinement shared by the dense and pruned
    /// finishes. `value_at` yields the final-map value of a neighbour cell
    /// (None = unavailable, treated like a grid border: no refinement on
    /// that axis — the pruned padding makes this unreachable in practice).
    /// `best_w` and the neighbour values share the map's unnormalized
    /// scale (the parabolic offset is scale-invariant); `inv_norm` is the
    /// deferred per-link prior normalizer applied to the reported score.
    fn refine(
        &self,
        best_i: usize,
        best_w: f64,
        inv_norm: f64,
        value_at: impl Fn(usize) -> Option<f64>,
    ) -> LinkEstimate {
        let n_az = self.grid.az.len();
        let (el_i, az_i) = (best_i / n_az, best_i % n_az);
        let coarse = self.grid.direction(best_i);
        if !self.options.subcell_refinement {
            return LinkEstimate {
                direction: coarse,
                score: best_w * inv_norm,
                cell: best_i,
            };
        }
        let az_off = if az_i > 0 && az_i + 1 < n_az {
            match (value_at(best_i - 1), value_at(best_i + 1)) {
                (Some(l), Some(r)) => parabolic_offset(l, best_w, r),
                _ => 0.0,
            }
        } else {
            0.0
        };
        let el_off = if el_i > 0 && el_i + 1 < self.grid.el.len() {
            match (value_at(best_i - n_az), value_at(best_i + n_az)) {
                (Some(l), Some(r)) => parabolic_offset(l, best_w, r),
                _ => 0.0,
            }
        } else {
            0.0
        };
        LinkEstimate {
            direction: Direction::new(
                coarse.az_deg + az_off * self.grid.az.step_deg,
                coarse.el_deg + el_off * self.grid.el.step_deg,
            ),
            score: best_w * inv_norm,
            cell: best_i,
        }
    }
}

/// Resizes `buf` to exactly `len` entries of `fill` (clearing first, so
/// stale values never leak between batches of different shapes).
fn fit<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.resize(len, fill);
}
