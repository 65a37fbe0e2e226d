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
//! Every link is scored over the whole grid, as in the paper's estimator:
//! one dense correlation and one argmax (Eqs. 2–5).

use crate::estimator::{
    parabolic_offset, report_scale, smooth_map_into, top_cells_into, CompressiveEstimator,
    CorrelationMode, EstimatorOptions, KernelClosure, KernelPath,
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

/// Sweeps the panel of `bt` links against the whole grid, writing the
/// correlation `w` (prior-tilted when `prior` is set) of every (cell,
/// link) pair link-major into `maps[b * n_grid + g]`, and folding each
/// link's maximum pattern energy `max_g ‖x_g‖²` into `vv_max` (cells
/// ascending — the same fold order, hence the same bits, as a scan over a
/// materialized energy row would produce). `vvm` is the fold's `W`-width
/// scratch.
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
    bt: usize,
    forced: Option<usize>,
    maps: &mut [f64],
    vvm: &mut Vec<T::W>,
    vv_max: &mut [f64],
) {
    /// One (cell, lane-group) tail. The running energy max folds in `W`
    /// width into the per-link `vvm` — for `F64` and `F32` bit-equal to
    /// an f64 fold (the f32→f64 conversion is exact and `max` commutes
    /// with it); for `Q15` the i32→f32 rounding perturbs the normalizer
    /// by ≤ 6e-8 relative, noise against that path's 0.05 gate.
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
        bt: usize,
        g: usize,
        n_grid: usize,
        maps: &mut [f64],
        vvm: &mut [T::W],
    ) {
        let (uvs, uvr, vv) = gemm_point::<T, L>(vals, rows, pnl, b0, bt, JOINT);
        let vvm = &mut vvm[b0..b0 + L];
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
            maps[(b0 + l) * n_grid + g] = w[l].to_f64();
        }
    }
    #[allow(clippy::too_many_arguments)]
    fn run<T: PanelElem, const JOINT: bool, const PRIOR: bool>(
        nz_vals: &[T],
        nz_rows: &[u16],
        nz_off: &[u32],
        pnl: &[T],
        bt: usize,
        forced: Option<usize>,
        maps: &mut [f64],
        vvm: &mut [T::W],
    ) {
        let n_grid = nz_off.len() - 1;
        for g in 0..n_grid {
            let (lo, hi) = (nz_off[g] as usize, nz_off[g + 1] as usize);
            let (vals, rows) = (&nz_vals[lo..hi], &nz_rows[lo..hi]);
            let mut b0 = 0;
            while b0 < bt {
                let lanes = lane_width(bt - b0, forced);
                match lanes {
                    16 => {
                        emit::<T, 16, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm)
                    }
                    8 => emit::<T, 8, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                    4 => emit::<T, 4, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                    _ => emit::<T, 1, JOINT, PRIOR>(vals, rows, pnl, b0, bt, g, n_grid, maps, vvm),
                }
                b0 += lanes;
            }
        }
    }
    fit(vvm, bt, T::W::ZERO);
    match (joint, prior) {
        (true, true) => run::<T, true, true>(nz_vals, nz_rows, nz_off, pnl, bt, forced, maps, vvm),
        (true, false) => {
            run::<T, true, false>(nz_vals, nz_rows, nz_off, pnl, bt, forced, maps, vvm)
        }
        (false, true) => {
            run::<T, false, true>(nz_vals, nz_rows, nz_off, pnl, bt, forced, maps, vvm)
        }
        (false, false) => {
            run::<T, false, false>(nz_vals, nz_rows, nz_off, pnl, bt, forced, maps, vvm)
        }
    }
    // Merge the `W`-width folds into the per-link f64 maxima (exact for
    // every `W`; `max(0, x) = x` for the non-negative energies).
    for (m, &v) in vv_max.iter_mut().zip(vvm.iter()) {
        *m = m.max(v.to_f64());
    }
}

/// One link's estimate out of a batched sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkEstimate {
    /// Estimated angle of arrival (sub-cell refined when enabled).
    pub direction: Direction,
    /// Final map weight of the winning cell (post prior and smoothing).
    pub score: f64,
    /// Winning grid cell (pre-refinement argmax).
    pub cell: usize,
}

/// Reusable buffers of [`BatchEstimator::estimate_batch_into`]: probe
/// panels for each precision, per-link norms and energy maxima, and the
/// per-link correlation maps. A warm scratch allocates nothing.
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
    /// Link-major correlation maps (`maps[b * n_grid + g]`).
    maps: Vec<f64>,
    /// Per-link maximum pattern energy `max_g ‖x_g‖²`, folded inside the
    /// sweep.
    vv_max: Vec<f64>,
    // The sweep's `W`-width energy folds: f64 for `F64`, f32 for the
    // reduced-precision paths.
    vvm64: Vec<f64>,
    vvm32: Vec<f32>,
    /// Per-link smoothing output (one grid).
    smoothed: Vec<f64>,
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
            forced_lanes: None,
            ctr_links: obs::counter("css.batch_estimates"),
            ctr_sweeps: obs::counter("css.batch_sweeps"),
        }
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
            let _span = self.sweep_links(&mut s, &[readings]);
            self.finish_link(&mut s, 0)
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
    /// two probes were usable.
    pub fn estimate_one_recorded(
        &self,
        readings: &[SweepReading],
        k: usize,
    ) -> (Option<LinkEstimate>, KernelClosure) {
        THREAD_BATCH_SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            let estimate = {
                let _span = self.sweep_links(&mut s, &[readings]);
                self.finish_link(&mut s, 0)
            };
            (estimate, self.link_closure(&mut s, readings, k))
        })
    }

    /// The closure of link 0 after a single-link pass.
    fn link_closure(
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
        let (top_cells, top_weights) = match self.link_norm(s, 0) {
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
    /// gains matrix once, then finishes each link (energy prior,
    /// smoothing, argmax, parabolic refinement) in f64. `out` receives
    /// exactly one entry per link, in order.
    pub fn estimate_batch_into(
        &self,
        s: &mut BatchScratch,
        links: &[&[SweepReading]],
        out: &mut Vec<Option<LinkEstimate>>,
    ) {
        out.clear();
        let _span = self.sweep_links(s, links);
        for b in 0..links.len() {
            out.push(self.finish_link(s, b));
        }
    }

    /// Packs the links' panels and sweeps them over the whole grid,
    /// leaving every link's map in `s.maps`. Returns the batch's trace
    /// span (while a sink records), which the caller holds across the
    /// per-link finish.
    fn sweep_links(&self, s: &mut BatchScratch, links: &[&[SweepReading]]) -> Option<obs::Span> {
        let bt = links.len();
        if bt == 0 {
            return None;
        }
        self.ctr_sweeps.inc();
        self.ctr_links.add(bt as u64);
        let mut span = obs::sink_active().then(|| obs::span("css.estimate_batch"));
        if let Some(sp) = &mut span {
            sp.field("batch", bt as f64);
        }
        let n_grid = self.grid.len();
        self.pack(s, links);
        if s.maps.len() < bt * n_grid {
            s.maps.resize(bt * n_grid, 0.0);
        }
        if s.smoothed.len() < n_grid {
            s.smoothed.resize(n_grid, 0.0);
        }
        self.sweep(s, bt);
        span
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

    /// Runs [`sweep_panel`] for the active path over the whole grid.
    fn sweep(&self, s: &mut BatchScratch, bt: usize) {
        let joint = self.mode == CorrelationMode::JointSnrRssi;
        let prior = self.options.energy_prior;
        let forced = self.forced_lanes;
        let (maps, vv_max) = (&mut s.maps, &mut s.vv_max);
        let (rows, off) = (&self.nz_rows, &self.nz_off);
        match self.options.kernel_path {
            KernelPath::F64 => sweep_panel(
                &self.nzv64,
                rows,
                off,
                joint,
                prior,
                &s.pnl64,
                bt,
                forced,
                maps,
                &mut s.vvm64,
                vv_max,
            ),
            KernelPath::F32 => sweep_panel(
                &self.nzv32,
                rows,
                off,
                joint,
                prior,
                &s.pnl32,
                bt,
                forced,
                maps,
                &mut s.vvm32,
                vv_max,
            ),
            KernelPath::Q15 => sweep_panel(
                &self.nzv15,
                rows,
                off,
                joint,
                prior,
                &s.pnl15,
                bt,
                forced,
                maps,
                &mut s.vvm32,
                vv_max,
            ),
        }
    }

    /// Finishes link `b` of a sweep up to the argmax input: the sweep
    /// already wrote the prior-tilted (unnormalized) map, so only
    /// smoothing runs here, leaving the argmax input in `s.smoothed`
    /// (smoothing on) or the link's `s.maps` window (off). Returns the
    /// per-link score normalizer (see [`Self::link_norm`]), or `None` when
    /// the link is degenerate.
    fn smooth_link(&self, s: &mut BatchScratch, b: usize) -> Option<f64> {
        let inv_norm = self.link_norm(s, b)?;
        let n_grid = self.grid.len();
        let map = &s.maps[b * n_grid..(b + 1) * n_grid];
        if self.options.smoothing {
            // The F64 path keeps division-form smoothing (bit parity with
            // the scalar kernel and recorded traces); the quantized paths
            // take the reciprocal-multiply form, whose one-ulp drift is
            // invisible at their documented tolerances.
            let (n_az, n_el) = (self.grid.az.len(), self.grid.el.len());
            match self.options.kernel_path {
                KernelPath::F64 => smooth_map_into::<false>(map, n_az, n_el, &mut s.smoothed),
                _ => smooth_map_into::<true>(map, n_az, n_el, &mut s.smoothed),
            }
        }
        Some(inv_norm)
    }

    /// The score normalizer of link `b`: the deferred probe-norm factor
    /// `inv_u` times, with the energy prior on, the deferred constant
    /// `vv_max^{-1/8}` of the prior `(vv/vv_max)^{1/8}`. `None` when the
    /// link is degenerate (fewer than two usable probes, or zero expected
    /// energy everywhere).
    fn link_norm(&self, s: &BatchScratch, b: usize) -> Option<f64> {
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

    /// Per-link finish: energy prior, smoothing, argmax, parabolic
    /// refinement — identical logic (and, on the `F64` path, matching
    /// arithmetic to ≤ 1e-12) to the scalar `estimate_with`.
    fn finish_link(&self, s: &mut BatchScratch, b: usize) -> Option<LinkEstimate> {
        let inv_norm = self.smooth_link(s, b)?;
        let n_grid = self.grid.len();
        let final_map: &[f64] = if self.options.smoothing {
            &s.smoothed[..n_grid]
        } else {
            &s.maps[b * n_grid..(b + 1) * n_grid]
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
        Some(refine(
            &self.grid,
            self.options.subcell_refinement,
            final_map,
            best_i,
            best_w,
            inv_norm,
        ))
    }

    /// Final correlation map of a single link — the exact argmax input of
    /// the finish, on the active kernel path. With the energy prior on,
    /// values carry the *unnormalized* tilt `w·vv^{1/8}` (the per-link
    /// `vv_max^{-1/8}` normalizer is deferred to the reported score and
    /// never materialized in the map). `None` when the link is
    /// degenerate. Meant for golden tests and debugging; production
    /// callers want [`Self::estimate_batch`].
    pub fn final_map_one(
        &self,
        s: &mut BatchScratch,
        readings: &[SweepReading],
    ) -> Option<Vec<f64>> {
        let n_grid = self.grid.len();
        self.sweep_links(s, &[readings]);
        self.smooth_link(s, 0)?;
        Some(if self.options.smoothing {
            s.smoothed[..n_grid].to_vec()
        } else {
            s.maps[..n_grid].to_vec()
        })
    }
}

/// The sub-cell offsets `(az, el)`, in cells ∈ [−0.5, 0.5], of the
/// parabolas through the argmax `best_i` of `map` and its azimuth and
/// elevation neighbours; 0 on an axis where the cell sits on the grid
/// border.
pub(crate) fn subcell_offsets(
    grid: &geom::sphere::SphericalGrid,
    map: &[f64],
    best_i: usize,
    best_w: f64,
) -> (f64, f64) {
    let n_az = grid.az.len();
    let (el_i, az_i) = (best_i / n_az, best_i % n_az);
    let az_off = if az_i > 0 && az_i + 1 < n_az {
        parabolic_offset(map[best_i - 1], best_w, map[best_i + 1])
    } else {
        0.0
    };
    let el_off = if el_i > 0 && el_i + 1 < grid.el.len() {
        parabolic_offset(map[best_i - n_az], best_w, map[best_i + n_az])
    } else {
        0.0
    };
    (az_off, el_off)
}

/// The one finish of both kernels: the argmax cell `best_i` of the final
/// map, refined to sub-cell precision when `subcell` is set (see
/// [`subcell_offsets`]). `best_w` and the map share one scale (the
/// parabolic offset is scale-invariant); `score_factor` is the deferred
/// per-link normalizer applied to the reported score (1.0 for the scalar
/// kernel, whose map is already normalized).
pub(crate) fn refine(
    grid: &geom::sphere::SphericalGrid,
    subcell: bool,
    map: &[f64],
    best_i: usize,
    best_w: f64,
    score_factor: f64,
) -> LinkEstimate {
    let coarse = grid.direction(best_i);
    let direction = if subcell {
        let (az_off, el_off) = subcell_offsets(grid, map, best_i, best_w);
        Direction::new(
            coarse.az_deg + az_off * grid.az.step_deg,
            coarse.el_deg + el_off * grid.el.step_deg,
        )
    } else {
        coarse
    };
    LinkEstimate {
        direction,
        score: best_w * score_factor,
        cell: best_i,
    }
}

/// Resizes `buf` to exactly `len` entries of `fill` (clearing first, so
/// stale values never leak between batches of different shapes).
fn fit<T: Copy>(buf: &mut Vec<T>, len: usize, fill: T) {
    buf.clear();
    buf.resize(len, fill);
}
