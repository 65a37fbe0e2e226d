//! The `fleet` workload: batched estimation for a few thousand links,
//! with no trace sink.
//!
//! Set-up draws one M = 14 sweep per link over the lab orientation grid
//! and the exhaustive true SNR of every sector at every grid orientation.
//! The timed loop sends batches of [`BATCH`] links through
//! `BatchEstimator::estimate_batch` (f64 path) and maps each estimate to a
//! sector with `SectorPatterns::best_sector_at`; the decision latency is
//! one such batch, which is what each link in it waits for.

use crate::gen::{self, SweepInput, Truth};
use crate::session::MISSELECT_DB;
use crate::stats::Latency;
use crate::{metric, repeat_setup, spans, Config, Outcome};
use css::{BatchEstimator, BatchScratch, CompressiveEstimator, CorrelationMode, LinkEstimate};
use eval::scenario::EvalScenario;
use geom::rng::sub_rng;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy};
use mac80211ad::timing::mutual_training_time;
use rand::Rng;
use std::time::{Duration, Instant};
use talon_array::SectorId;
use talon_channel::SweepReading;

/// Links per `estimate_batch` call.
const BATCH: usize = 16;

/// Links whose batch estimate is compared with the scalar estimator.
const SAMPLE_LINKS: usize = 256;

struct Setup {
    scenario: EvalScenario,
    estimator: CompressiveEstimator,
    batch: BatchEstimator,
    links: Vec<SweepInput>,
    truth: Truth,
}

fn setup(seed: u64) -> Setup {
    let scenario = gen::scenario();
    let truth = Truth::new(&scenario, &gen::grid_orientations(&scenario));
    let links = gen::fleet_inputs(&scenario, seed, gen::FLEET_LINKS);
    let estimator = CompressiveEstimator::new(&scenario.patterns, CorrelationMode::JointSnrRssi);
    let batch = BatchEstimator::from_estimator(&estimator);
    Setup {
        scenario,
        estimator,
        batch,
        links,
        truth,
    }
}

/// The sector a link's estimate maps to; the stock argmax when the sweep
/// was too sparse to estimate, as `CompressiveSelection` does.
fn sector_of(s: &Setup, est: &Option<LinkEstimate>, readings: &[SweepReading]) -> Option<SectorId> {
    match est {
        Some(e) => s.scenario.patterns.best_sector_at(&e.direction),
        None => MaxSnrPolicy.select(readings),
    }
}

/// Tolerance of the f64 batch path against the scalar kernel (DESIGN.md,
/// "Batched estimation & precision modes").
const F64_TOL: f64 = 1e-12;

/// Whether a batch estimate meets the f64 path's documented contract
/// against the scalar kernel: the same degenerate verdict, scores within
/// [`F64_TOL`], and the same direction unless the batch's cell lies on an
/// exact plateau of the scalar map. The two kernels round the correlation
/// differently, so the last bits may differ; the benchmark counts those
/// links separately (`css.batch_scalar_ulp_diffs`).
fn agrees(
    scalar_est: &CompressiveEstimator,
    readings: &[SweepReading],
    batch: Option<LinkEstimate>,
    scalar: Option<(geom::sphere::Direction, f64)>,
) -> bool {
    match (batch, scalar) {
        (None, None) => true,
        (Some(b), Some((dir, score))) => {
            let close = (b.score - score).abs() <= F64_TOL;
            let same_dir = (b.direction.az_deg - dir.az_deg).abs() <= 1e-6
                && (b.direction.el_deg - dir.el_deg).abs() <= 1e-6;
            close
                && (same_dir || {
                    let map = scalar_est.correlation_map(readings);
                    let best = map.iter().copied().fold(0.0, f64::max);
                    map[b.cell] >= best - F64_TOL
                })
        }
        _ => false,
    }
}

/// What one stretch of batches measured.
#[derive(Default)]
struct Stretch {
    links: u64,
    latency: Latency,
}

/// The fleet's state across batches.
struct Fleet<'a> {
    s: &'a Setup,
    scratch: BatchScratch,
    /// Next batch to run (wraps around the link set).
    next: usize,
    /// Each link's sector from the untimed first pass.
    reference: Vec<Option<SectorId>>,
}

impl Fleet<'_> {
    fn batches(&self) -> usize {
        self.s.links.len().div_ceil(BATCH)
    }

    /// Runs one batch and returns its links and their sectors.
    fn batch(
        &mut self,
        st: &mut Stretch,
    ) -> (
        std::ops::Range<usize>,
        Vec<Option<SectorId>>,
        Vec<Option<LinkEstimate>>,
    ) {
        let b = self.next % self.batches();
        self.next += 1;
        let lo = b * BATCH;
        let hi = (lo + BATCH).min(self.s.links.len());
        let refs: Vec<&[SweepReading]> = self.s.links[lo..hi]
            .iter()
            .map(|l| l.readings.as_slice())
            .collect();
        let t0 = Instant::now();
        let decision = spans::span("bench.decision");
        let estimates = {
            let _s = spans::span("css.batch");
            self.s.batch.estimate_batch(&mut self.scratch, &refs)
        };
        let sectors: Vec<Option<SectorId>> = {
            let _s = spans::span("chamber.best_sector");
            estimates
                .iter()
                .zip(&refs)
                .map(|(e, r)| sector_of(self.s, e, r))
                .collect()
        };
        drop(decision);
        st.latency.push(t0, Instant::now(), (hi - lo) as u64);
        st.links += (hi - lo) as u64;
        (lo..hi, sectors, estimates)
    }

    /// Runs batches until `budget` has passed, checking every sector
    /// against the first pass.
    fn run(&mut self, budget: Duration, out: &mut Outcome) -> Stretch {
        let mut st = Stretch {
            latency: Latency::new(),
            ..Stretch::default()
        };
        let start = Instant::now();
        while start.elapsed() < budget {
            spans::set_unit(self.next as u64 + 1);
            let _root = spans::span("bench.batch");
            let (range, sectors, _) = self.batch(&mut st);
            for (link, sector) in range.zip(sectors) {
                let want = self.reference[link];
                out.check(sector == want, || {
                    format!("link {link}: sector {sector:?}, first pass chose {want:?}")
                });
            }
        }
        st.latency.finish();
        st
    }
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        spans::start();
    }
    let (s, setup_s) = repeat_setup(cfg, || Ok(setup(cfg.seed)))?;
    spans::set_enabled(false);
    let mut out = Outcome::default();
    let n_links = s.links.len();
    let mut fleet = Fleet {
        s: &s,
        scratch: BatchScratch::new(),
        next: 0,
        reference: vec![None; n_links],
    };

    // Untimed first pass: reference sectors, decision quality, and the
    // comparison with the scalar estimator on a seeded sample of links.
    let mut sample = sub_rng(cfg.seed, "perfbench-fleet-sample");
    let sampled: Vec<usize> = (0..SAMPLE_LINKS)
        .map(|_| sample.gen_range(0..n_links))
        .collect();
    let mut first = vec![None; n_links];
    let mut warm = Stretch::default();
    let (mut loss_db, mut misselected, mut airtime_us) = (0.0, 0u64, 0.0);
    for _ in 0..fleet.batches() {
        let (range, sectors, estimates) = fleet.batch(&mut warm);
        for ((link, sector), est) in range.zip(sectors).zip(estimates) {
            fleet.reference[link] = sector;
            first[link] = est;
            let loss = s.truth.loss_db(s.links[link].case, sector);
            loss_db += loss;
            misselected += u64::from(loss > MISSELECT_DB);
            airtime_us += mutual_training_time(s.links[link].readings.len()).as_us();
        }
    }
    let mut ulp_diffs = 0u64;
    for &link in &sampled {
        let readings = &s.links[link].readings;
        let scalar = s.estimator.estimate(readings);
        let batch = first[link];
        let bits = |e: Option<(geom::sphere::Direction, f64)>| {
            e.map(|(d, score)| (d.az_deg.to_bits(), d.el_deg.to_bits(), score.to_bits()))
        };
        ulp_diffs += u64::from(bits(scalar) != bits(batch.map(|e| (e.direction, e.score))));
        out.check(agrees(&s.estimator, readings, batch, scalar), || {
            format!("link {link}: batch estimate {batch:?} != scalar {scalar:?}")
        });
    }
    for (link, sector) in fleet.reference.iter().enumerate() {
        let known = sector.is_some_and(|id| s.scenario.dut.codebook.get(id).is_some());
        out.check(known, || {
            format!("link {link}: sector {sector:?} not in the DUT codebook")
        });
    }

    let budget = if cfg.trace {
        cfg.measure / 2
    } else {
        cfg.measure
    };
    let mut plain = fleet.run(budget, &mut out);
    let nl = n_links as f64;
    out.sizes = vec![
        ("links", n_links as u64),
        ("batch", BATCH as u64),
        ("grid_orientations", s.scenario.eval_grid.len() as u64),
        ("probes", gen::PROBES as u64),
        ("sampled_links", SAMPLE_LINKS as u64),
        ("decisions", plain.links),
    ];
    if !cfg.trace {
        let reading_bytes: usize = s
            .links
            .iter()
            .map(|l| std::mem::size_of_val(l.readings.as_slice()))
            .sum();
        let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
        crate::push_setup(&mut out, &setup_s);
        crate::push_timings(&mut out, &mut plain.latency);
        out.push(metric("airtime_us", airtime_us / nl, n_links as u64));
        out.push(metric("snr_loss_db", loss_db / nl, n_links as u64));
        out.push(metric(
            "misselect_ratio",
            misselected as f64 / nl,
            n_links as u64,
        ));
        out.push(metric("ok_ratio", ok, out.attempted));
        out.push(metric(
            "bytes_per_decision",
            reading_bytes as f64 / nl,
            n_links as u64,
        ));
        out.push(metric("rss_peak_mb", eval::soak::rss_peak_mb(), 1));
        return Ok(out);
    }

    let before = obs::global().snapshot();
    spans::set_enabled(true);
    let t = fleet.run(budget, &mut out);
    let log = spans::stop();
    let after = obs::global().snapshot();
    crate::write_spans(cfg, &log)?;
    let mut a = spans::analyse(&log);
    let (batch, batch_n) = crate::span_p50_us(&mut a, "css.batch");
    let (best, best_n) = crate::span_p50_us(&mut a, "chamber.best_sector");
    let (decision, decision_n) = crate::span_p50_us(&mut a, "bench.decision");
    let (sweep, sweep_n) = crate::span_p50_us(&mut a, "channel.sweep");
    let (patterns, patterns_n) = crate::span_p50_us(&mut a, "chamber.patterns");
    out.push(metric("css.batch_us", batch, batch_n));
    out.push(metric(
        "css.batch_scalar_ulp_diffs",
        ulp_diffs as f64,
        SAMPLE_LINKS as u64,
    ));
    out.push(metric(
        "css.estimate_ns_per_link",
        batch * 1e3 / BATCH as f64,
        batch_n * BATCH as u64,
    ));
    out.push(metric(
        "chamber.best_sector_ns",
        best * 1e3 / BATCH as f64,
        best_n * BATCH as u64,
    ));
    out.push(metric("chamber.patterns_s", patterns / 1e6, patterns_n));
    out.push(metric("channel.sweep_us", sweep, sweep_n));
    out.push(metric(
        "obs.css_fallbacks",
        (after.counter("css.fallbacks") - before.counter("css.fallbacks")) as f64,
        t.links,
    ));
    out.push(metric(
        "obs.health_anomalies",
        (crate::counter_sum(&after, "health.") - crate::counter_sum(&before, "health.")) as f64,
        t.links,
    ));
    out.push(metric(
        "bench.trace_overhead_ratio",
        t.latency.per_s() / plain.latency.per_s(),
        t.links,
    ));
    out.push(metric("bench.decision_p50_us", decision, decision_n));
    crate::push_untraced_p99(&mut out, &mut plain.latency);
    out.push(metric(
        "bench.decision_accounted_ratio",
        (batch + best) / decision,
        decision_n,
    ));
    crate::push_self_times(&mut out, &a, t.links);
    Ok(out)
}
