//! The `replay` workload: an offline job over a recorded binary trace.
//!
//! Set-up records a trace with the soak's record loop (`Link::sweep`, then
//! `select_from_readings` into a `BinSink`). The timed loop streams the
//! trace with `FileBinReader`, decoding inline on the coordinating
//! thread, and re-executes the decisions in chunks of [`CHUNK`] through
//! one `eval::replay::ReplaySession` on [`THREADS`] worker threads,
//! starting over at the end of the file. The decision latency is one
//! chunk (decode plus replay), which is what each decision in it waits
//! for.

use crate::gen::{self, Truth};
use crate::session::MISSELECT_DB;
use crate::stats::Latency;
use crate::{metric, repeat_setup, spans, Config, Outcome};
use css::{CompressiveSelection, CssConfig};
use eval::replay::{ReplayConfig, ReplaySession};
use eval::scenario::EvalScenario;
use mac80211ad::timing::mutual_training_time;
use obs::binfmt::FileBinReader;
use obs::{BinSink, DecisionRecord, EventSink, TraceRecord};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Decisions per `replay_chunk` call: the chunk the streaming soak feeds
/// (`eval::soak`), so `par_map` starts its workers once per 8192
/// decisions, as in the program's own streaming replay.
const CHUNK: usize = 8 * 1024;

/// Replay worker threads.
const THREADS: usize = 2;

struct Setup {
    scenario: EvalScenario,
    decisions: u64,
    trace_bytes: u64,
    loss_db: f64,
    misselected: u64,
    airtime_us: f64,
}

/// Records the trace at `path` and the quality of its decisions.
fn setup(seed: u64, path: &Path) -> Result<Setup, String> {
    let scenario = gen::scenario();
    let truth = Truth::yaw_grid(&scenario);
    let inputs = gen::replay_inputs(&scenario, seed, gen::REPLAY_DECISIONS);
    let mut css = CompressiveSelection::new(
        scenario.patterns.clone(),
        CssConfig::paper_default(),
        geom::rng::derive_seed(seed, "perfbench-replay-css"),
    );
    let sink = Arc::new(
        BinSink::create(path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
    );
    obs::set_sink(sink.clone());
    obs::decision::set_context(&format!(
        "scenario=lab,fidelity=fast,seed={}",
        gen::SCENARIO_SEED
    ));
    let (mut loss_db, mut misselected, mut airtime_us) = (0.0, 0u64, 0.0);
    for input in &inputs {
        let chosen = css.select_from_readings(&input.readings);
        let loss = truth.loss_db(input.case, chosen);
        loss_db += loss;
        misselected += u64::from(loss > MISSELECT_DB);
        airtime_us += mutual_training_time(input.readings.len()).as_us();
    }
    sink.write_snapshot(&obs::global().snapshot());
    obs::decision::set_context("");
    obs::clear_sink();
    let trace_bytes = std::fs::metadata(path)
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))?
        .len();
    Ok(Setup {
        scenario,
        decisions: inputs.len() as u64,
        trace_bytes,
        loss_db,
        misselected,
        airtime_us,
    })
}

/// What one stretch of chunks measured.
#[derive(Default)]
struct Stretch {
    decisions: u64,
    latency: Latency,
    frames: u64,
}

/// The streaming replay's state across chunks.
struct Replayer<'a> {
    s: &'a Setup,
    path: PathBuf,
    reader: FileBinReader,
    session: ReplaySession,
    chunk: Vec<DecisionRecord>,
    chunks: u64,
    /// Decisions read in the current pass over the file.
    pass_decisions: u64,
    passes: u64,
    skipped: u64,
    fed: u64,
}

impl Replayer<'_> {
    /// Decodes the next chunk, reopening the trace at its end; each
    /// complete pass must yield every recorded decision.
    fn decode(&mut self, st: &mut Stretch, out: &mut Outcome) -> Result<(), String> {
        let _s = spans::span("obs.decode");
        while self.chunk.len() < CHUNK {
            match self.reader.next_record()? {
                Some(TraceRecord::Decision(d)) => {
                    st.frames += 1;
                    self.pass_decisions += 1;
                    self.chunk.push(*d);
                }
                Some(_) => st.frames += 1,
                None => {
                    self.skipped += self.reader.skipped() as u64;
                    let (read, want) = (self.pass_decisions, self.s.decisions);
                    out.check(read == want, || {
                        format!("pass {} read {read} of {want} decisions", self.passes)
                    });
                    self.reader = FileBinReader::open(&self.path)?;
                    self.pass_decisions = 0;
                    self.passes += 1;
                }
            }
        }
        Ok(())
    }

    fn step(&mut self, st: &mut Stretch, out: &mut Outcome) -> Result<(), String> {
        self.chunks += 1;
        spans::set_unit(self.chunks);
        let _root = spans::span("bench.chunk");
        let t0 = Instant::now();
        let decision = spans::span("bench.decision");
        self.decode(st, out)?;
        {
            let _s = spans::span("eval.replay_chunk");
            self.session.replay_chunk(&self.chunk);
        }
        drop(decision);
        st.latency.push(t0, Instant::now(), self.chunk.len() as u64);
        st.decisions += self.chunk.len() as u64;
        self.fed += self.chunk.len() as u64;
        self.chunk.clear();
        Ok(())
    }

    fn run(&mut self, budget: Duration, out: &mut Outcome) -> Result<Stretch, String> {
        let mut st = Stretch {
            latency: Latency::new(),
            ..Stretch::default()
        };
        let start = Instant::now();
        while start.elapsed() < budget {
            self.step(&mut st, out)?;
        }
        st.latency.finish();
        Ok(st)
    }
}

/// Per-worker busy time (ns) the replay's `par_map` calls published
/// between two snapshots.
fn worker_busy(before: &obs::Snapshot, after: &obs::Snapshot) -> Vec<u64> {
    after
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with("worker.busy_ns"))
        .map(|(k, v)| v - before.counter(k))
        .collect()
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    let path = cfg
        .out_dir()?
        .join(format!("replay-{}.bin", std::process::id()));
    let result = run_on(cfg, &path);
    std::fs::remove_file(&path).ok();
    result
}

fn run_on(cfg: &Config, path: &Path) -> Result<Outcome, String> {
    if cfg.trace {
        spans::start();
    }
    let (s, setup_s) = repeat_setup(cfg, || setup(cfg.seed, path))?;
    spans::set_enabled(false);
    let mut out = Outcome::default();
    let mut r = Replayer {
        s: &s,
        path: path.to_path_buf(),
        reader: FileBinReader::open(path)?,
        session: ReplaySession::new(ReplayConfig {
            threads: THREADS,
            perturb_snr_db: 0.0,
            patterns_override: Some(s.scenario.patterns.clone()),
        }),
        chunk: Vec::with_capacity(CHUNK),
        chunks: 0,
        pass_decisions: 0,
        passes: 0,
        skipped: 0,
        fed: 0,
    };
    // Untimed: the first chunk builds the replay's estimator.
    r.step(&mut Stretch::default(), &mut out)?;
    let budget = if cfg.trace {
        cfg.measure / 2
    } else {
        cfg.measure
    };
    let mut plain = r.run(budget, &mut out)?;
    let traced = if cfg.trace {
        let before = obs::global().snapshot();
        spans::set_enabled(true);
        let t = r.run(budget, &mut out)?;
        let log = spans::stop();
        Some((t, log, before, obs::global().snapshot()))
    } else {
        None
    };
    let (fed, passes, chunks, skipped) = (
        r.fed,
        r.passes,
        r.chunks,
        r.skipped + r.reader.skipped() as u64,
    );
    let report = r.session.finish();

    // Every decision fed is replayed and reproduces bit for bit.
    let mut divergent: Vec<usize> = report.divergent.iter().map(|d| d.index).collect();
    divergent.dedup();
    out.attempted += fed;
    out.failed += divergent.len() as u64;
    for d in report.divergent.iter().take(4) {
        out.failures.push(format!("divergence: {d:?}"));
    }
    out.check(report.replayed as u64 == fed, || {
        format!("{} of {fed} decisions replayed", report.replayed)
    });
    out.check(report.digest_mismatches == 0, || {
        format!("{} digest mismatches", report.digest_mismatches)
    });
    out.check(report.max_abs_err == 0.0, || {
        format!("max |err| {:e}", report.max_abs_err)
    });
    out.check(skipped == 0, || {
        format!("{skipped} damaged frame(s) skipped")
    });

    out.sizes = vec![
        ("trace_decisions", s.decisions),
        ("trace_bytes", s.trace_bytes),
        ("chunk", CHUNK as u64),
        ("threads", THREADS as u64),
        ("chunks", chunks),
        ("passes", passes),
        ("decisions_replayed", fed),
    ];
    let nd = s.decisions as f64;
    match traced {
        None => {
            let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
            crate::push_setup(&mut out, &setup_s);
            crate::push_timings(&mut out, &mut plain.latency);
            out.push(metric("airtime_us", s.airtime_us / nd, s.decisions));
            out.push(metric("snr_loss_db", s.loss_db / nd, s.decisions));
            out.push(metric(
                "misselect_ratio",
                s.misselected as f64 / nd,
                s.decisions,
            ));
            out.push(metric("ok_ratio", ok, out.attempted));
            out.push(metric(
                "bytes_per_decision",
                s.trace_bytes as f64 / nd,
                s.decisions,
            ));
            out.push(metric("rss_peak_mb", eval::soak::rss_peak_mb(), 1));
        }
        Some((t, log, before, after)) => {
            crate::write_spans(cfg, &log)?;
            let mut a = spans::analyse(&log);
            let (decode, decode_n) = crate::span_p50_us(&mut a, "obs.decode");
            let (chunk, chunk_n) = crate::span_p50_us(&mut a, "eval.replay_chunk");
            let (decision, decision_n) = crate::span_p50_us(&mut a, "bench.decision");
            let (patterns, patterns_n) = crate::span_p50_us(&mut a, "chamber.patterns");
            let td = t.decisions;
            let per_decision = |ns: u64| ns as f64 / td.max(1) as f64;
            let busy = worker_busy(&before, &after);
            let max = busy.iter().copied().max().unwrap_or(0);
            let min = busy.iter().copied().min().unwrap_or(0);
            let idle = crate::counter_sum(&after, "worker.idle_ns")
                - crate::counter_sum(&before, "worker.idle_ns");
            out.push(metric("obs.decode_us", decode, decode_n));
            out.push(metric("obs.frames_decoded", t.frames as f64, t.frames));
            out.push(metric("obs.frames_skipped", skipped as f64, t.frames));
            out.push(metric("eval.replay_chunk_us", chunk, chunk_n));
            out.push(metric(
                "eval.worker_busy_ns",
                per_decision(busy.iter().sum()),
                td,
            ));
            out.push(metric("eval.worker_idle_ns", per_decision(idle), td));
            out.push(metric(
                "eval.worker_imbalance_ppm",
                if max == 0 {
                    0.0
                } else {
                    (max - min) as f64 * 1e6 / max as f64
                },
                busy.len() as u64,
            ));
            out.push(metric("eval.divergent", report.divergent.len() as f64, fed));
            out.push(metric(
                "eval.digest_mismatches",
                report.digest_mismatches as f64,
                fed,
            ));
            out.push(metric("eval.max_abs_err", report.max_abs_err, fed));
            out.push(metric("chamber.patterns_s", patterns / 1e6, patterns_n));
            out.push(metric(
                "bench.trace_overhead_ratio",
                t.latency.per_s() / plain.latency.per_s(),
                td,
            ));
            out.push(metric("bench.decision_p50_us", decision, decision_n));
            crate::push_untraced_p99(&mut out, &mut plain.latency);
            out.push(metric(
                "bench.decision_accounted_ratio",
                (decode + chunk) / decision,
                decision_n,
            ));
            crate::push_self_times(&mut out, &a, td);
        }
    }
    Ok(out)
}
