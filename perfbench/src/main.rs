//! The repository's benchmark: one CSS decision, end to end and per
//! layer, on three seeded workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload session|fleet|replay --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics with no span
//! recording. With `--trace 1` it measures the workload untraced for the
//! first half of the time and traced for the second, and reports the
//! per-layer metrics from the spans plus the traced/untraced throughput
//! ratio. A human-readable table goes to stderr; stdout ends with a
//! stamp line and then the result line. The process exits non-zero when
//! an output check fails. `perfbench/README.md` describes the workloads
//! and metrics.

mod calib;
mod fleet;
mod gen;
mod replay;
mod session;
mod spans;
mod stamp;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up repetitions in an end-to-end run; `setup_s` is their median.
const SETUP_REPS: usize = 7;

/// The end-to-end metrics, with their units (as in `BENCHMARK.json`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("decisions_per_s", "1/s"),
    ("decision_p50_us", "us"),
    ("airtime_us", "sim_us"),
    ("snr_loss_db", "dB"),
    ("misselect_ratio", "ratio"),
    ("ok_ratio", "ratio"),
    ("bytes_per_decision", "B"),
    ("rss_peak_mb", "MB"),
];

/// The per-layer metrics, with their units (as in `BENCHMARK.json`).
/// A layer a workload does not run reports 0 with 0 samples.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("mac.sls_run_us", "us"),
    ("mac.frames", "count"),
    ("wil6210.drain_us", "us"),
    ("wil6210.drained_entries", "count"),
    ("wil6210.ring_overwritten", "count"),
    ("wil6210.wmi_us", "us"),
    ("css.select_us", "us"),
    ("css.estimate_us", "us"),
    ("css.batch_us", "us"),
    ("css.estimate_ns_per_link", "ns"),
    ("css.batch_scalar_ulp_diffs", "count"),
    ("chamber.patterns_s", "s"),
    ("chamber.best_sector_ns", "ns"),
    ("channel.sweep_us", "us"),
    ("obs.decision_write_us", "us"),
    ("obs.event_write_us", "us"),
    ("obs.events_per_decision", "count"),
    ("obs.bytes_written", "B"),
    ("obs.css_fallbacks", "count"),
    ("obs.health_anomalies", "count"),
    ("obs.decode_us", "us"),
    ("obs.frames_decoded", "count"),
    ("obs.frames_skipped", "count"),
    ("eval.replay_chunk_us", "us"),
    ("eval.worker_busy_ns", "ns"),
    ("eval.worker_idle_ns", "ns"),
    ("eval.worker_imbalance_ppm", "ppm"),
    ("eval.divergent", "count"),
    ("eval.digest_mismatches", "count"),
    ("eval.max_abs_err", "abs"),
    ("bench.trace_overhead_ratio", "ratio"),
    ("bench.decision_p50_us", "us"),
    ("bench.untraced_p99_us", "us"),
    ("bench.decision_accounted_ratio", "ratio"),
    ("self.bench_us", "us"),
    ("self.mac_us", "us"),
    ("self.wil6210_us", "us"),
    ("self.css_us", "us"),
    ("self.chamber_us", "us"),
    ("self.obs_us", "us"),
    ("self.eval_us", "us"),
];

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One station's closed-loop CSS session through MAC, firmware and
    /// driver, with the decision trace on.
    Session,
    /// Batched estimation for a few thousand links, no trace.
    Fleet,
    /// Offline streaming replay of a recorded binary trace.
    Replay,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "session" => Some(Workload::Session),
            "fleet" => Some(Workload::Fleet),
            "replay" => Some(Workload::Replay),
            _ => None,
        }
    }

    /// The name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Session => "session",
            Workload::Fleet => "fleet",
            Workload::Replay => "replay",
        }
    }
}

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// What to run.
    pub workload: Workload,
    /// Seed of the generated inputs.
    pub seed: u64,
    /// Length of the measured part of the run.
    pub measure: Duration,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Config {
    /// Where the run keeps its files (traces, span logs).
    pub fn out_dir(&self) -> Result<PathBuf, String> {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Samples the value was computed from.
    pub samples: u64,
}

/// Shorthand for a [`Metric`].
pub fn metric(name: &'static str, value: f64, samples: u64) -> Metric {
    Metric {
        name,
        value,
        samples,
    }
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (decisions, plus output checks).
    pub attempted: u64,
    /// Operations whose output check failed.
    pub failed: u64,
    /// The first failures, for the error report.
    pub failures: Vec<String>,
    /// End-to-end or per-layer metrics, depending on the run.
    pub metrics: Vec<Metric>,
    /// Workload sizes for the stamp.
    pub sizes: Vec<(&'static str, u64)>,
    /// Further figures for the stamp line, as JSON values.
    pub notes: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Counts one checked operation; `ok == false` records a failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(what());
            }
        }
    }

    /// Appends a metric.
    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }
}

/// Runs `setup` [`SETUP_REPS`] times (once in a traced run), returning
/// the last result, and the scaled and the wall time of every repetition,
/// s. The host-speed reference runs three times before and three times
/// after each repetition; their median scales it.
pub fn repeat_setup<T>(
    cfg: &Config,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(T, SetupTimes), String> {
    let reps = if cfg.trace { 1 } else { SETUP_REPS };
    let mut times = SetupTimes::default();
    let mut last = None;
    for _ in 0..reps {
        // Drop the previous set-up first, so each repetition starts from
        // the same memory state.
        drop(last.take());
        let mut references: Vec<f64> = (0..3).map(|_| calib::reference_ns()).collect();
        let t = Instant::now();
        last = Some(setup()?);
        let wall = t.elapsed().as_secs_f64();
        references.extend((0..3).map(|_| calib::reference_ns()));
        times.wall_s.push(wall);
        times.scaled_s.push(wall * calib::scale(&references));
    }
    Ok((last.expect("at least one set-up repetition"), times))
}

/// The times of the set-up repetitions, s.
#[derive(Debug, Default)]
pub struct SetupTimes {
    /// Scaled to reference speed.
    pub scaled_s: Vec<f64>,
    /// As measured.
    pub wall_s: Vec<f64>,
}

/// Pushes `setup_s`, the median of the scaled set-up times, and notes
/// every repetition, scaled and as measured, in the stamp.
pub fn push_setup(out: &mut Outcome, times: &SetupTimes) {
    out.push(metric(
        "setup_s",
        stats::median(&times.scaled_s),
        times.scaled_s.len() as u64,
    ));
    out.notes
        .push(("setup_reps_s", json_list(&times.scaled_s, 6)));
    out.notes
        .push(("setup_reps_wall_s", json_list(&times.wall_s, 6)));
}

/// A JSON list of numbers with `decimals` decimals.
fn json_list(values: &[f64], decimals: usize) -> String {
    let items: Vec<String> = values.iter().map(|v| format!("{v:.decimals$}")).collect();
    format!("[{}]", items.join(","))
}

/// Median duration of the spans named `name`, in microseconds, and how
/// many there were.
pub fn span_p50_us(a: &mut spans::Analysis, name: &str) -> (f64, u64) {
    match a.by_name.get_mut(name) {
        Some(v) if !v.is_empty() => {
            v.sort_unstable();
            let n = v.len();
            (v[(n - 1) / 2] as f64 / 1e3, n as u64)
        }
        _ => (0.0, 0),
    }
}

/// Pushes `decisions_per_s` (decisions over the timed loop's scaled
/// time) and `decision_p50_us` (over every scaled operation of the loop);
/// notes the wall-time figures, and the loop's per-window throughput,
/// scale and 99th percentile, in the stamp.
pub fn push_timings(out: &mut Outcome, latency: &mut stats::Latency) {
    let n = latency.samples.len() as u64;
    out.push(metric(
        "decisions_per_s",
        latency.per_s(),
        latency.decisions(),
    ));
    out.push(metric(
        "decision_p50_us",
        latency.samples.quantile_ns(0.5) / 1e3,
        n,
    ));
    let wall = format!(
        "{{\"decisions_per_s\":{},\"decision_p50_us\":{},\"decision_p99_us\":{}}}",
        latency.raw_per_s(),
        latency.raw.quantile_ns(0.5) / 1e3,
        latency.raw.quantile_ns(0.99) / 1e3
    );
    out.notes.push(("wall", wall));
    out.notes
        .push(("window_per_s", json_list(latency.window_per_s(), 0)));
    out.notes
        .push(("window_scale", json_list(latency.window_scale(), 3)));
    let p99_us: Vec<f64> = latency.window_p99_ns().iter().map(|ns| ns / 1e3).collect();
    out.notes.push(("window_p99_us", json_list(&p99_us, 1)));
}

/// Pushes `bench.untraced_p99_us`: the scaled 99th percentile of the
/// traced run's untraced half ([`stats::Latency::p99_ns`]).
pub fn push_untraced_p99(out: &mut Outcome, untraced: &mut stats::Latency) {
    out.push(metric(
        "bench.untraced_p99_us",
        untraced.p99_ns() / 1e3,
        untraced.samples.len() as u64,
    ));
}

/// Writes the traced run's span log next to the benchmark's other output.
pub fn write_spans(cfg: &Config, log: &[spans::SpanRec]) -> Result<(), String> {
    let path = cfg
        .out_dir()?
        .join(format!("spans-{}.csv", cfg.workload.name()));
    spans::write_csv(log, &path).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// Per-decision self time of every layer of the traced loop.
pub fn push_self_times(out: &mut Outcome, a: &spans::Analysis, decisions: u64) {
    for (name, _) in PER_LAYER {
        let Some(layer) = name
            .strip_prefix("self.")
            .and_then(|n| n.strip_suffix("_us"))
        else {
            continue;
        };
        let ns = a.self_ns_by_layer.get(layer).copied().unwrap_or(0);
        out.push(metric(
            name,
            ns as f64 / 1e3 / decisions.max(1) as f64,
            decisions,
        ));
    }
}

/// Sum of every registry counter whose name starts with `prefix`.
pub fn counter_sum(snapshot: &obs::Snapshot, prefix: &str) -> u64 {
    snapshot
        .counters
        .iter()
        .filter(|(k, _)| k.starts_with(prefix))
        .map(|(_, v)| *v)
        .sum()
}

fn parse_args(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad seconds `{value}`"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got `{value}`")),
                })
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Config {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        measure: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload session|fleet|replay --seed N --seconds S --trace 0|1"
            );
            return ExitCode::from(2);
        }
    };
    let result = match cfg.workload {
        Workload::Session => session::run(&cfg),
        Workload::Fleet => fleet::run(&cfg),
        Workload::Replay => replay::run(&cfg),
    };
    let outcome = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {} workload: {e}", cfg.workload.name());
            return ExitCode::from(1);
        }
    };
    let catalog = if cfg.trace { PER_LAYER } else { END_TO_END };
    // Every catalogued metric is printed exactly once, in catalogue order;
    // a workload that does not run a layer reports it as 0 samples.
    let mut metrics = Vec::with_capacity(catalog.len());
    for &(name, unit) in catalog {
        let m = match outcome.metrics.iter().find(|m| m.name == name) {
            Some(m) => m.clone(),
            None if cfg.trace => metric(name, 0.0, 0),
            None => panic!("workload {} did not report {name}", cfg.workload.name()),
        };
        metrics.push((m, unit));
    }
    if let Some(m) = outcome
        .metrics
        .iter()
        .find(|m| !catalog.iter().any(|(n, _)| *n == m.name))
    {
        panic!("metric {} is not in the catalogue", m.name);
    }

    eprintln!(
        "{} workload, seed {}, {} s, trace {}:",
        cfg.workload.name(),
        cfg.seed,
        cfg.measure.as_secs_f64(),
        u8::from(cfg.trace)
    );
    for (m, unit) in &metrics {
        eprintln!(
            "  {:<32} {:>16.4} {:<6} ({} samples)",
            m.name, m.value, unit, m.samples
        );
    }
    for (name, value) in &outcome.notes {
        eprintln!("  {name}: {value}");
    }
    for f in &outcome.failures {
        eprintln!("  check failed: {f}");
    }
    eprintln!(
        "  checks: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );

    let samples: Vec<String> = metrics
        .iter()
        .map(|(m, _)| format!("\"{}\":{}", m.name, m.samples))
        .collect();
    let notes: String = outcome
        .notes
        .iter()
        .map(|(name, value)| format!(",\"{name}\":{value}"))
        .collect();
    println!(
        "{{\"stamp\":{},\"samples\":{{{}}}{notes}}}",
        stamp::stamp_json(&cfg, &outcome.sizes),
        samples.join(",")
    );
    let fields: Vec<String> = metrics
        .iter()
        .map(|(m, unit)| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                m.name,
                json_number(m.value)
            )
        })
        .collect();
    let correct = outcome.failed == 0 && outcome.attempted > 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        fields.join(",")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} ({unit}) missing from BENCHMARK.json"
            );
        }
        let entries = json.matches("\"unit\":").count();
        assert_eq!(entries, END_TO_END.len() + PER_LAYER.len());
    }

    #[test]
    fn args_parse_and_reject_bad_values() {
        let args = |s: &str| s.split(' ').map(String::from).collect::<Vec<_>>();
        let cfg = parse_args(&args("--workload fleet --seed 3 --seconds 2 --trace 1")).unwrap();
        assert_eq!(cfg.workload, Workload::Fleet);
        assert_eq!(cfg.seed, 3);
        assert!(cfg.trace);
        assert!(parse_args(&args("--workload nope")).is_err());
        assert!(parse_args(&args("--workload fleet --trace 2")).is_err());
        assert!(parse_args(&args("--workload fleet --seconds 0")).is_err());
        assert!(parse_args(&args("--seed 1")).is_err());
    }
}
