//! The `session` workload: one station's closed loop, as `talon sls
//! --policy css` wires it (the paper's §3 deployment).
//!
//! Each iteration runs one SLS in which the DUT probes a CSS subset and
//! the peer's patched firmware exports every reading to the wil6210
//! ring. User space drains the ring, decides with
//! `CompressiveSelection::select_from_readings` while a binary trace sink
//! records the decision, and arms the choice with
//! `WmiCommand::SetSectorOverride`; the next iteration's sweep carries it.
//! The decision latency is the span from the drain to the armed override.

use crate::gen::{self, SessionInputs, Truth};
use crate::stats::Latency;
use crate::{metric, repeat_setup, spans, Config, Outcome};
use css::{CompressiveSelection, CssConfig};
use eval::scenario::EvalScenario;
use mac80211ad::sls::{FeedbackPolicy, MaxSnrPolicy, SlsRunner};
use obs::{BinSink, DecisionRecord, Event, EventSink, TraceRecord};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use talon_array::SectorId;
use talon_channel::{Device, Measurement, Orientation, SweepReading};
use wil6210::{Qca9500Firmware, Wil6210Driver, WmiCommand, WmiReply};

/// Untimed sessions before the measured loop.
const WARMUP_SESSIONS: usize = 500;

/// Loss above which a decision counts as a misselection, dB (the
/// `QualityMonitor` threshold).
pub const MISSELECT_DB: f64 = 1.0;

/// The DUT's policy: probe the CSS subset, pick the peer's sector by the
/// stock argmax.
struct ProbeOnly<'a>(&'a mut CompressiveSelection);

impl FeedbackPolicy for ProbeOnly<'_> {
    fn probe_sectors(&mut self, full: &[SectorId]) -> Vec<SectorId> {
        self.0.probe_sectors(full)
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        MaxSnrPolicy.select(readings)
    }
}

/// The peer: its agent restricts the peer's own sweep to a CSS subset,
/// and the patched firmware handles the DUT's probes (export to the ring,
/// feed back the armed override).
struct FirmwareCss<'a> {
    fw: &'a Qca9500Firmware,
    agent: &'a mut CompressiveSelection,
}

impl FeedbackPolicy for FirmwareCss<'_> {
    fn probe_sectors(&mut self, full: &[SectorId]) -> Vec<SectorId> {
        self.agent.probe_sectors(full)
    }

    fn select(&mut self, readings: &[SweepReading]) -> Option<SectorId> {
        (&mut &*self.fw).select(readings)
    }
}

/// A sink that times each write into the binary trace as an `obs` span.
struct TimedSink {
    inner: Arc<BinSink>,
    events: AtomicU64,
}

impl EventSink for TimedSink {
    fn emit(&self, event: &Event) {
        let _s = spans::span("obs.event_write");
        self.events.fetch_add(1, Ordering::Relaxed);
        self.inner.emit(event);
    }

    fn emit_decision(&self, record: &DecisionRecord) {
        let _s = spans::span("obs.decision_write");
        self.inner.emit_decision(record);
    }

    fn write_snapshot(&self, snapshot: &obs::Snapshot) {
        self.inner.write_snapshot(snapshot);
    }

    fn flush(&self) {
        self.inner.flush();
    }
}

struct Setup {
    scenario: EvalScenario,
    truth: Truth,
    inputs: SessionInputs,
}

fn setup(seed: u64) -> Setup {
    let scenario = gen::scenario();
    let truth = Truth::yaw_grid(&scenario);
    Setup {
        scenario,
        truth,
        inputs: gen::session_inputs(seed),
    }
}

/// The station's state across sessions.
struct Station {
    firmware: Arc<Qca9500Firmware>,
    driver: Wil6210Driver,
    dut_side: CompressiveSelection,
    agent: CompressiveSelection,
    rng: StdRng,
    dut: Device,
    sessions: usize,
    /// Every decision, in order (`-1` for none), for the trace check.
    choices: Vec<i16>,
}

/// What one stretch of sessions measured.
#[derive(Default)]
struct Stretch {
    sessions: u64,
    latency: Latency,
    airtime_us: f64,
    loss_db: f64,
    misselected: u64,
    frames: u64,
    drained: u64,
}

impl Station {
    fn new(s: &Setup) -> Self {
        let config = CssConfig {
            num_probes: gen::PROBES,
            ..CssConfig::paper_default()
        };
        let firmware = Arc::new(Qca9500Firmware::patched());
        Station {
            driver: Wil6210Driver::new(Arc::clone(&firmware)),
            firmware,
            dut_side: CompressiveSelection::new(
                s.scenario.patterns.clone(),
                config.clone(),
                s.inputs.dut_seed,
            ),
            agent: CompressiveSelection::new(
                s.scenario.patterns.clone(),
                config,
                s.inputs.agent_seed,
            ),
            rng: StdRng::seed_from_u64(s.inputs.sls_seed),
            dut: s.scenario.dut.clone(),
            sessions: 0,
            choices: Vec::new(),
        }
    }

    /// Runs sessions until `budget` has passed, recording into `out` and
    /// counting failed WMI commands and empty decisions as failures.
    fn run(&mut self, s: &Setup, budget: Duration, traced: bool, checks: &mut Outcome) -> Stretch {
        let mut st = Stretch {
            latency: Latency::new(),
            ..Stretch::default()
        };
        let start = Instant::now();
        while start.elapsed() < budget {
            self.session(s, traced, &mut st, checks);
        }
        st.latency.finish();
        st
    }

    fn session(&mut self, s: &Setup, traced: bool, st: &mut Stretch, checks: &mut Outcome) {
        let i = self.sessions;
        self.sessions += 1;
        spans::set_unit(i as u64 + 1);
        let _root = spans::span("bench.session");
        let case = usize::from(s.inputs.yaw_idx[i % s.inputs.yaw_idx.len()]);
        self.dut.orientation = Orientation::new(gen::yaw_deg(case), 0.0);
        let runner = SlsRunner::new(&s.scenario.link, &self.dut, &s.scenario.fixed);
        let outcome = {
            let _s = spans::span("mac.sls_run");
            runner.run(
                &mut self.rng,
                &mut ProbeOnly(&mut self.dut_side),
                &mut FirmwareCss {
                    fw: &self.firmware,
                    agent: &mut self.agent,
                },
            )
        };
        let t0 = Instant::now();
        let decision = spans::span("bench.decision");
        let entries = {
            let _s = spans::span("wil6210.drain");
            self.driver.read_sweep_info()
        };
        let readings: Vec<SweepReading> = entries
            .iter()
            .map(|e| SweepReading {
                sector: e.sector,
                measurement: Some(Measurement {
                    snr_db: e.snr_db,
                    rssi_dbm: e.rssi_dbm,
                }),
            })
            .collect();
        let choice = {
            let _s = spans::span("css.select");
            self.agent.select_from_readings(&readings)
        };
        let armed = choice.map(|c| {
            let _s = spans::span("wil6210.wmi");
            self.driver.wmi(&WmiCommand::SetSectorOverride(c))
        });
        drop(decision);
        st.latency.push(t0, Instant::now(), 1);
        if traced {
            let _s = spans::span("css.estimate");
            std::hint::black_box(self.agent.estimate_direction(&readings));
        }
        st.sessions += 1;
        st.airtime_us += outcome.duration.as_us();
        st.frames += outcome.frames.len() as u64;
        st.drained += entries.len() as u64;
        let loss = s.truth.loss_db(case, choice);
        st.loss_db += loss;
        st.misselected += u64::from(loss > MISSELECT_DB);
        self.choices.push(choice.map_or(-1, |c| i16::from(c.raw())));
        checks.check(matches!(armed, Some(Ok(WmiReply::Ok))), || {
            format!("session {i}: decision {choice:?} not armed: {armed:?}")
        });
    }
}

/// Reads the trace back: one `css.select` decision per session, equal to
/// the decision made, each a sector of the DUT codebook, and no damaged
/// frame.
fn check_trace(
    path: &Path,
    station: &Station,
    dut: &Device,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut reader = obs::binfmt::FileBinReader::open(path)?;
    let mut k = 0usize;
    while let Some(record) = reader.next_record()? {
        let TraceRecord::Decision(d) = record else {
            continue;
        };
        if d.source != "css.select" {
            continue;
        }
        let made = station.choices.get(k).map(|&c| i64::from(c));
        let in_codebook = u8::try_from(d.chosen_sector)
            .ok()
            .is_some_and(|raw| dut.codebook.get(SectorId(raw)).is_some());
        out.check(made == Some(d.chosen_sector) && in_codebook, || {
            format!(
                "trace decision {k}: sector {} recorded, {made:?} made",
                d.chosen_sector
            )
        });
        k += 1;
    }
    out.check(k == station.choices.len(), || {
        format!(
            "trace holds {k} decisions for {} sessions",
            station.choices.len()
        )
    });
    out.check(reader.skipped() == 0, || {
        format!("{} damaged frame(s) in the trace", reader.skipped())
    });
    Ok(())
}

fn file_len(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

/// Runs the workload.
pub fn run(cfg: &Config) -> Result<Outcome, String> {
    if cfg.trace {
        spans::start();
    }
    let (s, setup_s) = repeat_setup(cfg, || Ok(setup(cfg.seed)))?;
    spans::set_enabled(false);
    let path = cfg
        .out_dir()?
        .join(format!("session-{}.bin", std::process::id()));
    let bin = Arc::new(
        BinSink::create(&path).map_err(|e| format!("cannot create {}: {e}", path.display()))?,
    );
    let mut out = Outcome::default();
    let mut station = Station::new(&s);
    obs::decision::set_context(&format!(
        "scenario=lab,fidelity=fast,seed={}",
        gen::SCENARIO_SEED
    ));
    obs::set_sink(bin.clone());
    let mut warm = Stretch::default();
    for _ in 0..WARMUP_SESSIONS {
        station.session(&s, false, &mut warm, &mut out);
    }
    let budget = if cfg.trace {
        cfg.measure / 2
    } else {
        cfg.measure
    };
    let mut plain = station.run(&s, budget, false, &mut out);
    let traced = if cfg.trace {
        obs::sink::flush();
        let bytes_before = file_len(&path);
        let before = obs::global().snapshot();
        let timed = Arc::new(TimedSink {
            inner: bin.clone(),
            events: AtomicU64::new(0),
        });
        obs::set_sink(timed.clone());
        spans::set_enabled(true);
        let stretch = station.run(&s, budget, true, &mut out);
        let log = spans::stop();
        obs::sink::flush();
        let after = obs::global().snapshot();
        Some((
            stretch,
            log,
            timed,
            file_len(&path) - bytes_before,
            before,
            after,
        ))
    } else {
        None
    };
    obs::clear_sink();
    obs::decision::set_context("");
    let total_bytes = file_len(&path);
    let checked = check_trace(&path, &station, &s.scenario.dut, &mut out);
    std::fs::remove_file(&path).ok();
    checked?;

    out.sizes = vec![
        ("sessions", station.sessions as u64),
        ("warmup_sessions", WARMUP_SESSIONS as u64),
        ("yaw_sequence", s.inputs.yaw_idx.len() as u64),
        ("yaw_grid_points", gen::YAW_STEPS as u64),
        ("probes", gen::PROBES as u64),
        ("trace_bytes", total_bytes),
    ];
    let n = plain.sessions;
    match traced {
        None => {
            let ok = (out.attempted - out.failed) as f64 / out.attempted.max(1) as f64;
            crate::push_setup(&mut out, &setup_s);
            crate::push_timings(&mut out, &mut plain.latency);
            out.push(metric("airtime_us", plain.airtime_us / n as f64, n));
            out.push(metric("snr_loss_db", plain.loss_db / n as f64, n));
            out.push(metric(
                "misselect_ratio",
                plain.misselected as f64 / n as f64,
                n,
            ));
            out.push(metric("ok_ratio", ok, out.attempted));
            out.push(metric(
                "bytes_per_decision",
                total_bytes as f64 / station.sessions as f64,
                station.sessions as u64,
            ));
            out.push(metric("rss_peak_mb", eval::soak::rss_peak_mb(), 1));
        }
        Some((t, log, timed, bytes, before, after)) => {
            crate::write_spans(cfg, &log)?;
            let mut a = spans::analyse(&log);
            let tn = t.sessions;
            let p50 = |a: &mut spans::Analysis, name: &str| crate::span_p50_us(a, name);
            let (sls, sls_n) = p50(&mut a, "mac.sls_run");
            let (drain, drain_n) = p50(&mut a, "wil6210.drain");
            let (wmi, wmi_n) = p50(&mut a, "wil6210.wmi");
            let (select, select_n) = p50(&mut a, "css.select");
            let (estimate, estimate_n) = p50(&mut a, "css.estimate");
            let (dwrite, dwrite_n) = p50(&mut a, "obs.decision_write");
            let (ewrite, ewrite_n) = p50(&mut a, "obs.event_write");
            let (decision, decision_n) = p50(&mut a, "bench.decision");
            let (patterns, patterns_n) = p50(&mut a, "chamber.patterns");
            let events = timed.events.load(Ordering::Relaxed);
            out.push(metric("mac.sls_run_us", sls, sls_n));
            out.push(metric("mac.frames", t.frames as f64 / tn as f64, tn));
            out.push(metric("wil6210.drain_us", drain, drain_n));
            out.push(metric(
                "wil6210.drained_entries",
                t.drained as f64 / tn as f64,
                tn,
            ));
            out.push(metric(
                "wil6210.ring_overwritten",
                station.firmware.ring().overwritten() as f64,
                station.sessions as u64,
            ));
            out.push(metric("wil6210.wmi_us", wmi, wmi_n));
            out.push(metric("css.select_us", select, select_n));
            out.push(metric("css.estimate_us", estimate, estimate_n));
            out.push(metric("chamber.patterns_s", patterns / 1e6, patterns_n));
            out.push(metric("obs.decision_write_us", dwrite, dwrite_n));
            out.push(metric("obs.event_write_us", ewrite, ewrite_n));
            out.push(metric(
                "obs.events_per_decision",
                events as f64 / tn as f64,
                tn,
            ));
            out.push(metric("obs.bytes_written", bytes as f64 / tn as f64, tn));
            out.push(metric(
                "obs.css_fallbacks",
                (after.counter("css.fallbacks") - before.counter("css.fallbacks")) as f64,
                tn,
            ));
            out.push(metric(
                "obs.health_anomalies",
                (crate::counter_sum(&after, "health.") - crate::counter_sum(&before, "health."))
                    as f64,
                tn,
            ));
            out.push(metric(
                "bench.trace_overhead_ratio",
                t.latency.per_s() / plain.latency.per_s(),
                tn,
            ));
            out.push(metric("bench.decision_p50_us", decision, decision_n));
            crate::push_untraced_p99(&mut out, &mut plain.latency);
            out.push(metric(
                "bench.decision_accounted_ratio",
                (drain + select + wmi) / decision,
                decision_n,
            ));
            crate::push_self_times(&mut out, &a, tn);
        }
    }
    Ok(out)
}
