//! Benchmark and reproduction support for the CoNEXT'17 CSS paper.
//!
//! The `tables` binary (`cargo run -p bench --release --bin tables -- --exp all`)
//! regenerates every table and figure. The `estimation_bench` and
//! `obs_bench` binaries time the estimator kernel and the obs primitives
//! into `BENCH_estimation.json` / `BENCH_obs.json`, and with `--check`
//! gate a fresh run against those committed baselines through
//! [`BaselineCheck`], which `talon soak --check` shares. Whole-decision
//! and per-layer costs come from `perfbench/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use chamber::SectorPatterns;
use chamber::{Campaign, CampaignConfig};
use geom::rng::sub_rng;
use serde::Value;
use talon_channel::{Device, Environment, Link};

/// Measures a coarse pattern database for benchmarking (shared setup).
pub fn bench_patterns(seed: u64) -> (SectorPatterns, Device, Device) {
    let link = Link::new(Environment::anechoic(3.0));
    let mut dut = Device::talon(seed);
    let fixed = Device::talon(seed.wrapping_add(1));
    let mut campaign = Campaign::new(CampaignConfig::coarse(), seed);
    let mut rng = sub_rng(seed, "bench-campaign");
    let patterns = campaign.measure_tx_patterns(&mut rng, &link, &mut dut, &fixed);
    dut.orientation = talon_channel::Orientation::NEUTRAL;
    (patterns, dut, fixed)
}

/// Which direction of change in a metric is a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Costs: a larger fresh value is worse.
    Lower,
    /// Rates and speedups: a smaller fresh value is worse.
    Higher,
}

/// A `--check` run of a fresh measurement against a committed baseline.
///
/// Both are flat JSON objects of numbers. Construction reports every
/// required key missing from either side; [`BaselineCheck::bound`] then
/// flags keys that moved more than a tolerance the wrong way, and
/// [`BaselineCheck::fail`] adds a gate's own findings. A baseline that
/// cannot be read or parsed is one failure naming the file, not a list
/// of missing keys.
#[derive(Debug)]
pub struct BaselineCheck {
    path: String,
    fresh: Value,
    baseline: Value,
    failures: Vec<String>,
}

/// `text` as a JSON object, or why it is not one.
fn parse_object(text: &str) -> Result<Value, String> {
    match Value::from_json(text) {
        Ok(v @ Value::Map(_)) => Ok(v),
        Ok(_) => Err("not a JSON object".into()),
        Err(e) => Err(e.to_string()),
    }
}

/// The number at `key` of a JSON object.
fn number(object: &Value, key: &str) -> Option<f64> {
    object.get(key).and_then(Value::as_f64)
}

impl BaselineCheck {
    /// Reads the baseline file at `path` and checks it and `fresh_json`
    /// for every `required` key.
    pub fn read(path: &str, fresh_json: &str, required: &[&str]) -> Self {
        let baseline =
            std::fs::read_to_string(path).map_err(|e| format!("cannot read baseline {path}: {e}"));
        Self::new(path, baseline, fresh_json, required)
    }

    /// Parses the baseline text (or takes the error reading it) and
    /// `fresh_json`, and reports every `required` key that either lacks;
    /// `path` names the baseline in messages.
    fn new(
        path: &str,
        baseline: Result<String, String>,
        fresh_json: &str,
        required: &[&str],
    ) -> Self {
        let mut failures = Vec::new();
        let mut object = |parsed: Result<Value, String>| {
            parsed.unwrap_or_else(|e| {
                failures.push(e);
                Value::Null
            })
        };
        let fresh = object(
            parse_object(fresh_json).map_err(|e| format!("fresh measurement does not parse: {e}")),
        );
        let baseline = object(baseline.and_then(|text| {
            parse_object(&text).map_err(|e| format!("baseline {path} does not parse: {e}"))
        }));
        for key in required {
            for (side, name) in [
                (&fresh, "fresh measurement".to_string()),
                (&baseline, format!("baseline {path}")),
            ] {
                if side.as_map().is_some() && number(side, key).is_none() {
                    failures.push(format!("{name} is missing key {key:?}"));
                }
            }
        }
        BaselineCheck {
            path: path.to_string(),
            fresh,
            baseline,
            failures,
        }
    }

    /// The baseline's value for `key`, when it has a number there.
    pub fn baseline(&self, key: &str) -> Option<f64> {
        number(&self.baseline, key)
    }

    /// Flags `key` when the fresh value is more than `tolerance` (a
    /// fraction of the baseline) worse than the baseline. A key absent
    /// on either side was already reported as missing, so it is skipped.
    pub fn bound(&mut self, key: &str, better: Better, tolerance: f64) {
        let (Some(fresh), Some(base)) = (number(&self.fresh, key), self.baseline(key)) else {
            return;
        };
        let (edge, worse, edge_name) = match better {
            Better::Lower => {
                let limit = base * (1.0 + tolerance);
                (limit, fresh > limit, "limit")
            }
            Better::Higher => {
                let floor = base * (1.0 - tolerance);
                (floor, fresh < floor, "floor")
            }
        };
        if worse {
            self.fail(format!(
                "{key} regressed >{:.0}%: {fresh:.2} vs baseline {base:.2} ({edge_name} {edge:.2})",
                tolerance * 100.0
            ));
        }
    }

    /// Records a gate-specific failure.
    pub fn fail(&mut self, message: String) {
        self.failures.push(message);
    }

    /// `Ok` when nothing failed; otherwise the `"<name> check FAILED:"`
    /// report listing every failure.
    pub fn finish(self, name: &str) -> Result<(), String> {
        if self.failures.is_empty() {
            return Ok(());
        }
        let mut message = format!("{name} check FAILED:");
        for f in &self.failures {
            message.push_str(&format!("\n  - {f}"));
        }
        Err(message)
    }

    /// [`BaselineCheck::finish`] for a gate binary: prints the OK line,
    /// or prints the failures and exits 1.
    pub fn exit_on_failure(self, name: &str) {
        let path = self.path.clone();
        if let Err(message) = self.finish(name) {
            eprintln!("{message}");
            std::process::exit(1);
        }
        println!("check against {path}: OK");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const REQUIRED: &[&str] = &["cost_ns", "speedup"];
    const BASE: &str = r#"{"cost_ns": 100.0, "speedup": 2.0, "smoke": false}"#;

    /// The failure lines of checking `fresh` against `baseline` with
    /// `cost_ns` (lower is better) and `speedup` bounded at 25 %.
    fn failures(baseline: &str, fresh: &str) -> Vec<String> {
        let mut check = BaselineCheck::new("BASE.json", Ok(baseline.into()), fresh, REQUIRED);
        check.bound("cost_ns", Better::Lower, 0.25);
        check.bound("speedup", Better::Higher, 0.25);
        match check.finish("BENCH_test") {
            Ok(()) => Vec::new(),
            Err(message) => message.lines().skip(1).map(str::to_string).collect(),
        }
    }

    #[test]
    fn keys_missing_from_either_side_are_both_reported() {
        let f = failures(r#"{"cost_ns": 100.0}"#, r#"{"speedup": 2.0}"#);
        assert_eq!(
            f,
            [
                "  - fresh measurement is missing key \"cost_ns\"",
                "  - baseline BASE.json is missing key \"speedup\"",
            ]
        );
    }

    #[test]
    fn a_key_fails_only_when_more_than_its_bound_worse() {
        for (fresh, failed) in [
            (r#"{"cost_ns": 100.0, "speedup": 2.0, "smoke": true}"#, None),
            (r#"{"cost_ns": 124.0, "speedup": 1.52}"#, None),
            (r#"{"cost_ns": 10.0, "speedup": 9.0}"#, None),
            (r#"{"cost_ns": 126.0, "speedup": 2.0}"#, Some("cost_ns")),
            (r#"{"cost_ns": 100.0, "speedup": 1.48}"#, Some("speedup")),
        ] {
            let f = failures(BASE, fresh);
            match failed {
                None => assert!(f.is_empty(), "{fresh}: {f:?}"),
                Some(key) => {
                    assert_eq!(f.len(), 1, "{fresh}: {f:?}");
                    assert!(
                        f[0].starts_with(&format!("  - {key} regressed >25%")),
                        "{f:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn an_unreadable_or_unparseable_baseline_is_one_failure_naming_the_file() {
        let fresh = r#"{"cost_ns": 100.0, "speedup": 2.0}"#;
        for bad in ["{\"cost_ns\": 100.0,", "not json", "[1, 2]"] {
            let f = failures(bad, fresh);
            assert_eq!(f.len(), 1, "{bad}: {f:?}");
            assert!(f[0].contains("baseline BASE.json does not parse"), "{f:?}");
        }
        let check = BaselineCheck::read("/nonexistent/BASE.json", fresh, REQUIRED);
        let message = check.finish("BENCH_test").unwrap_err();
        assert_eq!(message.lines().count(), 2, "{message}");
        assert!(message.contains("cannot read baseline /nonexistent/BASE.json"));
    }
}
