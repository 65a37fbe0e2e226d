//! Declarative alerting over the [`Sampler`]'s windowed signals.
//!
//! A [`Rule`] names a [`Predicate`] (value-above, counter-rate-above, or
//! windowed-histogram-quantile-above), how long it must hold before the
//! alert fires (`for_ticks`), and the hysteresis that clears it: the
//! measured value must stay at or below `clear_below` — a *lower* bar
//! than the firing threshold — for `clear_for_ticks` consecutive ticks.
//! The deadband between `clear_below` and the firing threshold is what
//! keeps an oscillating signal from flapping the alert.
//!
//! [`AlertEngine::evaluate`] runs every rule against the sampler once per
//! tick and drives the per-rule state machine
//! `inactive → pending → firing → inactive`. Each transition is returned
//! to the caller, appended to a bounded transition log, and accounted:
//!
//! * `alert.fired` / `alert.resolved` counters (plus per-rule
//!   `alert.<name>.fired`),
//! * the `alert.firing` / `alert.firing_page` gauges (currently-firing
//!   totals, by worst severity),
//! * a `health.alert_firing` anomaly on every firing edge, so alerts
//!   surface in `talon report` exactly like any other link-health
//!   finding, and
//! * while a sink records, a `"mark"` event at stage `alert.<name>` with
//!   the measured value — the trace-file audit trail.
//!
//! Like the sampler, the engine is tick-count-driven and never reads a
//! clock: identical snapshot sequences produce identical transition
//! sequences at any wall-clock speed.
//!
//! ## Label-pattern (template) rules
//!
//! A rule whose metric is `base{key=*}` (e.g.
//! `health.link_drift{link=*}`) is a *template*: each evaluation tick it
//! expands over every sampled series of that base name carrying the label
//! key, and every concrete series — every link — gets its **own**
//! independent state machine. Transitions and `/alerts` rows use the
//! instance name (`link_drift_per_link{link="3"}`), and the per-rule fired
//! counter becomes a labeled series (`alert.<name>.fired{link="3"}`), so
//! one hot link neither masks nor clears another.

use crate::event::Event;
use crate::labels;
use crate::timeseries::Sampler;
use crate::{sink, trace};
use serde::{Serialize, Value};
use std::collections::BTreeMap;

/// How loud a firing rule is. `Page` severity gates `/healthz`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Severity {
    /// Worth a look; does not flip `/healthz`.
    Warn,
    /// Operator-visible outage signal: `/healthz` answers 503 while any
    /// page-severity alert fires.
    Page,
}

impl Severity {
    /// Lower-case label (`"warn"` / `"page"`).
    pub fn as_str(self) -> &'static str {
        match self {
            Severity::Warn => "warn",
            Severity::Page => "page",
        }
    }
}

/// What a rule measures each tick.
#[derive(Debug, Clone)]
pub enum Predicate {
    /// Latest value of a gauge (or cumulative counter) above `threshold`.
    ValueAbove {
        /// Registry metric name.
        metric: String,
        /// Firing bar (exclusive).
        threshold: f64,
    },
    /// Counter rate over the last `window` ticks above `threshold`
    /// (per-tick units; `0.0` means "any increment inside the window").
    RateAbove {
        /// Registry counter name.
        metric: String,
        /// Firing bar (exclusive), per tick.
        threshold: f64,
        /// Rate window, ticks.
        window: u64,
    },
    /// Windowed histogram quantile above `threshold`.
    QuantileAbove {
        /// Registry histogram name.
        metric: String,
        /// Quantile in `0..=1` (e.g. `0.99`).
        q: f64,
        /// Firing bar (exclusive), in the histogram's sample units.
        threshold: f64,
        /// Quantile window, ticks.
        window: u64,
    },
}

impl Predicate {
    /// The metric this predicate watches.
    pub fn metric(&self) -> &str {
        match self {
            Predicate::ValueAbove { metric, .. }
            | Predicate::RateAbove { metric, .. }
            | Predicate::QuantileAbove { metric, .. } => metric,
        }
    }

    /// The firing threshold.
    pub fn threshold(&self) -> f64 {
        match self {
            Predicate::ValueAbove { threshold, .. }
            | Predicate::RateAbove { threshold, .. }
            | Predicate::QuantileAbove { threshold, .. } => *threshold,
        }
    }

    /// Measures the predicate's current value against `sampler`. A metric
    /// that has never been sampled (or a rate with <2 samples) measures
    /// `0.0`: absence of signal is absence of anomaly.
    pub fn measure(&self, sampler: &Sampler) -> f64 {
        self.measure_named(sampler, self.metric())
    }

    /// Like [`Predicate::measure`], but against `metric` instead of the
    /// predicate's own name — how a template rule measures each of its
    /// expanded concrete series.
    pub fn measure_named(&self, sampler: &Sampler, metric: &str) -> f64 {
        match self {
            Predicate::ValueAbove { .. } => sampler
                .gauge_value(metric)
                .map(|v| v as f64)
                .or_else(|| sampler.counter_value(metric).map(|v| v as f64))
                .unwrap_or(0.0),
            Predicate::RateAbove { window, .. } => {
                sampler.counter_rate(metric, *window).unwrap_or(0.0)
            }
            Predicate::QuantileAbove { q, window, .. } => sampler
                .quantile(metric, *window, *q)
                .map(|v| v as f64)
                .unwrap_or(0.0),
        }
    }

    /// Short kind label for display (`"value"` / `"rate"` / `"quantile"`).
    pub fn kind(&self) -> &'static str {
        match self {
            Predicate::ValueAbove { .. } => "value",
            Predicate::RateAbove { .. } => "rate",
            Predicate::QuantileAbove { .. } => "quantile",
        }
    }
}

/// One alert rule. See the module docs for the lifecycle.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name (stable identifier; shows up in `/alerts`, trace marks,
    /// and the `alert.<name>.fired` counter).
    pub name: String,
    /// Firing loudness.
    pub severity: Severity,
    /// What to measure.
    pub predicate: Predicate,
    /// Consecutive ticks the predicate must hold before firing (values
    /// `0` and `1` both fire on the first hot tick).
    pub for_ticks: u64,
    /// Hysteresis bar: the value must be `<=` this to make clearing
    /// progress while firing. Set below the firing threshold to get a
    /// deadband.
    pub clear_below: f64,
    /// Consecutive ticks at or under `clear_below` that resolve a firing
    /// alert.
    pub clear_for_ticks: u64,
}

/// Lifecycle phase of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Predicate false (or never yet true long enough).
    Inactive,
    /// Predicate true, sustain window not yet met.
    Pending,
    /// Alert active.
    Firing,
}

impl Phase {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Inactive => "inactive",
            Phase::Pending => "pending",
            Phase::Firing => "firing",
        }
    }
}

#[derive(Debug, Clone)]
struct RuleState {
    phase: Phase,
    since_tick: u64,
    above_streak: u64,
    below_streak: u64,
    last_value: f64,
}

impl Default for RuleState {
    fn default() -> Self {
        RuleState {
            phase: Phase::Inactive,
            since_tick: 0,
            above_streak: 0,
            below_streak: 0,
            last_value: 0.0,
        }
    }
}

/// One state-machine edge, as returned by [`AlertEngine::evaluate`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Transition {
    /// Rule name.
    pub rule: String,
    /// Tick at which the edge happened.
    pub tick: u64,
    /// Phase left (`"inactive"` / `"pending"` / `"firing"`).
    pub from: String,
    /// Phase entered.
    pub to: String,
    /// The measured value at the edge.
    pub value: f64,
}

/// Point-in-time status of one rule (the `/alerts` row).
#[derive(Debug, Clone)]
pub struct AlertStatus {
    /// Rule name.
    pub name: String,
    /// Rule severity.
    pub severity: Severity,
    /// Current phase.
    pub phase: Phase,
    /// Tick the current phase was entered.
    pub since_tick: u64,
    /// Last measured value.
    pub value: f64,
    /// Firing threshold.
    pub threshold: f64,
    /// Watched metric.
    pub metric: String,
    /// Predicate kind label.
    pub kind: &'static str,
}

impl AlertStatus {
    /// The status as a JSON value.
    pub fn to_value(&self) -> Value {
        Value::Map(vec![
            ("name".into(), Value::Str(self.name.clone())),
            ("severity".into(), Value::Str(self.severity.as_str().into())),
            ("state".into(), Value::Str(self.phase.as_str().into())),
            ("since_tick".into(), Value::U64(self.since_tick)),
            ("value".into(), Value::F64(self.value)),
            ("threshold".into(), Value::F64(self.threshold)),
            ("metric".into(), Value::Str(self.metric.clone())),
            ("predicate".into(), Value::Str(self.kind.into())),
        ])
    }
}

/// Transitions retained in the engine's log (oldest dropped past this).
const TRANSITION_LOG_CAP: usize = 256;

/// Parses a template metric pattern `base{key=*}` into `(base, key)`.
/// Only single-key patterns are supported.
fn template_pattern(metric: &str) -> Option<(&str, &str)> {
    let (base, inner) = labels::split_name(metric);
    let key = inner?.strip_suffix("=*")?;
    (!key.is_empty() && key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_'))
        .then_some((base, key))
}

/// The sampled concrete series a template rule expands to: every series of
/// the pattern's base name whose label block carries the pattern's key, in
/// sorted (deterministic) order.
fn concrete_series(sampler: &Sampler, predicate: &Predicate, base: &str, key: &str) -> Vec<String> {
    let mut names: std::collections::BTreeSet<&str> = std::collections::BTreeSet::new();
    match predicate {
        Predicate::ValueAbove { .. } => {
            names.extend(sampler.gauge_names());
            names.extend(sampler.counter_names());
        }
        Predicate::RateAbove { .. } => names.extend(sampler.counter_names()),
        Predicate::QuantileAbove { .. } => names.extend(sampler.histogram_names()),
    }
    names
        .into_iter()
        .filter(|n| labels::split_name(n).0 == base && labels::label_value(n, key).is_some())
        .map(str::to_string)
        .collect()
}

/// Advances one rule state machine by one tick; returns the phase left
/// when an edge happened.
fn step_machine(rule: &Rule, st: &mut RuleState, value: f64, tick: u64) -> Option<Phase> {
    st.last_value = value;
    let above = value > rule.predicate.threshold();
    let from = st.phase;
    match st.phase {
        Phase::Inactive => {
            if above {
                st.above_streak = 1;
                if st.above_streak >= rule.for_ticks.max(1) {
                    st.phase = Phase::Firing;
                } else {
                    st.phase = Phase::Pending;
                }
                st.since_tick = tick;
            } else {
                st.above_streak = 0;
            }
        }
        Phase::Pending => {
            if above {
                st.above_streak += 1;
                if st.above_streak >= rule.for_ticks.max(1) {
                    st.phase = Phase::Firing;
                    st.since_tick = tick;
                }
            } else {
                st.phase = Phase::Inactive;
                st.above_streak = 0;
                st.since_tick = tick;
            }
        }
        Phase::Firing => {
            if value <= rule.clear_below {
                st.below_streak += 1;
                if st.below_streak >= rule.clear_for_ticks.max(1) {
                    st.phase = Phase::Inactive;
                    st.above_streak = 0;
                    st.below_streak = 0;
                    st.since_tick = tick;
                }
            } else {
                st.below_streak = 0;
            }
        }
    }
    (st.phase != from).then_some(from)
}

/// Evaluates a rule set against a [`Sampler`], once per tick.
#[derive(Debug)]
pub struct AlertEngine {
    rules: Vec<Rule>,
    states: Vec<RuleState>,
    /// Per-rule concrete-series state for template rules (empty maps for
    /// plain rules), keyed by the concrete metric name.
    template_states: Vec<BTreeMap<String, RuleState>>,
    transitions: Vec<Transition>,
}

impl AlertEngine {
    /// An engine over `rules`, all inactive.
    pub fn new(rules: Vec<Rule>) -> Self {
        let states = rules.iter().map(|_| RuleState::default()).collect();
        let template_states = rules.iter().map(|_| BTreeMap::new()).collect();
        AlertEngine {
            rules,
            states,
            template_states,
            transitions: Vec::new(),
        }
    }

    /// The rules under evaluation.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Runs one evaluation tick against `sampler` (whose last recorded
    /// tick is the one evaluated) and returns the edges that happened.
    pub fn evaluate(&mut self, sampler: &Sampler) -> Vec<Transition> {
        let tick = sampler.ticks().saturating_sub(1);
        let mut edges = Vec::new();
        let AlertEngine {
            rules,
            states,
            template_states,
            ..
        } = self;
        for (i, rule) in rules.iter().enumerate() {
            if let Some((base, key)) = template_pattern(rule.predicate.metric()) {
                // Template rule: one independent state machine per sampled
                // concrete series.
                for metric in concrete_series(sampler, &rule.predicate, base, key) {
                    let value = rule.predicate.measure_named(sampler, &metric);
                    let (_, inner) = labels::split_name(&metric);
                    let inner = inner.unwrap_or("");
                    let st = template_states[i].entry(metric.clone()).or_default();
                    if let Some(from) = step_machine(rule, st, value, tick) {
                        let edge = Transition {
                            rule: labels::qualify(&rule.name, inner),
                            tick,
                            from: from.as_str().to_string(),
                            to: st.phase.as_str().to_string(),
                            value,
                        };
                        account_edge(rule, inner, &edge);
                        edges.push(edge);
                    }
                }
            } else {
                let value = rule.predicate.measure(sampler);
                let st = &mut states[i];
                if let Some(from) = step_machine(rule, st, value, tick) {
                    let edge = Transition {
                        rule: rule.name.clone(),
                        tick,
                        from: from.as_str().to_string(),
                        to: st.phase.as_str().to_string(),
                        value,
                    };
                    account_edge(rule, "", &edge);
                    edges.push(edge);
                }
            }
        }
        // Keep the currently-firing gauges live every tick, not just on
        // edges, so a fresh scrape always sees the truth.
        let firing = self.firing_count(None);
        let firing_page = self.firing_count(Some(Severity::Page));
        crate::gauge("alert.firing").set(firing as i64);
        crate::gauge("alert.firing_page").set(firing_page as i64);
        for edge in &edges {
            self.transitions.push(edge.clone());
        }
        if self.transitions.len() > TRANSITION_LOG_CAP {
            let excess = self.transitions.len() - TRANSITION_LOG_CAP;
            self.transitions.drain(..excess);
        }
        edges
    }

    /// Every `(rule, state)` pair currently alive: plain rules once,
    /// template rules once per expanded concrete series.
    fn live_states(&self) -> impl Iterator<Item = (&Rule, &RuleState)> {
        self.rules.iter().enumerate().flat_map(move |(i, r)| {
            let plain = self.template_states[i]
                .is_empty()
                .then(|| (r, &self.states[i]));
            let expanded = self.template_states[i].values().map(move |s| (r, s));
            plain.into_iter().chain(expanded)
        })
    }

    /// Rule instances currently firing, optionally filtered by severity.
    /// Template rules count once per firing concrete series.
    pub fn firing_count(&self, severity: Option<Severity>) -> usize {
        self.live_states()
            .filter(|(r, s)| {
                s.phase == Phase::Firing && severity.is_none_or(|want| r.severity == want)
            })
            .count()
    }

    /// Names of the rule instances currently firing at `severity` (all
    /// severities when `None`), in rule order; template instances carry
    /// their label block (`link_drift_per_link{link="3"}`).
    pub fn firing_names(&self, severity: Option<Severity>) -> Vec<String> {
        let mut names = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if severity.is_some_and(|want| rule.severity != want) {
                continue;
            }
            if self.template_states[i].is_empty() {
                if self.states[i].phase == Phase::Firing {
                    names.push(rule.name.clone());
                }
            } else {
                for (metric, st) in &self.template_states[i] {
                    if st.phase == Phase::Firing {
                        let (_, inner) = labels::split_name(metric);
                        names.push(labels::qualify(&rule.name, inner.unwrap_or("")));
                    }
                }
            }
        }
        names
    }

    /// Point-in-time status of every rule instance, in rule order. A
    /// template rule contributes one row per expanded concrete series (or
    /// a single inactive pattern row before any series exists).
    pub fn statuses(&self) -> Vec<AlertStatus> {
        let mut rows = Vec::new();
        for (i, rule) in self.rules.iter().enumerate() {
            if self.template_states[i].is_empty() {
                rows.push(status_row(rule, &self.states[i], None));
            } else {
                for (metric, st) in &self.template_states[i] {
                    rows.push(status_row(rule, st, Some(metric)));
                }
            }
        }
        rows
    }

    /// The bounded transition log, oldest first.
    pub fn transitions(&self) -> &[Transition] {
        &self.transitions
    }
}

fn status_row(rule: &Rule, st: &RuleState, concrete: Option<&str>) -> AlertStatus {
    let name = match concrete {
        Some(metric) => {
            let (_, inner) = labels::split_name(metric);
            labels::qualify(&rule.name, inner.unwrap_or(""))
        }
        None => rule.name.clone(),
    };
    AlertStatus {
        name,
        severity: rule.severity,
        phase: st.phase,
        since_tick: st.since_tick,
        value: st.last_value,
        threshold: rule.predicate.threshold(),
        metric: concrete.unwrap_or(rule.predicate.metric()).to_string(),
        kind: rule.predicate.kind(),
    }
}

/// Books one state-machine edge: counters, health anomaly on the firing
/// edge, and a trace mark while a sink records. `inner` is the label
/// block of a template instance (empty for plain rules); it qualifies the
/// per-rule fired counter so each link gets its own series.
fn account_edge(rule: &Rule, inner: &str, edge: &Transition) {
    if edge.to == "firing" {
        crate::counter("alert.fired").inc();
        crate::counter(&labels::qualify(
            &format!("alert.{}.fired", rule.name),
            inner,
        ))
        .inc();
        crate::health::anomaly(
            "alert_firing",
            &[
                ("tick", edge.tick as f64),
                ("value", edge.value),
                ("threshold", rule.predicate.threshold()),
                (
                    "page",
                    if rule.severity == Severity::Page {
                        1.0
                    } else {
                        0.0
                    },
                ),
            ],
        );
    } else if edge.from == "firing" {
        crate::counter("alert.resolved").inc();
    }
    if sink::sink_active() {
        let (trace_id, parent_id) = trace::current_ids();
        let mut fields: BTreeMap<String, f64> = BTreeMap::new();
        fields.insert("tick".into(), edge.tick as f64);
        fields.insert("value".into(), edge.value);
        fields.insert("firing".into(), if edge.to == "firing" { 1.0 } else { 0.0 });
        sink::emit(
            &Event::mark(crate::now_us(), &format!("alert.{}", edge.rule), fields)
                .with_ids(trace_id, 0, parent_id),
        );
    }
}

/// The compiled-in default rule set `talon serve` runs:
///
/// | rule | severity | watches |
/// |---|---|---|
/// | `snr_loss_high` | page | `quality.snr_loss_mdb` gauge > 6 dB, clears ≤ 2 dB |
/// | `link_drift` | page | any `health.link_drift` epoch in the last 10 ticks |
/// | `link_drift_per_link` | warn | template: any `health.link_drift{link=*}` epoch in the last 10 ticks, per link |
/// | `trace_write_failed` | page | any `health.trace_write_failed` in the last 5 ticks |
/// | `misselection_burst` | warn | `health.misselection` rate > 0.2/tick over 10 ticks |
/// | `link_outage_burst` | warn | any `health.link_outage` in the last 10 ticks |
/// | `estimate_p99_slow` | warn | windowed p99 of `css.estimate.dur_us` > 50 ms |
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "snr_loss_high".into(),
            severity: Severity::Page,
            predicate: Predicate::ValueAbove {
                metric: "quality.snr_loss_mdb".into(),
                threshold: 6000.0,
            },
            for_ticks: 3,
            clear_below: 2000.0,
            clear_for_ticks: 5,
        },
        Rule {
            name: "link_drift".into(),
            severity: Severity::Page,
            predicate: Predicate::RateAbove {
                metric: "health.link_drift".into(),
                threshold: 0.0,
                window: 10,
            },
            for_ticks: 1,
            clear_below: 0.0,
            clear_for_ticks: 10,
        },
        Rule {
            // Template: expands to one state machine per `link` label, so
            // a fleet's per-link drift alarms fire and clear independently
            // of each other and of the aggregate `link_drift` page above.
            name: "link_drift_per_link".into(),
            severity: Severity::Warn,
            predicate: Predicate::RateAbove {
                metric: "health.link_drift{link=*}".into(),
                threshold: 0.0,
                window: 10,
            },
            for_ticks: 1,
            clear_below: 0.0,
            clear_for_ticks: 10,
        },
        Rule {
            name: "trace_write_failed".into(),
            severity: Severity::Page,
            predicate: Predicate::RateAbove {
                metric: "health.trace_write_failed".into(),
                threshold: 0.0,
                window: 5,
            },
            for_ticks: 1,
            clear_below: 0.0,
            clear_for_ticks: 5,
        },
        Rule {
            name: "misselection_burst".into(),
            severity: Severity::Warn,
            predicate: Predicate::RateAbove {
                metric: "health.misselection".into(),
                threshold: 0.2,
                window: 10,
            },
            for_ticks: 2,
            clear_below: 0.05,
            clear_for_ticks: 10,
        },
        Rule {
            name: "link_outage_burst".into(),
            severity: Severity::Warn,
            predicate: Predicate::RateAbove {
                metric: "health.link_outage".into(),
                threshold: 0.0,
                window: 10,
            },
            for_ticks: 1,
            clear_below: 0.0,
            clear_for_ticks: 10,
        },
        Rule {
            name: "estimate_p99_slow".into(),
            severity: Severity::Warn,
            predicate: Predicate::QuantileAbove {
                metric: "css.estimate.dur_us".into(),
                q: 0.99,
                threshold: 50_000.0,
                window: 30,
            },
            for_ticks: 2,
            clear_below: 20_000.0,
            clear_for_ticks: 10,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Snapshot;
    use crate::timeseries::{Sampler, SamplerConfig};

    fn gauge_snap(name: &str, v: i64) -> Snapshot {
        let mut s = Snapshot::default();
        s.gauges.insert(name.to_string(), v);
        s
    }

    fn value_rule(for_ticks: u64, clear_for: u64) -> Rule {
        Rule {
            name: "test_gauge_high".into(),
            severity: Severity::Page,
            predicate: Predicate::ValueAbove {
                metric: "g".into(),
                threshold: 10.0,
            },
            for_ticks,
            clear_below: 4.0,
            clear_for_ticks: clear_for,
        }
    }

    /// Feeds one gauge value and evaluates; returns the edges.
    fn step(sampler: &mut Sampler, engine: &mut AlertEngine, v: i64) -> Vec<Transition> {
        sampler.sample(&gauge_snap("g", v));
        engine.evaluate(sampler)
    }

    #[test]
    fn sustain_then_fire_then_hysteresis_clear() {
        let _guard = crate::testing::lock();
        let mut sampler = Sampler::new(SamplerConfig::default());
        let mut engine = AlertEngine::new(vec![value_rule(3, 2)]);
        // Two hot ticks: pending, not firing.
        assert_eq!(step(&mut sampler, &mut engine, 20)[0].to, "pending");
        assert!(step(&mut sampler, &mut engine, 20).is_empty());
        // Third hot tick: fires.
        let edges = step(&mut sampler, &mut engine, 20);
        assert_eq!(edges[0].to, "firing");
        assert_eq!(engine.firing_count(Some(Severity::Page)), 1);
        // Value in the deadband (4 < v <= 10): stays firing.
        assert!(step(&mut sampler, &mut engine, 8).is_empty());
        // One tick under the clear bar is not enough.
        assert!(step(&mut sampler, &mut engine, 3).is_empty());
        // A bounce above the clear bar resets the clear streak.
        assert!(step(&mut sampler, &mut engine, 8).is_empty());
        assert!(step(&mut sampler, &mut engine, 3).is_empty());
        // Second consecutive clear tick resolves.
        let edges = step(&mut sampler, &mut engine, 3);
        assert_eq!(edges[0].from, "firing");
        assert_eq!(edges[0].to, "inactive");
        assert_eq!(engine.firing_count(None), 0);
    }

    #[test]
    fn pending_drops_back_without_firing() {
        let _guard = crate::testing::lock();
        let mut sampler = Sampler::new(SamplerConfig::default());
        let mut engine = AlertEngine::new(vec![value_rule(3, 1)]);
        assert_eq!(step(&mut sampler, &mut engine, 20)[0].to, "pending");
        let edges = step(&mut sampler, &mut engine, 0);
        assert_eq!(edges[0].to, "inactive");
        // The aborted pending never fired.
        assert_eq!(
            engine
                .transitions()
                .iter()
                .filter(|t| t.to == "firing")
                .count(),
            0
        );
    }

    #[test]
    fn rate_rule_fires_on_increments_and_ages_out() {
        let _guard = crate::testing::lock();
        let mut sampler = Sampler::new(SamplerConfig::default());
        let rule = Rule {
            name: "events_seen".into(),
            severity: Severity::Warn,
            predicate: Predicate::RateAbove {
                metric: "c".into(),
                threshold: 0.0,
                window: 3,
            },
            for_ticks: 1,
            clear_below: 0.0,
            clear_for_ticks: 2,
        };
        let mut engine = AlertEngine::new(vec![rule]);
        let counter_snap = |v: u64| {
            let mut s = Snapshot::default();
            s.counters.insert("c".to_string(), v);
            s
        };
        sampler.sample(&counter_snap(0));
        assert!(engine.evaluate(&sampler).is_empty(), "one sample, no rate");
        sampler.sample(&counter_snap(1));
        let edges = engine.evaluate(&sampler);
        assert_eq!(edges[0].to, "firing", "increment inside window fires");
        // The increment ages out of the 3-tick window; after 2 clear
        // ticks the alert resolves.
        let mut resolved = false;
        for _ in 0..8 {
            sampler.sample(&counter_snap(1));
            if engine.evaluate(&sampler).iter().any(|t| t.to == "inactive") {
                resolved = true;
                break;
            }
        }
        assert!(resolved, "rate alert resolves once the window drains");
    }

    #[test]
    fn firing_edge_is_accounted() {
        let _guard = crate::testing::lock();
        crate::clear_sink();
        let before_fired = crate::global().snapshot().counter("alert.fired");
        let before_health = crate::global().snapshot().counter("health.alert_firing");
        let mut sampler = Sampler::new(SamplerConfig::default());
        let mut engine = AlertEngine::new(vec![value_rule(1, 1)]);
        step(&mut sampler, &mut engine, 20);
        let snap = crate::global().snapshot();
        assert_eq!(snap.counter("alert.fired"), before_fired + 1);
        assert_eq!(snap.counter("health.alert_firing"), before_health + 1);
        assert!(snap.counter("alert.test_gauge_high.fired") >= 1);
        assert_eq!(snap.gauges["alert.firing"], 1);
        assert_eq!(snap.gauges["alert.firing_page"], 1);
        step(&mut sampler, &mut engine, 0);
        assert_eq!(crate::global().snapshot().gauges["alert.firing"], 0);
    }

    #[test]
    fn template_rule_fires_independently_per_label_set() {
        let _guard = crate::testing::lock();
        let mut sampler = Sampler::new(SamplerConfig::default());
        let rule = Rule {
            name: "drift_per_link".into(),
            severity: Severity::Warn,
            predicate: Predicate::RateAbove {
                metric: "health.link_drift{link=*}".into(),
                threshold: 0.0,
                window: 4,
            },
            for_ticks: 1,
            clear_below: 0.0,
            clear_for_ticks: 2,
        };
        let mut engine = AlertEngine::new(vec![rule]);
        let snap = |hot: u64, cold: u64| {
            let mut s = Snapshot::default();
            s.counters
                .insert("health.link_drift{link=\"3\"}".to_string(), hot);
            s.counters
                .insert("health.link_drift{link=\"7\"}".to_string(), cold);
            // An unlabeled aggregate must NOT match the template.
            s.counters
                .insert("health.link_drift".to_string(), hot + cold);
            s
        };
        sampler.sample(&snap(0, 0));
        assert!(engine.evaluate(&sampler).is_empty());

        // Only link 3 drifts: exactly its instance fires.
        sampler.sample(&snap(1, 0));
        let edges = engine.evaluate(&sampler);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, "drift_per_link{link=\"3\"}");
        assert_eq!(edges[0].to, "firing");
        assert_eq!(engine.firing_count(None), 1);
        assert_eq!(
            engine.firing_names(None),
            vec!["drift_per_link{link=\"3\"}".to_string()]
        );

        // Link 7 drifts while link 3 is still hot: both fire independently.
        sampler.sample(&snap(1, 1));
        let edges = engine.evaluate(&sampler);
        assert_eq!(edges.len(), 1);
        assert_eq!(edges[0].rule, "drift_per_link{link=\"7\"}");
        assert_eq!(engine.firing_count(None), 2);

        // Both increments age out of the 4-tick window; each instance
        // resolves on its own clear streak, link 3's first.
        let mut resolved = Vec::new();
        for _ in 0..10 {
            sampler.sample(&snap(1, 1));
            for t in engine.evaluate(&sampler) {
                assert_eq!(t.to, "inactive");
                resolved.push(t.rule);
            }
        }
        assert_eq!(
            resolved,
            vec![
                "drift_per_link{link=\"3\"}".to_string(),
                "drift_per_link{link=\"7\"}".to_string()
            ]
        );
        assert_eq!(engine.firing_count(None), 0);

        // Statuses carry one row per concrete series, with the concrete
        // metric name.
        let statuses = engine.statuses();
        assert_eq!(statuses.len(), 2);
        assert_eq!(statuses[0].metric, "health.link_drift{link=\"3\"}");
        assert_eq!(statuses[1].name, "drift_per_link{link=\"7\"}");
    }

    #[test]
    fn template_firing_edge_books_a_labeled_counter() {
        let _guard = crate::testing::lock();
        crate::clear_sink();
        let mut sampler = Sampler::new(SamplerConfig::default());
        let rule = Rule {
            name: "gauge_hot_per_link".into(),
            severity: Severity::Warn,
            predicate: Predicate::ValueAbove {
                metric: "load{link=*}".into(),
                threshold: 10.0,
            },
            for_ticks: 1,
            clear_below: 4.0,
            clear_for_ticks: 1,
        };
        let mut engine = AlertEngine::new(vec![rule]);
        let mut s = Snapshot::default();
        s.gauges.insert("load{link=\"9\"}".to_string(), 25);
        sampler.sample(&s);
        let before = crate::global()
            .snapshot()
            .counter("alert.gauge_hot_per_link.fired{link=\"9\"}");
        engine.evaluate(&sampler);
        assert_eq!(
            crate::global()
                .snapshot()
                .counter("alert.gauge_hot_per_link.fired{link=\"9\"}"),
            before + 1
        );
    }

    #[test]
    fn default_ruleset_covers_the_known_failure_modes() {
        let rules = default_rules();
        let names: Vec<&str> = rules.iter().map(|r| r.name.as_str()).collect();
        for expected in [
            "snr_loss_high",
            "link_drift",
            "link_drift_per_link",
            "trace_write_failed",
            "misselection_burst",
            "link_outage_burst",
            "estimate_p99_slow",
        ] {
            assert!(names.contains(&expected), "{expected} missing");
        }
        for rule in &rules {
            assert!(
                rule.clear_below <= rule.predicate.threshold(),
                "{}: clear bar above firing bar breaks hysteresis",
                rule.name
            );
        }
    }
}
