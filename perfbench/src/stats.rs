//! Order statistics over latency samples.

use crate::calib;
use std::time::{Duration, Instant};

/// A set of duration samples in nanoseconds.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    ns: Vec<u64>,
    sorted: bool,
}

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, ns: u64) {
        self.ns.push(ns);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ns.len()
    }

    /// Whether no sample was taken.
    pub fn is_empty(&self) -> bool {
        self.ns.is_empty()
    }

    /// The `q`-quantile (nearest rank) in nanoseconds; 0 when empty.
    pub fn quantile_ns(&mut self, q: f64) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.ns.sort_unstable();
            self.sorted = true;
        }
        let n = self.ns.len();
        let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
        self.ns[rank - 1] as f64
    }
}

/// Latency samples and throughput of a timed loop, scaled to reference
/// speed (`calib`).
///
/// Every [`Latency::REFERENCE_EVERY`] the loop runs the host-speed
/// reference once, between two operations; its time is left out of the
/// loop's. The loop is cut into consecutive windows of at least
/// [`Latency::WINDOW`], and every operation and the wall time of its
/// window are scaled by the median reference time measured in the
/// window. The 99th percentile is the median over the windows of at
/// least [`Latency::WINDOW_OPS`] operations of each one's 99th
/// percentile, or the whole loop's if no window has that many.
#[derive(Debug)]
pub struct Latency {
    /// Every operation's latency, scaled.
    pub samples: Samples,
    /// Every operation's latency as measured.
    pub raw: Samples,
    opened: Instant,
    last_end: Instant,
    last_reference: Instant,
    /// The open window: operation latencies (ns), decisions, reference
    /// times (ns) and the time the references took.
    pending: Vec<u64>,
    pending_decisions: u64,
    references: Vec<f64>,
    reference_time: Duration,
    decisions: u64,
    wall_s: f64,
    scaled_s: f64,
    window_per_s: Vec<f64>,
    window_scale: Vec<f64>,
    window_p99_ns: Vec<f64>,
}

impl Latency {
    /// Shortest window.
    pub const WINDOW: Duration = Duration::from_millis(500);
    /// Fewest operations for a window's own 99th percentile: ten samples
    /// beyond it.
    pub const WINDOW_OPS: usize = 1000;
    /// Time between two runs of the reference.
    pub const REFERENCE_EVERY: Duration = Duration::from_millis(50);

    /// A collector that runs the reference once and opens its first
    /// window.
    pub fn new() -> Self {
        let first = calib::reference_ns();
        let now = Instant::now();
        Latency {
            samples: Samples::default(),
            raw: Samples::default(),
            opened: now,
            last_end: now,
            last_reference: now,
            pending: Vec::new(),
            pending_decisions: 0,
            references: vec![first],
            reference_time: Duration::ZERO,
            decisions: 0,
            wall_s: 0.0,
            scaled_s: 0.0,
            window_per_s: Vec::new(),
            window_scale: Vec::new(),
            window_p99_ns: Vec::new(),
        }
    }

    /// Records one operation that ran from `t0` to `t1` and completed
    /// `decisions` decisions; closes the window if it is long enough, then
    /// runs the reference if it is due.
    pub fn push(&mut self, t0: Instant, t1: Instant, decisions: u64) {
        self.pending.push(t1.duration_since(t0).as_nanos() as u64);
        self.pending_decisions += decisions;
        self.last_end = t1;
        if t1.duration_since(self.opened) >= Self::WINDOW {
            self.close(t1);
        }
        if t1.duration_since(self.last_reference) >= Self::REFERENCE_EVERY {
            let t = Instant::now();
            self.references.push(calib::reference_ns());
            self.last_reference = Instant::now();
            self.reference_time += self.last_reference.duration_since(t);
        }
    }

    /// Closes the open window at `end`, scaling its operations and wall
    /// time. A window in which the reference did not run keeps the
    /// previous window's scale.
    fn close(&mut self, end: Instant) {
        let scale = if self.references.is_empty() {
            self.window_scale.last().copied().unwrap_or(1.0)
        } else {
            calib::scale(&self.references)
        };
        let wall = end
            .duration_since(self.opened)
            .saturating_sub(self.reference_time)
            .as_secs_f64();
        let mut window = Samples::default();
        for ns in self.pending.drain(..) {
            self.raw.push(ns);
            let scaled = (ns as f64 * scale).round() as u64;
            self.samples.push(scaled);
            window.push(scaled);
        }
        if window.len() >= Self::WINDOW_OPS {
            self.window_p99_ns.push(window.quantile_ns(0.99));
        }
        self.decisions += self.pending_decisions;
        self.wall_s += wall;
        self.scaled_s += wall * scale;
        self.window_per_s.push(self.pending_decisions as f64 / wall);
        self.window_scale.push(scale);
        self.pending_decisions = 0;
        self.references.clear();
        self.reference_time = Duration::ZERO;
        self.opened = end;
    }

    /// Closes the last window; call once when the loop ends.
    pub fn finish(&mut self) {
        if !self.pending.is_empty() {
            self.close(Instant::now().max(self.last_end));
        }
    }

    /// Decisions of the closed windows.
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Median over the windows of at least [`Latency::WINDOW_OPS`]
    /// operations of each one's scaled 99th percentile, or the scaled
    /// 99th percentile of the whole loop if no window has that many, ns.
    pub fn p99_ns(&mut self) -> f64 {
        if self.window_p99_ns.is_empty() {
            self.samples.quantile_ns(0.99)
        } else {
            median(&self.window_p99_ns)
        }
    }

    /// The windows' scaled 99th percentiles, ns, in order.
    pub fn window_p99_ns(&self) -> &[f64] {
        &self.window_p99_ns
    }

    /// Decisions per second of scaled time.
    pub fn per_s(&self) -> f64 {
        self.decisions as f64 / self.scaled_s
    }

    /// Decisions per second of wall time, references left out.
    pub fn raw_per_s(&self) -> f64 {
        self.decisions as f64 / self.wall_s
    }

    /// Decisions per second of wall time in each closed window, in order.
    pub fn window_per_s(&self) -> &[f64] {
        &self.window_per_s
    }

    /// The scale of each closed window, in order.
    pub fn window_scale(&self) -> &[f64] {
        &self.window_scale
    }
}

impl Default for Latency {
    fn default() -> Self {
        Self::new()
    }
}

/// Median of a short list of values (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut s = Samples::default();
        for ns in 1..=100 {
            s.push(ns * 1000);
        }
        assert_eq!(s.quantile_ns(0.5), 50_000.0);
        assert_eq!(s.quantile_ns(0.99), 99_000.0);
        assert_eq!(s.quantile_ns(1.0), 100_000.0);
    }

    #[test]
    fn windows_cover_the_loop_and_scale_it() {
        let mut l = Latency::new();
        let mut t = l.opened;
        // 0.5 s of 0.2 ms operations, then 0.3 s at half the speed.
        for (us, n) in [(200, 2500), (400, 750)] {
            for _ in 0..n {
                let t1 = t + Duration::from_micros(us);
                l.push(t, t1, 1);
                t = t1;
            }
        }
        assert_eq!(l.window_per_s().len(), 1);
        l.finish();
        assert_eq!(l.window_per_s().len(), 2);
        assert_eq!(l.decisions(), 3250);
        assert_eq!(l.raw.len(), 3250);
        assert_eq!(l.raw.quantile_ns(1.0), 400_000.0);
        let (first, second) = (l.window_scale()[0], l.window_scale()[1]);
        assert_eq!(l.samples.quantile_ns(1.0), (400_000.0 * second).round());
        // The 750-operation last window has no percentile of its own.
        assert_eq!(l.window_p99_ns().len(), 1);
        assert_eq!(l.p99_ns(), (200_000.0 * first).round());
    }

    #[test]
    fn short_windows_fall_back_to_the_whole_loop_percentile() {
        let mut l = Latency::new();
        let mut t = l.opened;
        // Two windows of five 0.1 s operations, then one of three 0.2 s
        // operations.
        for ms in [100; 10].into_iter().chain([200; 3]) {
            let t1 = t + Duration::from_millis(ms);
            l.push(t, t1, 1);
            t = t1;
        }
        l.finish();
        assert_eq!(l.window_scale().len(), 3);
        assert!(l.window_p99_ns().is_empty());
        let last = l.window_scale()[2];
        assert_eq!(l.p99_ns(), (200e6 * last).round());
    }

    #[test]
    fn median_of_even_and_odd_lists() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
