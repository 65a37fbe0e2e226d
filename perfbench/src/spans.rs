//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's code, around each call into a
//! crate (`mac.sls_run` around `SlsRunner::run`, `css.select` around
//! `CompressiveSelection::select_from_readings`, ...). The first part of
//! a span's name is its layer. Spans stay in memory, one thread-local
//! log per thread, and are written out when the run ends. Recording is
//! off by default; then [`span`] costs one thread-local flag read.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One finished (or still open) span.
#[derive(Debug, Clone, Copy)]
pub struct SpanRec {
    /// `<layer>.<call>`.
    pub name: &'static str,
    /// Start, ns since recording began.
    pub start_ns: u64,
    /// End, ns since recording began.
    pub end_ns: u64,
    /// Index of the enclosing span, or [`NO_PARENT`].
    pub parent: u32,
    /// The session, batch or chunk the span belongs to (0 in set-up).
    pub unit: u64,
}

impl SpanRec {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer: the name up to its first dot.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

struct Recorder {
    on: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    open: Vec<u32>,
    unit: u64,
}

thread_local! {
    static RECORDER: RefCell<Recorder> = RefCell::new(Recorder {
        on: false,
        origin: Instant::now(),
        spans: Vec::new(),
        open: Vec::new(),
        unit: 0,
    });
}

/// Starts recording on this thread, discarding anything recorded before.
pub fn start() {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = true;
        r.origin = Instant::now();
        r.spans.clear();
        r.open.clear();
        r.unit = 0;
    });
}

/// Stops recording on this thread and returns every span taken.
pub fn stop() -> Vec<SpanRec> {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        r.on = false;
        r.open.clear();
        std::mem::take(&mut r.spans)
    })
}

/// Pauses (`false`) or resumes (`true`) recording on this thread,
/// keeping what was recorded. Call it only while no span is open.
pub fn set_enabled(on: bool) {
    RECORDER.with(|r| r.borrow_mut().on = on);
}

/// Tags the spans opened from now on with `unit`.
pub fn set_unit(unit: u64) {
    RECORDER.with(|r| r.borrow_mut().unit = unit);
}

/// Closes its span when dropped.
#[must_use = "a span ends when its guard is dropped"]
pub struct Guard(Option<u32>);

/// Opens a span named `name` under the innermost open span.
pub fn span(name: &'static str) -> Guard {
    RECORDER.with(|r| {
        let mut r = r.borrow_mut();
        if !r.on {
            return Guard(None);
        }
        let idx = r.spans.len() as u32;
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let now = r.origin.elapsed().as_nanos() as u64;
        let unit = r.unit;
        r.spans.push(SpanRec {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            unit,
        });
        r.open.push(idx);
        Guard(Some(idx))
    })
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(idx) = self.0 else { return };
        RECORDER.with(|r| {
            let mut r = r.borrow_mut();
            // A guard that outlived `stop` has nothing left to close.
            if idx as usize >= r.spans.len() {
                return;
            }
            let now = r.origin.elapsed().as_nanos() as u64;
            r.spans[idx as usize].end_ns = now;
            // Guards drop in reverse order of creation, so the span
            // closing is always the innermost open one.
            if r.open.last() == Some(&idx) {
                r.open.pop();
            }
        });
    }
}

/// Per-name durations and per-layer self times of a span log.
pub struct Analysis {
    /// Durations (ns) of every span, by name.
    pub by_name: BTreeMap<&'static str, Vec<u64>>,
    /// Self time (ns) summed per layer over the spans with `unit > 0`
    /// (the timed loop; set-up spans carry unit 0).
    pub self_ns_by_layer: BTreeMap<&'static str, u64>,
}

/// Computes durations by name and each layer's self time: a span's
/// duration minus the part covered by its children. Children of one
/// span run one after another on the span's thread, so the covered part
/// is the sum of their durations.
pub fn analyse(spans: &[SpanRec]) -> Analysis {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            child_ns[s.parent as usize] += s.dur_ns();
        }
    }
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut self_ns_by_layer: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (s, &children) in spans.iter().zip(&child_ns) {
        by_name.entry(s.name).or_default().push(s.dur_ns());
        if s.unit > 0 {
            *self_ns_by_layer.entry(s.layer()).or_default() += s.dur_ns().saturating_sub(children);
        }
    }
    Analysis {
        by_name,
        self_ns_by_layer,
    }
}

/// Writes the span log as CSV (`id,name,start_ns,end_ns,parent,unit`;
/// `parent` is empty for a root span).
pub fn write_csv(spans: &[SpanRec], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id,name,start_ns,end_ns,parent,unit")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = if s.parent == NO_PARENT {
            String::new()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{i},{},{},{},{parent},{}",
            s.name, s.start_ns, s.end_ns, s.unit
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_skips_setup() {
        let spans = [
            SpanRec {
                name: "bench.iter",
                start_ns: 0,
                end_ns: 100,
                parent: NO_PARENT,
                unit: 1,
            },
            SpanRec {
                name: "css.select",
                start_ns: 10,
                end_ns: 60,
                parent: 0,
                unit: 1,
            },
            SpanRec {
                name: "obs.decision_write",
                start_ns: 40,
                end_ns: 55,
                parent: 1,
                unit: 1,
            },
            SpanRec {
                name: "chamber.patterns",
                start_ns: 0,
                end_ns: 1000,
                parent: NO_PARENT,
                unit: 0,
            },
        ];
        let a = analyse(&spans);
        assert_eq!(a.self_ns_by_layer["bench"], 50);
        assert_eq!(a.self_ns_by_layer["css"], 35);
        assert_eq!(a.self_ns_by_layer["obs"], 15);
        assert!(!a.self_ns_by_layer.contains_key("chamber"));
        assert_eq!(a.by_name["chamber.patterns"], vec![1000]);
    }

    #[test]
    fn guards_nest_and_record_only_while_on() {
        drop(span("bench.off"));
        start();
        set_unit(7);
        {
            let _outer = span("bench.outer");
            let _inner = span("css.inner");
        }
        let spans = stop();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!(spans[1].parent, 0);
        assert_eq!(spans[1].unit, 7);
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
