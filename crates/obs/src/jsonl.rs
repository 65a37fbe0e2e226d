//! Reading JSONL trace files back (the `talon report` / `talon replay` side).
//!
//! Trace files come from crashed runs, concurrent writers, and partially
//! copied captures, so the parser is deliberately forgiving about *damage*:
//! malformed lines are skipped and counted rather than failing the whole
//! file (a truncated final line from a killed process would otherwise make
//! the entire trace unreadable). It is deliberately strict about *versions*:
//! a line stamped with a `schema_version` newer than this build knows is a
//! hard error, because silently misparsing a future schema is worse than
//! refusing it.
//!
//! Reading streams line-by-line through [`JsonlReader`] in bounded memory
//! (a multi-GB trace used to be slurped whole into a `String`, which OOMed
//! `talon report`); even a single pathological multi-gigabyte *line* is
//! bounded by [`LINE_CAP`] — the excess is drained and the line skipped,
//! exactly like any other damage.

use crate::binfmt::TraceRecord;
use crate::decision::{DecisionRecord, SCHEMA_VERSION};
use crate::event::Event;
use crate::registry::Snapshot;
use serde::{Deserialize, Value};
use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;

/// Upper bound on one trace line. A line longer than this cannot come from
/// the workspace's writers (the largest decision record is a few KB) and
/// is treated as damage: skipped and counted, never buffered whole.
pub const LINE_CAP: usize = 1 << 20;

/// Everything parsed from a trace file.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Span, mark, and anomaly events, in file order.
    pub events: Vec<Event>,
    /// Decision-provenance records, in file order.
    pub decisions: Vec<DecisionRecord>,
    /// The final registry snapshot, when the trace was closed cleanly.
    pub snapshot: Option<Snapshot>,
    /// Lines that could not be parsed and were skipped.
    pub skipped: usize,
}

impl Trace {
    /// Events for one stage, in order.
    pub fn stage(&self, stage: &str) -> Vec<&Event> {
        self.events.iter().filter(|e| e.stage == stage).collect()
    }

    /// Distinct stage names, in first-seen order.
    pub fn stages(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for e in &self.events {
            if !out.contains(&e.stage) {
                out.push(e.stage.clone());
            }
        }
        out
    }

    /// Files one record into the matching collection.
    pub(crate) fn push(&mut self, record: TraceRecord) {
        match record {
            TraceRecord::Event(e) => self.events.push(e),
            TraceRecord::Decision(d) => self.decisions.push(*d),
            TraceRecord::Snapshot(s) => self.snapshot = Some(s),
        }
    }
}

/// One line's parse outcome: a record, or skippable damage.
enum Line {
    Record(TraceRecord),
    Skip,
}

/// Parses one non-blank trace line. `Err` is reserved for the fatal
/// newer-schema case (the caller prefixes the line number); all damage is
/// `Ok(Line::Skip)`.
fn parse_line(line: &str) -> Result<Line, String> {
    let Ok(mut value) = Value::from_json(line) else {
        return Ok(Line::Skip);
    };
    if let Some(version) = value.get("schema_version").and_then(Value::as_u64) {
        if version > SCHEMA_VERSION {
            return Err(format!(
                "schema_version {version} is newer than supported \
                 version {SCHEMA_VERSION}; upgrade talon to read this trace"
            ));
        }
    }
    Ok(match value.get("kind").and_then(Value::as_str) {
        Some("snapshot") => match value.get("snapshot").map(Snapshot::deserialize) {
            Some(Ok(snap)) => Line::Record(TraceRecord::Snapshot(snap)),
            _ => Line::Skip,
        },
        Some("decision") => {
            // Schema < 3 decision lines predate `kernel_path`; only f64
            // arithmetic existed then, so default the field before the
            // (defaults-free) derived deserializer runs.
            if value.get("kernel_path").is_none() {
                if let Value::Map(entries) = &mut value {
                    entries.push(("kernel_path".to_string(), Value::Str("f64".to_string())));
                }
            }
            match DecisionRecord::deserialize(&value) {
                Ok(record) => Line::Record(TraceRecord::Decision(Box::new(record))),
                Err(_) => Line::Skip,
            }
        }
        Some(_) => match Event::deserialize(&value) {
            Ok(event) => Line::Record(TraceRecord::Event(event)),
            Err(_) => Line::Skip,
        },
        None => Line::Skip,
    })
}

/// Streaming JSONL trace reader: one record at a time, bounded memory.
///
/// The counterpart of [`crate::binfmt::BinReader`] for the text format;
/// [`crate::trace::open_reader`] picks between them by sniffing the file.
#[derive(Debug)]
pub struct JsonlReader<R: BufRead> {
    input: R,
    line: Vec<u8>,
    line_no: usize,
    skipped: usize,
}

/// The reader type [`JsonlReader::open`] returns for a file on disk.
pub type FileJsonlReader = JsonlReader<BufReader<File>>;

impl FileJsonlReader {
    /// Opens a JSONL trace file for streaming.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, String> {
        let path = path.as_ref();
        let file = File::open(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        Ok(JsonlReader::from_reader(BufReader::new(file)))
    }
}

/// One capped line read: the line's bytes (without the newline), or a flag
/// that it blew [`LINE_CAP`] and was drained.
enum RawLine {
    Eof,
    Line,
    Overlong,
}

impl<R: BufRead> JsonlReader<R> {
    /// Wraps any buffered stream of JSONL trace lines.
    pub fn from_reader(input: R) -> Self {
        JsonlReader {
            input,
            line: Vec::new(),
            line_no: 0,
            skipped: 0,
        }
    }

    /// Lines skipped so far (malformed, truncated, or overlong).
    pub fn skipped(&self) -> usize {
        self.skipped
    }

    /// Reads the next line into `self.line` without ever buffering more
    /// than [`LINE_CAP`] bytes: an overlong line's tail is drained chunk
    /// by chunk and discarded.
    fn read_line(&mut self) -> RawLine {
        self.line.clear();
        let mut overlong = false;
        loop {
            let chunk = match self.input.fill_buf() {
                Ok(chunk) => chunk,
                // Read errors mid-file behave like EOF: keep what parsed.
                Err(_) => return RawLine::Eof,
            };
            if chunk.is_empty() {
                return if overlong {
                    RawLine::Overlong
                } else if self.line.is_empty() {
                    RawLine::Eof
                } else {
                    RawLine::Line
                };
            }
            let newline = chunk.iter().position(|&b| b == b'\n');
            let take = newline.unwrap_or(chunk.len());
            if !overlong {
                if self.line.len() + take > LINE_CAP {
                    overlong = true;
                    self.line.clear();
                } else {
                    self.line.extend_from_slice(&chunk[..take]);
                }
            }
            let consumed = newline.map_or(take, |i| i + 1);
            self.input.consume(consumed);
            if newline.is_some() {
                return if overlong {
                    RawLine::Overlong
                } else {
                    RawLine::Line
                };
            }
        }
    }

    /// The next decoded record.
    ///
    /// `Ok(None)` at end of file; `Err` only for the fatal newer-schema
    /// case, naming the offending line. Damage is skip-and-count.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, String> {
        loop {
            self.line_no += 1;
            match self.read_line() {
                RawLine::Eof => return Ok(None),
                RawLine::Overlong => {
                    self.skipped += 1;
                    continue;
                }
                RawLine::Line => {}
            }
            let Ok(line) = std::str::from_utf8(&self.line) else {
                self.skipped += 1;
                continue;
            };
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match parse_line(line) {
                Ok(Line::Record(record)) => return Ok(Some(record)),
                Ok(Line::Skip) => self.skipped += 1,
                Err(e) => return Err(format!("trace line {}: {e}", self.line_no)),
            }
        }
    }
}

/// Parses a JSONL trace file, streaming line-by-line in bounded memory.
/// Blank lines are ignored; malformed lines are skipped and counted in
/// [`Trace::skipped`], and each skip bumps the `health.trace_corrupt`
/// counter. Failing to read the file, or finding a line written under a
/// newer schema than this build understands, is an error.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Trace, String> {
    crate::trace::read_all(crate::TraceReader::Jsonl(FileJsonlReader::open(path)?))
}

/// Parses trace text (one JSON object per line), skipping and counting
/// anything malformed: invalid JSON, non-object lines, missing or bad
/// fields, truncated tails from killed writers, interleaved half-lines
/// from unsynchronized concurrent writers.
///
/// Returns an error — rather than skipping — when a line declares a
/// `schema_version` greater than [`SCHEMA_VERSION`]: the file was written
/// by a newer build and this reader would misinterpret it. The error names
/// the offending (1-based) line.
pub fn parse_trace(text: &str) -> Result<Trace, String> {
    let mut trace = Trace::default();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        match parse_line(line).map_err(|e| format!("trace line {}: {e}", i + 1))? {
            Line::Record(record) => trace.push(record),
            Line::Skip => trace.skipped += 1,
        }
    }
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_events_and_snapshot() {
        let text = concat!(
            "{\"ts_us\":1,\"kind\":\"span\",\"stage\":\"css.estimate\",\"dur_us\":20,\"fields\":{\"probes\":14.0}}\n",
            "\n",
            "{\"ts_us\":5,\"kind\":\"mark\",\"stage\":\"wil.overflow\",\"dur_us\":0,\"fields\":{}}\n",
            "{\"kind\":\"snapshot\",\"ts_us\":9,\"snapshot\":{\"counters\":{\"css.estimates\":1},\"gauges\":{},\"histograms\":{}}}\n",
        );
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.skipped, 0);
        assert_eq!(trace.events.len(), 2);
        assert_eq!(trace.stages(), vec!["css.estimate", "wil.overflow"]);
        assert_eq!(trace.stage("css.estimate")[0].field("probes"), Some(14.0));
        assert_eq!(trace.snapshot.unwrap().counter("css.estimates"), 1);
    }

    #[test]
    fn malformed_lines_are_skipped_and_counted() {
        let text = concat!(
            "{\"kind\":\"span\"}\n", // missing required fields
            "not json\n",            // not JSON at all
            "{\"ts_us\":1,\"kind\":\"mark\",\"stage\":\"ok\",\"dur_us\":0,\"fields\":{}}\n",
            "{\"ts_us\":2,\"kind\":\"spa", // truncated tail (killed writer)
        );
        let trace = parse_trace(text).unwrap();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].stage, "ok");
        assert_eq!(trace.skipped, 3);
    }

    #[test]
    fn current_schema_versions_are_accepted() {
        let text = format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"ts_us\":1,\"kind\":\"mark\",\
             \"stage\":\"ok\",\"dur_us\":0,\"fields\":{{}}}}\n"
        );
        let trace = parse_trace(&text).unwrap();
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.skipped, 0);
    }

    #[test]
    fn newer_schema_version_is_rejected_naming_the_line() {
        let newer = SCHEMA_VERSION + 1;
        let text = format!(
            "{{\"ts_us\":1,\"kind\":\"mark\",\"stage\":\"ok\",\"dur_us\":0,\"fields\":{{}}}}\n\
             {{\"schema_version\":{newer},\"ts_us\":2,\"kind\":\"mark\",\
             \"stage\":\"ok\",\"dur_us\":0,\"fields\":{{}}}}\n"
        );
        let err = parse_trace(&text).unwrap_err();
        assert!(err.contains(&format!("schema_version {newer}")), "{err}");
        assert!(err.contains("newer than supported"), "{err}");
        assert!(err.contains("trace line 2"), "{err}");
    }

    #[test]
    fn decision_lines_parse_into_decisions() {
        let record = DecisionRecord::new("css.select");
        let text = format!("{}\n", record.to_line().to_json());
        let trace = parse_trace(&text).unwrap();
        assert_eq!(trace.skipped, 0);
        assert!(trace.events.is_empty());
        assert_eq!(trace.decisions.len(), 1);
        assert_eq!(trace.decisions[0], record);
    }

    #[test]
    fn v2_decision_lines_default_to_the_f64_kernel_path() {
        // Schema-2 traces predate `kernel_path`; strip the field (and
        // claim version 2) from a freshly rendered line to simulate one.
        let mut record = DecisionRecord::new("css.select");
        record.kernel_path = "q15".to_string();
        let line = record.to_line().to_json();
        let stripped = line
            .replace("\"kernel_path\":\"q15\",", "")
            .replace("\"kernel_path\":\"q15\"", "")
            .replace(
                &format!("\"schema_version\":{SCHEMA_VERSION}"),
                "\"schema_version\":2",
            );
        assert!(
            !stripped.contains("kernel_path"),
            "field must be gone: {stripped}"
        );
        let trace = parse_trace(&format!("{stripped}\n")).unwrap();
        assert_eq!(trace.skipped, 0, "v2 line must parse");
        assert_eq!(trace.decisions.len(), 1);
        assert_eq!(trace.decisions[0].kernel_path, "f64");
        assert_eq!(trace.decisions[0].schema_version, 2);
    }

    #[test]
    fn read_trace_counts_corrupt_lines_in_health() {
        let _guard = crate::testing::lock();
        let dir = std::env::temp_dir().join("obs-jsonl-corrupt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("trace-{}.jsonl", std::process::id()));
        std::fs::write(&path, "not json\n{\"broken\":1}\n").unwrap();
        let before = crate::global().snapshot().counter("health.trace_corrupt");
        let trace = read_trace(&path).unwrap();
        assert_eq!(trace.skipped, 2);
        assert_eq!(
            crate::global().snapshot().counter("health.trace_corrupt"),
            before + 2
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn overlong_lines_are_drained_skipped_and_counted() {
        // One pathological line far past LINE_CAP between two good lines:
        // reading stays bounded, the monster is skipped, neighbors parse.
        let good = "{\"ts_us\":1,\"kind\":\"mark\",\"stage\":\"ok\",\"dur_us\":0,\"fields\":{}}";
        let mut text = String::with_capacity(LINE_CAP + 2048);
        text.push_str(good);
        text.push('\n');
        text.push_str("{\"ts_us\":2,\"kind\":\"mark\",\"stage\":\"");
        for _ in 0..(LINE_CAP / 8 + 1) {
            text.push_str("aaaaaaaa");
        }
        text.push_str("\",\"dur_us\":0,\"fields\":{}}\n");
        text.push_str(good);
        text.push('\n');
        let mut reader = JsonlReader::from_reader(text.as_bytes());
        let mut events = 0;
        while let Some(record) = reader.next_record().unwrap() {
            assert!(matches!(record, TraceRecord::Event(_)));
            events += 1;
        }
        assert_eq!(events, 2);
        assert_eq!(reader.skipped(), 1);
    }

    #[test]
    fn overlong_final_line_without_newline_is_skipped() {
        let mut text = String::new();
        text.push_str(
            "{\"ts_us\":1,\"kind\":\"mark\",\"stage\":\"ok\",\"dur_us\":0,\"fields\":{}}\n",
        );
        text.push_str(&"x".repeat(LINE_CAP + 9));
        let mut reader = JsonlReader::from_reader(text.as_bytes());
        assert!(reader.next_record().unwrap().is_some());
        assert!(reader.next_record().unwrap().is_none());
        assert_eq!(reader.skipped(), 1);
    }
}
