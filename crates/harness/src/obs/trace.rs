//! Chrome trace-event rendering and validation.
//!
//! The trace file an [`crate::obs::Obs`] writes is the Chrome
//! trace-event JSON-array format (loadable in Perfetto and
//! `chrome://tracing`), laid out one event per line so it can stream
//! through the store's shared append-only log machinery:
//!
//! ```text
//! [
//! {"name":"plan","cat":"exec","ph":"X","ts":12.3,"dur":4.5,"pid":1,"tid":1},
//! {"name":"cell","cat":"exec","ph":"X","ts":20.0,"dur":1.2,"pid":1,"tid":2},
//! ```
//!
//! Every event is an `X`-phase *complete* event (begin/end collapsed
//! into `ts` + `dur`, both in microseconds), so there is no `B`/`E`
//! pairing to tear. The closing `]` is never written: the format
//! explicitly tolerates a cut-off array, which is what makes a
//! SIGKILL'd run leave a loadable trace. [`load_trace`] applies the
//! sidecar torn-tail rule: an unparseable or invalid *final* line is
//! tolerated and flagged; one anywhere earlier is real corruption.

use std::collections::BTreeMap;
use std::path::Path;

use crate::json::Json;
use crate::scenario::ScenarioError;

/// Renders one `X`-phase complete event as a compact JSON line
/// (trailing comma included, as every array element line carries one).
pub(crate) fn event_line(name: &str, cat: &str, start_ns: u64, dur_ns: u64, tid: u64) -> String {
    let event = Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("cat".into(), Json::str(cat)),
        ("ph".into(), Json::str("X")),
        ("ts".into(), Json::Num(start_ns as f64 / 1000.0)),
        ("dur".into(), Json::Num(dur_ns as f64 / 1000.0)),
        ("pid".into(), Json::Num(std::process::id() as f64)),
        ("tid".into(), Json::Num(tid as f64)),
    ]);
    format!("{},", event.compact())
}

/// Per-name aggregate over a loaded trace.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SpanTotal {
    /// Events carrying this name.
    pub count: usize,
    /// Sum of their `dur` fields, in microseconds.
    pub total_us: f64,
}

/// What [`load_trace`] found.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceStats {
    /// Valid events in the trace.
    pub events: usize,
    /// Whether the final line was torn (unparseable or invalid) and
    /// skipped — the signature of a kill mid-append.
    pub torn_tail: bool,
    /// Per-span-name totals, in name order.
    pub spans: BTreeMap<String, SpanTotal>,
}

/// Loads and validates a trace file. Checks the structural contract a
/// Chrome trace-event consumer relies on: the file opens with `[`,
/// every event is an object with a string `name`, `ph` of `"X"`, and
/// finite non-negative numeric `ts` and `dur` (`X`-phase events carry
/// their duration, so no `B`/`E` pairing can be left dangling). A
/// failing *final* line is tolerated and reported via
/// [`TraceStats::torn_tail`]; a failure anywhere earlier errors with
/// the line number.
pub fn load_trace(path: &Path) -> Result<TraceStats, ScenarioError> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| ScenarioError::Store(format!("read {}: {e}", path.display())))?;
    let lines: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
        .collect();
    let mut stats = TraceStats::default();
    let Some(((_, first), events)) = lines.split_first() else {
        return Err(ScenarioError::Store(format!(
            "{}: empty trace",
            path.display()
        )));
    };
    if first.trim() != "[" {
        return Err(ScenarioError::Store(format!(
            "{}: expected a lone '[' on the first line",
            path.display()
        )));
    }
    for (i, (lineno, line)) in events.iter().enumerate() {
        let line = line.trim().trim_end_matches(']');
        let line = line.trim().trim_end_matches(',');
        if line.is_empty() {
            continue; // a bare closing "]" line, if a tool re-wrote the file
        }
        match parse_event(line) {
            Ok((name, dur_us)) => {
                stats.events += 1;
                let span = stats.spans.entry(name).or_default();
                span.count += 1;
                span.total_us += dur_us;
            }
            Err(_) if i + 1 == events.len() => {
                stats.torn_tail = true; // torn tail: kill mid-append
            }
            Err(e) => {
                return Err(ScenarioError::Store(format!(
                    "{} line {}: {e}",
                    path.display(),
                    lineno + 1
                )))
            }
        }
    }
    Ok(stats)
}

/// Validates one event line; returns `(name, dur_us)`.
fn parse_event(line: &str) -> Result<(String, f64), String> {
    let doc = Json::parse(line)?;
    let name = doc
        .get("name")
        .and_then(Json::as_str)
        .ok_or("event without name")?
        .to_string();
    match doc.get("ph").and_then(Json::as_str) {
        Some("X") => {}
        Some(ph) => return Err(format!("event phase {ph:?}, expected \"X\"")),
        None => return Err("event without ph".into()),
    }
    let num = |key: &str| {
        doc.get(key)
            .and_then(Json::as_f64)
            .filter(|v| v.is_finite() && *v >= 0.0)
            .ok_or_else(|| format!("event without numeric {key}"))
    };
    num("ts")?;
    let dur = num("dur")?;
    Ok((name, dur))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    struct TempTrace(std::path::PathBuf);

    impl TempTrace {
        fn new(name: &str, body: &str) -> TempTrace {
            let path = std::env::temp_dir()
                .join(format!("harness-trace-{}-{name}.json", std::process::id()));
            std::fs::write(&path, body).unwrap();
            TempTrace(path)
        }
    }

    impl Drop for TempTrace {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    #[test]
    fn event_line_shape() {
        let line = event_line("memo", "store", 1_500, 2_500, 3);
        assert!(line.ends_with(','));
        let doc = Json::parse(line.trim_end_matches(',')).unwrap();
        assert_eq!(doc.get("name").and_then(Json::as_str), Some("memo"));
        assert_eq!(doc.get("ph").and_then(Json::as_str), Some("X"));
        assert_eq!(doc.get("ts").and_then(Json::as_f64), Some(1.5));
        assert_eq!(doc.get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(doc.get("tid").and_then(Json::as_f64), Some(3.0));
    }

    #[test]
    fn valid_trace_loads() {
        let body = format!(
            "[\n{}\n{}\n",
            event_line("plan", "exec", 0, 1_000, 1),
            event_line("cell", "exec", 1_000, 500, 2)
        );
        let t = TempTrace::new("valid", &body);
        let stats = load_trace(&t.0).unwrap();
        assert_eq!(stats.events, 2);
        assert!(!stats.torn_tail);
        assert_eq!(stats.spans["plan"].count, 1);
        assert!((stats.spans["cell"].total_us - 0.5).abs() < 1e-9);
    }

    #[test]
    fn torn_final_line_is_tolerated() {
        let mut body = format!("[\n{}\n", event_line("plan", "exec", 0, 1_000, 1));
        body.push_str("{\"name\":\"cel"); // kill mid-append
        let t = TempTrace::new("torn", &body);
        let stats = load_trace(&t.0).unwrap();
        assert_eq!(stats.events, 1);
        assert!(stats.torn_tail);
    }

    #[test]
    fn mid_file_corruption_errors() {
        let body = format!("[\ngarbage\n{}\n", event_line("plan", "exec", 0, 1_000, 1));
        let t = TempTrace::new("corrupt", &body);
        let err = load_trace(&t.0).unwrap_err().to_string();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn non_x_phase_rejected() {
        let body = "[\n{\"name\":\"a\",\"ph\":\"B\",\"ts\":1,\"dur\":1},\n{\"name\":\"b\",\"ph\":\"X\",\"ts\":1,\"dur\":1},\n";
        let t = TempTrace::new("phase", body);
        let err = load_trace(&t.0).unwrap_err().to_string();
        assert!(err.contains("phase"), "{err}");
    }

    #[test]
    fn missing_first_bracket_rejected() {
        let t = TempTrace::new("nobracket", "{\"name\":\"a\"}\n");
        assert!(load_trace(&t.0).is_err());
    }

    #[test]
    fn trailing_close_bracket_tolerated() {
        // A tool (or a careful human) may re-write the file with the
        // closing bracket present; the loader must not choke on it.
        let mut body = format!("[\n{}\n", event_line("plan", "exec", 0, 1_000, 1));
        let trimmed = body.trim_end().trim_end_matches(',').to_string();
        body = format!("{trimmed}\n]\n");
        let t = TempTrace::new("closed", &body);
        let stats = load_trace(&t.0).unwrap();
        assert_eq!(stats.events, 1);
        assert!(!stats.torn_tail);
    }

    #[test]
    fn written_trace_roundtrips() {
        let path = std::env::temp_dir().join(format!(
            "harness-trace-{}-roundtrip.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let obs = crate::obs::Obs::with_trace(&path).unwrap();
        obs.record_span("plan", "exec", 0, 1_000);
        obs.record_span("cell", "exec", 1_000, 2_000);
        let (written, events) = obs.finish_trace().unwrap().unwrap();
        assert_eq!(written, path);
        assert_eq!(events, 2);
        let stats = load_trace(&path).unwrap();
        assert_eq!(stats.events, 2);
        assert!(!stats.torn_tail);
        assert_eq!(stats.spans["cell"].count, 1);
        // Simulate a kill mid-append: a partial line at the tail.
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        f.write_all(b"{\"name\":\"jour").unwrap();
        drop(f);
        let stats = load_trace(&path).unwrap();
        assert_eq!(stats.events, 2);
        assert!(stats.torn_tail);
        let _ = std::fs::remove_file(&path);
    }
}
