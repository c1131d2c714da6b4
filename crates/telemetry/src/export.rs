//! Hand-rolled exporters: JSONL for snapshots plus CSV field quoting.
//! No serde — every value we serialize is an integer, a string, or a
//! list of integer triples, so the writers stay tiny and
//! dependency-free.

use crate::json::{self, Json};
use crate::metric::HistogramSnapshot;
use crate::registry::{MetricValue, Snapshot};
use std::fmt::Write as _;

/// Reduce a free-form label ("Hetero-DMR+FMR @0.8GT/s") to a metric
/// name segment: lowercase alphanumerics, everything else collapsed to
/// single underscores, trimmed at both ends.
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_sep = false;
    for ch in label.chars() {
        if ch.is_ascii_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(ch.to_ascii_lowercase());
        } else {
            pending_sep = true;
        }
    }
    out
}

/// Escape `s` for inclusion inside a JSON string literal.
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Writes a distribution's `"count","sum","min","max","buckets"` JSON
/// members: the shared body of a histogram metric line and a series
/// window line.
pub(crate) fn write_sketch(out: &mut String, h: &HistogramSnapshot) {
    let _ = write!(
        out,
        "\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"buckets\":[",
        h.count, h.sum, h.min, h.max,
    );
    for (i, (lo, hi, n)) in h.buckets.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"lo\":{lo},\"hi\":{hi},\"count\":{n}}}");
    }
    out.push(']');
}

/// Reads back the members [`write_sketch`] writes; the error is the
/// first missing or malformed key.
pub(crate) fn read_sketch(doc: &Json) -> Result<HistogramSnapshot, String> {
    let num = |obj: &Json, key: &str| {
        obj.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| key.to_string())
    };
    let mut h = HistogramSnapshot {
        count: num(doc, "count")?,
        sum: num(doc, "sum")?,
        min: num(doc, "min")?,
        max: num(doc, "max")?,
        buckets: Vec::new(),
    };
    for b in doc.get("buckets").and_then(Json::as_arr).ok_or("buckets")? {
        h.buckets
            .push((num(b, "lo")?, num(b, "hi")?, num(b, "count")?));
    }
    Ok(h)
}

/// One JSON object per metric, one per line, sorted by name (the
/// snapshot is already sorted). Integers only — byte-identical across
/// runs whenever the underlying metrics are.
pub fn format_jsonl(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    for entry in &snapshot.entries {
        match &entry.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(
                    out,
                    "{{\"name\":\"{}\",\"type\":\"counter\",\"value\":{v}}}",
                    escape_json(&entry.name)
                );
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(
                    out,
                    "{{\"name\":\"{}\",\"type\":\"gauge\",\"value\":{v}}}",
                    escape_json(&entry.name)
                );
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"name\":\"{}\",\"type\":\"histogram\",",
                    escape_json(&entry.name)
                );
                write_sketch(&mut out, h);
                out.push_str("}\n");
            }
        }
    }
    out
}

/// Quote `s` as one CSV field: fields holding a separator, quote or
/// line break are wrapped in quotes with inner quotes doubled.
pub fn escape_csv(s: &str) -> String {
    // RFC 4180 quoting: `\r` matters too — a bare CR in a label would
    // otherwise split the record on CRLF-aware readers.
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Splits one CSV record into its fields, honouring [`escape_csv`]'s
/// quoting (RFC 4180: quoted fields may contain separators and
/// doubled quotes). The inverse of joining `escape_csv`ed fields with
/// commas; also used by `experiments report` to read reference CSVs.
pub fn parse_csv_line(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(ch) = chars.next() {
        match ch {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    field.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if field.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut field)),
            c => field.push(c),
        }
    }
    fields.push(field);
    fields
}

/// Parses [`format_jsonl`] output back into a [`Snapshot`]. Unknown
/// metric types and structural errors are reported with the offending
/// line number.
pub fn parse_jsonl(text: &str) -> Result<Snapshot, String> {
    let mut entries = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let at = |msg: &str| format!("metrics line {}: {msg}", i + 1);
        let doc = json::parse(line).map_err(|e| at(&e))?;
        let name = doc
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing name"))?
            .to_string();
        let kind = doc
            .get("type")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing type"))?;
        let value = match kind {
            "counter" => MetricValue::Counter(
                doc.get("value")
                    .and_then(Json::as_u64)
                    .ok_or_else(|| at("counter needs a non-negative value"))?,
            ),
            "gauge" => MetricValue::Gauge(
                doc.get("value")
                    .and_then(Json::as_i64)
                    .ok_or_else(|| at("gauge needs an integer value"))?,
            ),
            "histogram" => MetricValue::Histogram(
                read_sketch(&doc).map_err(|key| at(&format!("histogram needs '{key}'")))?,
            ),
            other => return Err(at(&format!("unknown metric type '{other}'"))),
        };
        entries.push(crate::registry::SnapshotEntry { name, value });
    }
    Ok(Snapshot { entries })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample() -> Snapshot {
        let r = Registry::new();
        r.counter("ctrl.reads").add(10);
        r.gauge("queue.depth").set(-2);
        let h = r.histogram("ctrl.read_latency_ps");
        h.record(0);
        h.record(100);
        h.record(100);
        r.snapshot()
    }

    #[test]
    fn slug_flattens_labels() {
        assert_eq!(slug("Hetero-DMR+FMR"), "hetero_dmr_fmr");
        assert_eq!(slug("Hierarchy1"), "hierarchy1");
        assert_eq!(slug("  @0.8 GT/s  "), "0_8_gt_s");
        assert_eq!(slug("already_fine"), "already_fine");
        assert_eq!(slug("***"), "");
    }

    #[test]
    fn jsonl_shape_and_escaping() {
        let jsonl = format_jsonl(&sample());
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"name\":\"ctrl.read_latency_ps\",\"type\":\"histogram\",\"count\":3,\
             \"sum\":200,\"min\":0,\"max\":100,\"buckets\":[{\"lo\":0,\"hi\":0,\"count\":1},\
             {\"lo\":64,\"hi\":127,\"count\":2}]}"
        );
        assert_eq!(
            lines[1],
            "{\"name\":\"ctrl.reads\",\"type\":\"counter\",\"value\":10}"
        );
        assert_eq!(
            lines[2],
            "{\"name\":\"queue.depth\",\"type\":\"gauge\",\"value\":-2}"
        );
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    /// Labels with CSV/JSON metacharacters must survive a full
    /// export → parse round trip.
    #[test]
    fn jsonl_round_trips_hostile_labels() {
        let r = Registry::new();
        let nasty = "a,b \"quoted\"\nnew\rline\ttab\\slash";
        r.counter(nasty).add(7);
        r.gauge("plain").set(-3);
        let h = r.histogram("lat");
        h.record(5);
        let snap = r.snapshot();
        let parsed = parse_jsonl(&format_jsonl(&snap)).unwrap();
        assert_eq!(parsed, snap);
    }

    #[test]
    fn parse_jsonl_reports_bad_lines() {
        assert!(parse_jsonl("{\"name\":\"x\"}")
            .unwrap_err()
            .contains("line 1"));
        assert!(parse_jsonl("{\"name\":\"x\",\"type\":\"foo\",\"value\":1}")
            .unwrap_err()
            .contains("unknown metric type"));
        assert!(parse_jsonl("").unwrap().entries.is_empty());
    }

    #[test]
    fn csv_round_trips_hostile_labels() {
        for nasty in ["a,b", "q\"uote", "multi\nline", "cr\rhere", "plain"] {
            let line = escape_csv(nasty);
            assert_eq!(parse_csv_line(&line), vec![nasty.to_string()]);
        }
        // A full record: a field with every metacharacter between plain
        // ones. escape_csv keeps the record as ONE line: the newline
        // lives inside quotes.
        let fields = ["a,b \"c\"\r\nd", "counter", "1"];
        let record: Vec<String> = fields.iter().map(|f| escape_csv(f)).collect();
        assert_eq!(parse_csv_line(&record.join(",")), fields);
    }
}
