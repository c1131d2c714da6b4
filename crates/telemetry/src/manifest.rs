//! Run provenance: what produced a set of metric files.

use crate::export::escape_json;
use crate::registry::Snapshot;
use std::fmt::Write as _;
use std::process::Command;

/// Metadata written alongside exported metrics so a result directory
/// is self-describing: the target that ran, its seed and knobs, the
/// source revision, wall time, and a summary of the snapshot.
///
/// The manifest deliberately carries every non-deterministic datum
/// (wall time, hostname-ish context) so the metrics file itself can
/// stay byte-identical for a fixed seed.
#[derive(Clone, Debug, Default)]
pub struct RunManifest {
    pub target: String,
    pub seed: u64,
    /// Free-form configuration knobs, in insertion order.
    pub knobs: Vec<(String, String)>,
    /// `git describe --always --dirty`, when a git checkout and
    /// binary are available.
    pub git_describe: Option<String>,
    pub wall_ms: u64,
    /// Per-target wall-clock durations, in run order. Like `wall_ms`,
    /// diagnostic only — never part of byte-compared output.
    pub target_wall_ms: Vec<(String, u64)>,
    pub metric_count: usize,
}

impl RunManifest {
    pub fn new(target: impl Into<String>, seed: u64) -> Self {
        RunManifest {
            target: target.into(),
            seed,
            ..Default::default()
        }
    }

    pub fn knob(mut self, key: impl Into<String>, value: impl ToString) -> Self {
        self.knobs.push((key.into(), value.to_string()));
        self
    }

    pub fn with_wall_ms(mut self, wall_ms: u64) -> Self {
        self.wall_ms = wall_ms;
        self
    }

    /// Record each target's wall-clock duration.
    pub fn with_target_walls(mut self, walls: impl IntoIterator<Item = (String, u64)>) -> Self {
        self.target_wall_ms = walls.into_iter().collect();
        self
    }

    pub fn with_snapshot(mut self, snapshot: &Snapshot) -> Self {
        self.metric_count = snapshot.len();
        self
    }

    /// Fill `git_describe` from the ambient checkout, if possible.
    pub fn with_git_describe(mut self) -> Self {
        self.git_describe = git_describe();
        self
    }

    /// The manifest as a single pretty-printed JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"target\": \"{}\",", escape_json(&self.target));
        let _ = writeln!(out, "  \"seed\": {},", self.seed);
        out.push_str("  \"knobs\": {");
        for (i, (k, v)) in self.knobs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": \"{}\"", escape_json(k), escape_json(v));
        }
        if self.knobs.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        match &self.git_describe {
            Some(desc) => {
                let _ = writeln!(out, "  \"git_describe\": \"{}\",", escape_json(desc));
            }
            None => out.push_str("  \"git_describe\": null,\n"),
        }
        let _ = writeln!(out, "  \"wall_ms\": {},", self.wall_ms);
        out.push_str("  \"target_wall_ms\": {");
        for (i, (name, ms)) in self.target_wall_ms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), ms);
        }
        if self.target_wall_ms.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        let _ = writeln!(out, "  \"metric_count\": {}", self.metric_count);
        out.push_str("}\n");
        out
    }
}

fn git_describe() -> Option<String> {
    let output = Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()?;
    if !output.status.success() {
        return None;
    }
    let text = String::from_utf8(output.stdout).ok()?;
    let trimmed = text.trim();
    if trimmed.is_empty() {
        None
    } else {
        Some(trimmed.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    #[test]
    fn manifest_json_is_well_formed() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("b").inc();
        let m = RunManifest::new("fig12", 42)
            .knob("ops_per_core", 8_000)
            .knob("quick", true)
            .with_wall_ms(17)
            .with_target_walls([("fig12".to_string(), 11), ("fig13".to_string(), 6)])
            .with_snapshot(&r.snapshot());
        let json = m.to_json();
        assert!(json.contains("\"target\": \"fig12\""));
        assert!(json.contains("\"seed\": 42"));
        assert!(json.contains("\"ops_per_core\": \"8000\""));
        assert!(json.contains("\"quick\": \"true\""));
        assert!(json.contains("\"wall_ms\": 17"));
        assert!(json.contains("\"fig12\": 11"));
        assert!(json.contains("\"fig13\": 6"));
        assert!(json.contains("\"metric_count\": 2"));
        // The emitted document must satisfy our own parser.
        let doc = crate::json::parse(&json).expect("manifest parses as JSON");
        assert_eq!(doc.get("seed").and_then(|v| v.as_u64()), Some(42));
        assert_eq!(
            doc.get("target_wall_ms")
                .and_then(|w| w.get("fig13"))
                .and_then(|v| v.as_u64()),
            Some(6)
        );
    }

    #[test]
    fn empty_manifest_serializes() {
        let json = RunManifest::default().to_json();
        assert!(json.contains("\"git_describe\": null"));
        assert!(json.contains("\"knobs\": {}"));
    }
}
