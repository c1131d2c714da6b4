//! Fixed-width sim-time windowed rollups — the streaming layer of the
//! health plane.
//!
//! A [`Series`] buckets samples by *when they happened on a
//! deterministic simulation clock* (picoseconds, epochs, schedule
//! milliseconds — the recorder picks the clock and the window width),
//! keeping one [`HistogramSnapshot`] per non-empty window: count, sum,
//! min/max, and the log₂ bucket sketch of [`crate::Histogram`], so
//! every window supports an approximate quantile. Unlike a
//! histogram, a series answers *when* — "CE rate through time" rather
//! than "CE rate overall" — which is what the detector suite in
//! [`crate::monitor`] consumes.
//!
//! # Determinism and merging
//!
//! Window aggregation is commutative and associative (counts and sums
//! add, extremes widen, sketch buckets fold), so a series' snapshot
//! depends only on the *set* of `(time, value)` samples, never on the
//! order threads recorded them. Sharded runs follow the
//! [`crate::Obs`] discipline: each worker records into its own fork of
//! the store ([`SeriesStore::fork`]), the coordinator folds the shard
//! snapshots back in canonical input order, and the result is
//! byte-identical to a single-stream run over the union of samples.
//!
//! # Export
//!
//! [`SeriesSnapshot::to_jsonl`] emits one JSON object per window,
//! sorted by `(series name, window start)` — deterministic for a fixed
//! seed — and [`parse_series_jsonl`] reads it back exactly.

use crate::export::{escape_json, read_sketch, write_sketch};
use crate::json::{self, Json};
use crate::metric::HistogramSnapshot;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

#[derive(Debug)]
struct SeriesInner {
    width: u64,
    windows: BTreeMap<u64, HistogramSnapshot>,
}

/// A shareable handle to one named time series (cheap `Arc` clone).
/// Recording from several threads is safe *and* deterministic: window
/// folds are order-insensitive, so the snapshot depends only on the
/// sample set.
#[derive(Clone, Debug)]
pub struct Series {
    inner: Arc<Mutex<SeriesInner>>,
}

impl Series {
    fn new(width: u64) -> Series {
        Series {
            inner: Arc::new(Mutex::new(SeriesInner {
                width,
                windows: BTreeMap::new(),
            })),
        }
    }

    /// The fixed window width, in the recorder's sim-time units.
    pub fn width(&self) -> u64 {
        self.inner.lock().unwrap().width
    }

    /// Rolls `value` into the window containing sim-time `t`.
    pub fn record(&self, t: u64, value: u64) {
        let mut inner = self.inner.lock().unwrap();
        let start = t - t % inner.width;
        inner.windows.entry(start).or_default().record(value);
    }

    /// Non-empty windows recorded so far.
    pub fn window_count(&self) -> usize {
        self.inner.lock().unwrap().windows.len()
    }

    fn snapshot_entry(&self, name: &str) -> SeriesEntry {
        let inner = self.inner.lock().unwrap();
        SeriesEntry {
            name: name.to_string(),
            width: inner.width,
            windows: inner.windows.iter().map(|(&s, w)| (s, w.clone())).collect(),
        }
    }
}

/// Owns named series, mirroring [`crate::Registry`] for metrics: the
/// coordinator holds one store, each recording site registers its
/// series by name, and [`snapshot`](SeriesStore::snapshot) captures
/// everything sorted by name.
#[derive(Clone, Debug, Default)]
pub struct SeriesStore {
    inner: Arc<Mutex<BTreeMap<String, Series>>>,
}

impl SeriesStore {
    pub fn new() -> SeriesStore {
        SeriesStore::default()
    }

    /// The series named `name` with window width `width`, registering
    /// it on first use.
    ///
    /// # Panics
    /// If `width` is 0, or `name` is already registered with a
    /// different width (same-name recorders must agree on the clock).
    pub fn series(&self, name: &str, width: u64) -> Series {
        assert!(width > 0, "series '{name}' needs a nonzero window width");
        let mut map = self.inner.lock().unwrap();
        let s = map
            .entry(name.to_string())
            .or_insert_with(|| Series::new(width))
            .clone();
        assert_eq!(
            s.width(),
            width,
            "series '{name}' re-registered with a different window width"
        );
        s
    }

    /// The already-registered series named `name`, if any.
    pub fn get(&self, name: &str) -> Option<Series> {
        self.inner.lock().unwrap().get(name).cloned()
    }

    /// Registered series count.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A detached store with the same registered names and widths but
    /// no samples — what a worker shard records into. Snapshot the
    /// shards and fold them back with [`SeriesSnapshot::merged`] (or
    /// [`absorb`](SeriesStore::absorb)) in canonical worker order.
    pub fn fork(&self) -> SeriesStore {
        let map = self.inner.lock().unwrap();
        SeriesStore {
            inner: Arc::new(Mutex::new(
                map.iter()
                    .map(|(name, s)| (name.clone(), Series::new(s.width())))
                    .collect(),
            )),
        }
    }

    /// Folds a shard's snapshot back into this live store (registering
    /// any series the shard discovered).
    pub fn absorb(&self, snap: &SeriesSnapshot) {
        for entry in &snap.entries {
            let s = self.series(&entry.name, entry.width);
            let mut inner = s.inner.lock().unwrap();
            for (start, agg) in &entry.windows {
                inner.windows.entry(*start).or_default().merge_from(agg);
            }
        }
    }

    /// A point-in-time copy of every series, sorted by name.
    pub fn snapshot(&self) -> SeriesSnapshot {
        let map = self.inner.lock().unwrap();
        SeriesSnapshot {
            entries: map.iter().map(|(name, s)| s.snapshot_entry(name)).collect(),
        }
    }
}

/// A point-in-time copy of one series: its non-empty windows as
/// `(window start, rollup)`, ascending.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SeriesEntry {
    pub name: String,
    pub width: u64,
    pub windows: Vec<(u64, HistogramSnapshot)>,
}

impl SeriesEntry {
    /// Total samples across all windows.
    pub fn total_count(&self) -> u64 {
        self.windows.iter().map(|(_, w)| w.count).sum()
    }
}

/// A point-in-time copy of a whole [`SeriesStore`], sorted by series
/// name.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SeriesSnapshot {
    pub entries: Vec<SeriesEntry>,
}

impl SeriesSnapshot {
    /// Folds per-worker snapshots, in input order, into one: same-name
    /// series merge window-by-window, so the result equals the
    /// snapshot of a single store fed every shard's samples.
    ///
    /// # Panics
    /// If the same series name appears with different window widths.
    pub fn merged(parts: &[SeriesSnapshot]) -> SeriesSnapshot {
        let mut acc: BTreeMap<String, (u64, BTreeMap<u64, HistogramSnapshot>)> = BTreeMap::new();
        for part in parts {
            for entry in &part.entries {
                let slot = acc
                    .entry(entry.name.clone())
                    .or_insert_with(|| (entry.width, BTreeMap::new()));
                assert_eq!(
                    slot.0, entry.width,
                    "series '{}' has conflicting window widths across shards",
                    entry.name
                );
                for (start, agg) in &entry.windows {
                    slot.1.entry(*start).or_default().merge_from(agg);
                }
            }
        }
        SeriesSnapshot {
            entries: acc
                .into_iter()
                .map(|(name, (width, windows))| SeriesEntry {
                    name,
                    width,
                    windows: windows.into_iter().collect(),
                })
                .collect(),
        }
    }

    /// The entry named `name`, if present.
    pub fn get(&self, name: &str) -> Option<&SeriesEntry> {
        self.entries.iter().find(|e| e.name == name)
    }

    /// Series count.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Non-empty windows across all series.
    pub fn window_count(&self) -> usize {
        self.entries.iter().map(|e| e.windows.len()).sum()
    }

    /// One JSON object per window, sorted by `(series, start)`:
    ///
    /// ```text
    /// {"series":"governor.ce","width":8,"start":16,"count":1,"sum":412,
    ///  "min":412,"max":412,"buckets":[{"lo":256,"hi":511,"count":1}]}
    /// ```
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for entry in &self.entries {
            for (start, w) in &entry.windows {
                let _ = write!(
                    out,
                    "{{\"series\":\"{}\",\"width\":{},\"start\":{},",
                    escape_json(&entry.name),
                    entry.width,
                    start,
                );
                write_sketch(&mut out, w);
                out.push_str("}\n");
            }
        }
        out
    }
}

/// Parses [`SeriesSnapshot::to_jsonl`] output back into a snapshot
/// (folding duplicate `(series, start)` lines, so re-parsing a merged
/// export round-trips exactly).
pub fn parse_series_jsonl(text: &str) -> Result<SeriesSnapshot, String> {
    let mut parts = SeriesSnapshot::default();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = json::parse(line).map_err(|e| format!("line {}: {e}", idx + 1))?;
        let ctx = |field: &str| format!("line {}: bad or missing '{field}'", idx + 1);
        let name = doc
            .get("series")
            .and_then(Json::as_str)
            .ok_or_else(|| ctx("series"))?
            .to_string();
        let width = doc
            .get("width")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("width"))?;
        let start = doc
            .get("start")
            .and_then(Json::as_u64)
            .ok_or_else(|| ctx("start"))?;
        let agg = read_sketch(&doc).map_err(|key| ctx(&key))?;
        parts.entries.push(SeriesEntry {
            name,
            width,
            windows: vec![(start, agg)],
        });
    }
    let one = SeriesSnapshot::merged(&[parts]);
    Ok(one)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_partition_time_by_width() {
        let store = SeriesStore::new();
        let s = store.series("x", 10);
        s.record(0, 5);
        s.record(9, 7);
        s.record(10, 1);
        s.record(25, 3);
        let snap = store.snapshot();
        let e = snap.get("x").unwrap();
        assert_eq!(e.width, 10);
        let starts: Vec<u64> = e.windows.iter().map(|(s, _)| *s).collect();
        assert_eq!(starts, vec![0, 10, 20]);
        let w0 = &e.windows[0].1;
        assert_eq!((w0.count, w0.sum, w0.min, w0.max), (2, 12, 5, 7));
        assert_eq!(e.total_count(), 4);
    }

    #[test]
    fn window_sketch_supports_quantiles() {
        let mut w = HistogramSnapshot::default();
        for v in [1u64, 2, 3, 4, 100, 200] {
            w.record(v);
        }
        assert_eq!(w.buckets.iter().map(|b| b.2).sum::<u64>(), 6);
        assert!(w.approx_quantile(0.5).unwrap() <= 7);
        assert_eq!(w.approx_quantile(1.0), Some(255));
        assert_eq!(HistogramSnapshot::default().approx_quantile(0.5), None);
        assert!((w.mean() - 310.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn record_order_does_not_matter() {
        let a = SeriesStore::new();
        let b = SeriesStore::new();
        let samples: Vec<(u64, u64)> = (0..200).map(|i| (i * 3 % 50, i * 7 % 23)).collect();
        let sa = a.series("s", 8);
        for &(t, v) in &samples {
            sa.record(t, v);
        }
        let sb = b.series("s", 8);
        for &(t, v) in samples.iter().rev() {
            sb.record(t, v);
        }
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn sharded_merge_equals_single_stream() {
        let whole = SeriesStore::new();
        let template = SeriesStore::new();
        template.series("m", 16); // register the shape up front
        let shards: Vec<SeriesStore> = (0..3).map(|_| template.fork()).collect();
        for i in 0..300u64 {
            let t = i * 5 % 128;
            let v = i % 17;
            whole.series("m", 16).record(t, v);
            shards[(i % 3) as usize].series("m", 16).record(t, v);
        }
        let parts: Vec<SeriesSnapshot> = shards.iter().map(SeriesStore::snapshot).collect();
        let merged = SeriesSnapshot::merged(&parts);
        assert_eq!(merged, whole.snapshot());
        assert_eq!(merged.to_jsonl(), whole.snapshot().to_jsonl());
        // absorb() replays shards into a live store identically.
        let live = SeriesStore::new();
        for p in &parts {
            live.absorb(p);
        }
        assert_eq!(live.snapshot(), whole.snapshot());
    }

    #[test]
    fn jsonl_round_trips() {
        let store = SeriesStore::new();
        let s = store.series("ecc.detect", 1_000);
        s.record(0, 0);
        s.record(999, 3);
        s.record(5_000, u64::MAX);
        store.series("empty \"name\"", 7).record(3, 1);
        let snap = store.snapshot();
        let text = snap.to_jsonl();
        let back = parse_series_jsonl(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_jsonl(), text);
        assert!(parse_series_jsonl("{\"series\":1}\n").is_err());
        assert!(parse_series_jsonl("").unwrap().is_empty());
    }

    #[test]
    #[should_panic(expected = "different window width")]
    fn width_conflict_panics() {
        let store = SeriesStore::new();
        store.series("x", 10);
        store.series("x", 20);
    }

    #[test]
    fn fork_is_detached_but_shares_shape() {
        let store = SeriesStore::new();
        store.series("a", 4).record(0, 1);
        let shard = store.fork();
        assert_eq!(shard.len(), 1);
        assert_eq!(shard.get("a").unwrap().width(), 4);
        assert_eq!(shard.get("a").unwrap().window_count(), 0, "no samples");
        shard.series("a", 4).record(8, 2);
        assert_eq!(store.get("a").unwrap().window_count(), 1, "detached");
    }
}
