//! The metric registry: named handles, scoped namespaces, snapshots.

use crate::metric::{Counter, Gauge, Histogram, HistogramSnapshot};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Wall-clock histograms end in this suffix by convention, so
/// [`Snapshot::sim_only`] can strip non-deterministic values from
/// exports that must be byte-identical across runs of the same seed.
pub const WALL_SUFFIX: &str = ".wall_ns";

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A shared, thread-safe collection of named metrics.
///
/// Cloning a `Registry` is cheap and aliases the same underlying
/// store. Handles returned by [`counter`](Registry::counter) /
/// [`gauge`](Registry::gauge) / [`histogram`](Registry::histogram)
/// stay valid for the registry's lifetime; looking one up twice
/// returns the same metric.
#[derive(Clone, Debug, Default)]
pub struct Registry {
    metrics: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    ///
    /// # Panics
    /// If `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::new()))
        {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric '{name}' already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the gauge `name` (same contract as `counter`).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::new()))
        {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric '{name}' already registered as {}", kind_of(other)),
        }
    }

    /// Get or create the histogram `name` (same contract as `counter`).
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut metrics = self.metrics.lock().unwrap();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Histogram::new()))
        {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric '{name}' already registered as {}", kind_of(other)),
        }
    }

    /// A namespaced view: every metric created through the scope gets
    /// `prefix.` prepended to its name (`scope("")` is the root view).
    pub fn scope(&self, prefix: &str) -> Scope {
        Scope {
            registry: self.clone(),
            prefix: prefix.to_string(),
        }
    }

    /// A point-in-time copy of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let metrics = self.metrics.lock().unwrap();
        Snapshot {
            entries: metrics
                .iter()
                .map(|(name, metric)| SnapshotEntry {
                    name: name.clone(),
                    value: match metric {
                        Metric::Counter(c) => MetricValue::Counter(c.get()),
                        Metric::Gauge(g) => MetricValue::Gauge(g.get()),
                        Metric::Histogram(h) => MetricValue::Histogram(h.snapshot()),
                    },
                })
                .collect(),
        }
    }
}

fn kind_of(metric: &Metric) -> &'static str {
    match metric {
        Metric::Counter(_) => "a counter",
        Metric::Gauge(_) => "a gauge",
        Metric::Histogram(_) => "a histogram",
    }
}

/// A prefix-applying view over a [`Registry`] (see [`Registry::scope`]).
#[derive(Clone, Debug)]
pub struct Scope {
    registry: Registry,
    prefix: String,
}

impl Scope {
    pub fn counter(&self, name: &str) -> Counter {
        self.registry.counter(&self.qualified(name))
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        self.registry.gauge(&self.qualified(name))
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        self.registry.histogram(&self.qualified(name))
    }

    /// A nested scope `self.prefix + "." + prefix`.
    pub fn scope(&self, prefix: &str) -> Scope {
        self.registry.scope(&self.qualified(prefix))
    }

    pub fn prefix(&self) -> &str {
        &self.prefix
    }

    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Replay a snapshot into this scope: each entry is re-recorded
    /// under `<prefix>.<entry name>`. Counters add, gauges set, and
    /// histograms fold via [`Histogram::merge_snapshot`] — so
    /// absorbing the snapshot of a private registry produces exactly
    /// the metrics that recording into this scope directly would
    /// have. Used by result caches to credit a cache hit's metrics to
    /// the requesting scope without re-running the simulation.
    pub fn absorb(&self, snap: &Snapshot) {
        for entry in &snap.entries {
            match &entry.value {
                MetricValue::Counter(v) => self.counter(&entry.name).add(*v),
                MetricValue::Gauge(v) => self.gauge(&entry.name).set(*v),
                MetricValue::Histogram(h) => self.histogram(&entry.name).merge_snapshot(h),
            }
        }
    }

    fn qualified(&self, name: &str) -> String {
        if self.prefix.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.prefix)
        }
    }
}

/// One metric's value at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
    Histogram(HistogramSnapshot),
}

/// A named metric at snapshot time.
#[derive(Clone, Debug, PartialEq)]
pub struct SnapshotEntry {
    pub name: String,
    pub value: MetricValue,
}

/// A point-in-time copy of a registry's metrics, sorted by name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    pub entries: Vec<SnapshotEntry>,
}

impl Snapshot {
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .iter()
            .find(|e| e.name == name)
            .map(|e| &e.value)
    }

    /// Convenience: the value of counter `name`, or 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        match self.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Entries whose names pass `keep`.
    pub fn filter(&self, keep: impl Fn(&str) -> bool) -> Snapshot {
        Snapshot {
            entries: self
                .entries
                .iter()
                .filter(|e| keep(&e.name))
                .cloned()
                .collect(),
        }
    }

    /// Strip wall-clock metrics (names ending in [`WALL_SUFFIX`]) so
    /// the result is deterministic for a fixed seed.
    pub fn sim_only(&self) -> Snapshot {
        self.filter(|name| !name.ends_with(WALL_SUFFIX))
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_is_idempotent_and_shared() {
        let r = Registry::new();
        r.counter("a").inc();
        r.counter("a").add(2);
        assert_eq!(r.counter("a").get(), 3);
        let clone = r.clone();
        clone.counter("a").inc();
        assert_eq!(r.counter("a").get(), 4);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let r = Registry::new();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn scopes_prefix_names() {
        let r = Registry::new();
        let ctrl = r.scope("controller");
        ctrl.counter("reads").add(7);
        let nested = ctrl.scope("ch0");
        nested.gauge("depth").set(3);
        let snap = r.snapshot();
        assert_eq!(snap.counter("controller.reads"), 7);
        assert_eq!(
            snap.get("controller.ch0.depth"),
            Some(&MetricValue::Gauge(3))
        );
    }

    #[test]
    fn snapshot_is_sorted_and_filterable() {
        let r = Registry::new();
        r.counter("z.ops");
        r.counter("a.ops");
        r.histogram("run.wall_ns").record(5);
        let snap = r.snapshot();
        let names: Vec<&str> = snap.entries.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, vec!["a.ops", "run.wall_ns", "z.ops"]);
        let sim = snap.sim_only();
        assert_eq!(sim.len(), 2);
        assert!(sim.get("run.wall_ns").is_none());
    }

    #[test]
    fn absorb_equals_direct_recording() {
        // Recording into a private registry and absorbing its
        // snapshot must equal recording into the scope directly.
        let private = Registry::new();
        private.counter("reads").add(9);
        private.gauge("depth").set(-2);
        for v in [3u64, 12, 700] {
            private.histogram("lat").record(v);
        }

        let direct = Registry::new();
        let scope = direct.scope("node.a");
        scope.counter("reads").add(9);
        scope.gauge("depth").set(-2);
        for v in [3u64, 12, 700] {
            scope.histogram("lat").record(v);
        }

        let absorbed = Registry::new();
        absorbed.scope("node.a").absorb(&private.snapshot());
        assert_eq!(absorbed.snapshot(), direct.snapshot());

        // Absorbing twice doubles counters/histograms (replay
        // semantics), matching two direct recordings.
        absorbed.scope("node.a").absorb(&private.snapshot());
        scope.counter("reads").add(9);
        scope.gauge("depth").set(-2);
        for v in [3u64, 12, 700] {
            scope.histogram("lat").record(v);
        }
        assert_eq!(absorbed.snapshot(), direct.snapshot());
    }
}
