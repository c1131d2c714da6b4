//! One observation handle over the three deterministic sinks.
//!
//! An [`Obs`] bundles an optional metric [`Scope`], an optional
//! [`Tracer`], and an optional [`SeriesStore`] (with the series-name
//! prefix that mirrors the scope's). Orchestration code — the
//! experiment runner, the node model's miss path, the federation's
//! shards — never touches the sinks one by one: it hands a worker a
//! [`fork`](Obs::fork), collects the worker's
//! [`take`](Obs::take) as one [`ObsSnapshot`], and
//! [`absorb`](Obs::absorb)s the snapshots back **in input order**.
//! That order rule is what makes every export independent of which
//! worker finished first; adding a sink means extending this one type.

use crate::registry::{Registry, Scope, Snapshot};
use crate::series::{Series, SeriesSnapshot, SeriesStore};
use crate::trace::{TraceEvent, Tracer};

/// A cloneable handle to whichever sinks are switched on (cheap: every
/// sink is an `Arc`). The default handle observes nothing.
#[derive(Clone, Debug, Default)]
pub struct Obs {
    metrics: Option<Scope>,
    tracer: Option<Tracer>,
    series: Option<SeriesStore>,
    /// Series-name prefix, narrowed by [`child`](Obs::child) in step
    /// with the metric scope.
    prefix: String,
}

/// Everything one (forked) handle recorded: a metric snapshot, the
/// drained trace buffer, and a series snapshot — each present exactly
/// when the handle carried that sink.
#[derive(Clone, Debug, Default)]
pub struct ObsSnapshot {
    pub metrics: Option<Snapshot>,
    pub trace: Option<Vec<TraceEvent>>,
    pub series: Option<SeriesSnapshot>,
}

impl Obs {
    /// Records metrics under `scope`.
    pub fn set_metrics(&mut self, scope: Scope) {
        self.metrics = Some(scope);
    }

    /// Records causal spans into `tracer`.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = Some(tracer);
    }

    /// Streams windowed series into `store`, names prefixed by
    /// `prefix` (empty for none).
    pub fn set_series(&mut self, store: SeriesStore, prefix: &str) {
        self.series = Some(store);
        self.prefix = prefix.to_string();
    }

    pub fn scope(&self) -> Option<&Scope> {
        self.metrics.as_ref()
    }

    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_ref()
    }

    /// The series store and this handle's name prefix.
    pub fn series(&self) -> Option<(&SeriesStore, &str)> {
        self.series.as_ref().map(|s| (s, self.prefix.as_str()))
    }

    /// The series `<prefix>.<name>` with window width `width`, when a
    /// series store is attached.
    pub fn series_named(&self, name: &str, width: u64) -> Option<Series> {
        self.series
            .as_ref()
            .map(|s| s.series(&join(&self.prefix, name), width))
    }

    /// A view one namespace down: the metric scope and the series
    /// prefix both gain `name`; the tracer is shared.
    pub fn child(&self, name: &str) -> Obs {
        Obs {
            metrics: self.metrics.as_ref().map(|s| s.scope(name)),
            tracer: self.tracer.clone(),
            series: self.series.clone(),
            prefix: join(&self.prefix, name),
        }
    }

    /// A detached copy for one worker: the same sinks switched on, but
    /// each backed by fresh private storage, so concurrent workers
    /// never interleave. Metric names restart at the fork's root
    /// (absorbing re-prefixes them); series keep their full names.
    pub fn fork(&self) -> Obs {
        Obs {
            metrics: self.metrics.as_ref().map(|_| Registry::new().scope("")),
            tracer: self.tracer.as_ref().map(|_| Tracer::new()),
            series: self.series.as_ref().map(SeriesStore::fork),
            prefix: self.prefix.clone(),
        }
    }

    /// What this handle's stores hold: the whole registry behind the
    /// scope, the drained trace buffer, and the series store. Call it
    /// on a [`fork`](Obs::fork) once its worker is done.
    pub fn take(&self) -> ObsSnapshot {
        ObsSnapshot {
            metrics: self.metrics.as_ref().map(|s| s.registry().snapshot()),
            trace: self.tracer.as_ref().map(Tracer::take),
            series: self.series.as_ref().map(SeriesStore::snapshot),
        }
    }

    /// Folds a fork's [`take`](Obs::take) back into this handle:
    /// metrics replay under this scope, trace events splice under the
    /// innermost open span, series windows merge by name. Callers
    /// absorb worker snapshots in input order, never completion order.
    pub fn absorb(&self, snap: ObsSnapshot) {
        if let (Some(scope), Some(metrics)) = (&self.metrics, &snap.metrics) {
            scope.absorb(metrics);
        }
        if let (Some(tracer), Some(events)) = (&self.tracer, snap.trace) {
            tracer.absorb(events);
        }
        if let (Some(store), Some(series)) = (&self.series, &snap.series) {
            store.absorb(series);
        }
    }
}

fn join(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format_jsonl;
    use crate::trace::{chrome_trace, Clock};

    /// One worker's share of the recording, identical whether it goes
    /// straight to the root handle or through a fork.
    fn record(obs: &Obs, worker: u64) {
        let o = obs.child(&format!("w{}", worker % 2));
        let scope = o.scope().unwrap();
        scope.counter("ops").add(worker + 1);
        scope.gauge("last").set(worker as i64);
        scope.histogram("lat").record(worker * 100 + 3);
        let t = o.tracer().unwrap();
        let span = t.begin(format!("work.{worker}"), "test", Clock::SimPs, worker);
        t.instant("mark", "test", Clock::Ticks, t.tick(), Vec::new());
        t.end(span, worker + 10);
        o.series_named("sig", 10)
            .unwrap()
            .record(worker * 7, worker);
    }

    fn exports(obs: &Obs) -> (String, String, String) {
        let snap = obs.take();
        (
            format_jsonl(&snap.metrics.unwrap()),
            chrome_trace(&[("t".to_string(), snap.trace.unwrap())]),
            snap.series.unwrap().to_jsonl(),
        )
    }

    fn root() -> Obs {
        let mut obs = Obs::default();
        obs.set_metrics(Registry::new().scope(""));
        obs.set_tracer(Tracer::new());
        obs.set_series(SeriesStore::new(), "run");
        obs
    }

    #[test]
    fn forks_absorbed_in_input_order_match_a_single_writer() {
        const N: u64 = 6;
        let single = root();
        for w in 0..N {
            record(&single, w);
        }

        let merged = root();
        let forks: Vec<Obs> = (0..N).map(|_| merged.fork()).collect();
        // Workers finish in a scrambled order...
        for w in [3, 0, 5, 1, 4, 2] {
            record(&forks[w as usize], w);
        }
        // ...and the coordinator absorbs in canonical order.
        for fork in &forks {
            merged.absorb(fork.take());
        }
        assert_eq!(exports(&merged), exports(&single));
    }

    #[test]
    fn child_narrows_scope_and_series_prefix_together() {
        let obs = root().child("node").child("a");
        assert_eq!(obs.scope().unwrap().prefix(), "node.a");
        assert_eq!(obs.series().unwrap().1, "run.node.a");
        let plain = Obs::default().child("x");
        assert!(plain.scope().is_none() && plain.tracer().is_none() && plain.series().is_none());
        let snap = plain.fork().take();
        assert!(snap.metrics.is_none() && snap.trace.is_none() && snap.series.is_none());
    }
}
