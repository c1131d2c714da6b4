//! Shared experiment context: seeding, simulation length, CSV output,
//! the optional telemetry registry behind `--metrics`, and the
//! per-task output buffer the parallel runner collects.

use std::fs;
use std::io::Write;
use telemetry::trace::Tracer;
use telemetry::{escape_csv, Registry, Scope};

/// Appends a formatted line to the context's output buffer (the
/// parallel-safe replacement for `println!`): the runner prints every
/// buffer in canonical target order after all tasks join, so output is
/// byte-identical for any `--jobs` value.
macro_rules! say {
    ($ctx:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = writeln!($ctx.out, $($arg)*);
    }};
}

/// Like [`say!`] without the trailing newline (replaces `print!`).
macro_rules! sayp {
    ($ctx:expr, $($arg:tt)*) => {{
        use std::fmt::Write as _;
        let _ = write!($ctx.out, $($arg)*);
    }};
}

pub(crate) use {say, sayp};

/// Global experiment parameters.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Master seed; every stochastic component derives from it.
    pub seed: u64,
    /// Memory operations simulated per core in node-level runs.
    pub ops_per_core: usize,
    /// Monte Carlo trials for distribution experiments.
    pub trials: usize,
    /// Jobs in the system-wide trace.
    pub trace_jobs: usize,
    /// Jobs in the fleet-federation stream (`--fleet-jobs`); `None`
    /// derives the default from the run size (see [`Ctx::fleet_jobs`]).
    pub fleet_jobs: Option<u64>,
    /// Whether `--quick` shrank the run (recorded in the manifest).
    pub quick_run: bool,
    /// Whether node models may share the process-wide result cache
    /// (`--no-model-cache` turns it off; output is identical either
    /// way, only wall time changes).
    pub model_cache: bool,
    /// Where to write CSV copies of every series (optional).
    pub csv_dir: Option<String>,
    /// Where `--metrics` writes the JSONL snapshot + manifest.
    pub metrics_dir: Option<String>,
    /// Where `--trace` writes the Chrome trace + span tree.
    pub trace_dir: Option<String>,
    /// Where `--series` writes the health plane's windowed time-series
    /// (and the health target its incident ledger).
    pub series_dir: Option<String>,
    /// The series store instrumented components stream windowed
    /// rollups into; present exactly when `series_dir` is. Like
    /// `registry`, task contexts each get their *own* store
    /// ([`Ctx::for_task`]); the runner merges the snapshots in
    /// canonical target order.
    pub series: Option<telemetry::series::SeriesStore>,
    /// The causal tracer every instrumented component records into;
    /// present exactly when `trace_dir` is. Like `registry`, task
    /// contexts each get their *own* tracer ([`Ctx::for_task`]); the
    /// runner collects the buffers in canonical target order.
    pub tracer: Option<Tracer>,
    /// The registry every instrumented component records into; present
    /// exactly when `metrics_dir` is. Task contexts built by
    /// [`Ctx::for_task`] each get their *own* registry so concurrent
    /// targets never interleave; the runner merges the snapshots.
    pub registry: Option<Registry>,
    /// Buffered human-readable output (see [`say!`]).
    pub out: String,
}

impl Default for Ctx {
    fn default() -> Ctx {
        Ctx {
            seed: 0xD1A2,
            ops_per_core: 40_000,
            trials: 50_000,
            trace_jobs: 58_000,
            fleet_jobs: None,
            quick_run: false,
            model_cache: true,
            csv_dir: None,
            metrics_dir: None,
            trace_dir: None,
            series_dir: None,
            series: None,
            tracer: None,
            registry: None,
            out: String::new(),
        }
    }
}

impl Ctx {
    /// Shrinks everything for a fast smoke run.
    pub fn quick(&mut self) {
        self.ops_per_core = 8_000;
        self.trials = 5_000;
        self.trace_jobs = 5_000;
        self.quick_run = true;
    }

    /// Jobs the `fleet` target streams: an explicit `--fleet-jobs`
    /// wins; otherwise 10 M for full runs, 100 K under `--quick`
    /// (either way the stream is generated lazily, never stored).
    pub fn fleet_jobs(&self) -> u64 {
        self.fleet_jobs
            .unwrap_or(if self.quick_run { 100_000 } else { 10_000_000 })
    }

    /// Turns on metric collection, exported to `dir` at exit.
    pub fn enable_metrics(&mut self, dir: String) {
        self.metrics_dir = Some(dir);
        self.registry = Some(Registry::new());
    }

    /// Turns on causal tracing, exported to `dir` at exit.
    pub fn enable_trace(&mut self, dir: String) {
        self.trace_dir = Some(dir);
        self.tracer = Some(Tracer::new());
    }

    /// Turns on windowed time-series collection, exported to `dir` at
    /// exit.
    pub fn enable_series(&mut self, dir: String) {
        self.series_dir = Some(dir);
        self.series = Some(telemetry::series::SeriesStore::new());
    }

    /// A context for one experiment task: same knobs, but a fresh
    /// output buffer and (when metrics/tracing are on) a fresh private
    /// registry and tracer, so tasks running on different worker
    /// threads share no mutable state.
    pub fn for_task(&self) -> Ctx {
        Ctx {
            registry: self.registry.is_some().then(Registry::new),
            tracer: self.tracer.is_some().then(Tracer::new),
            series: self
                .series
                .is_some()
                .then(telemetry::series::SeriesStore::new),
            out: String::new(),
            csv_dir: self.csv_dir.clone(),
            metrics_dir: self.metrics_dir.clone(),
            trace_dir: self.trace_dir.clone(),
            series_dir: self.series_dir.clone(),
            ..*self
        }
    }

    /// A registry scope named `prefix`, when `--metrics` is on.
    pub fn metrics_scope(&self, prefix: &str) -> Option<Scope> {
        self.registry.as_ref().map(|r| r.scope(prefix))
    }

    /// Records a headline result as a `summary.<name>` gauge (stored
    /// in the ×10⁴ fixed point of [`telemetry::GAUGE_SCALE`], so it
    /// survives the integer metric model losslessly enough for drift
    /// checks). These gauges are what `experiments report` compares
    /// against the reference CSVs in `results/`.
    pub fn summary(&self, name: &str, value: f64) {
        if let Some(r) = &self.registry {
            r.gauge(&format!("summary.{name}")).set_scaled(value);
        }
    }

    /// Writes `rows` (first row = header) as `<name>.csv` when a CSV
    /// directory was requested. Every field is RFC 4180-quoted, so
    /// `experiments report`'s [`telemetry::parse_csv_line`] reads each
    /// row back field for field.
    pub fn csv(&self, name: &str, rows: &[Vec<String>]) {
        let Some(dir) = &self.csv_dir else { return };
        if fs::create_dir_all(dir).is_err() {
            eprintln!("cannot create {dir}");
            return;
        }
        let path = format!("{dir}/{name}.csv");
        match fs::File::create(&path) {
            Ok(mut f) => {
                for row in rows {
                    let fields: Vec<String> = row.iter().map(|c| escape_csv(c)).collect();
                    let _ = writeln!(f, "{}", fields.join(","));
                }
            }
            Err(e) => eprintln!("cannot write {path}: {e}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shrinks_everything() {
        let mut ctx = Ctx::default();
        let full = ctx.clone();
        ctx.quick();
        assert!(ctx.ops_per_core < full.ops_per_core);
        assert!(ctx.trials < full.trials);
        assert!(ctx.trace_jobs < full.trace_jobs);
        assert!(ctx.fleet_jobs() < full.fleet_jobs());
        assert_eq!(ctx.seed, full.seed, "quick keeps the seed");
        assert!(ctx.quick_run);
        // An explicit --fleet-jobs wins regardless of flag order.
        ctx.fleet_jobs = Some(42);
        assert_eq!(ctx.fleet_jobs(), 42);
    }

    #[test]
    fn metrics_scope_present_only_when_enabled() {
        let mut ctx = Ctx::default();
        assert!(ctx.metrics_scope("node").is_none());
        ctx.enable_metrics("/tmp/unused".into());
        let scope = ctx.metrics_scope("node").expect("registry on");
        scope.counter("ops").inc();
        let snap = ctx.registry.as_ref().unwrap().snapshot();
        assert_eq!(snap.counter("node.ops"), 1);
    }

    #[test]
    fn for_task_isolates_registry_and_output() {
        let mut ctx = Ctx::default();
        ctx.quick();
        ctx.enable_metrics("/tmp/unused".into());
        say!(&mut ctx, "parent line");
        let task = ctx.for_task();
        assert!(task.out.is_empty(), "task starts with an empty buffer");
        assert_eq!(task.trials, ctx.trials, "knobs carry over");
        task.metrics_scope("t").unwrap().counter("ops").inc();
        let parent_snap = ctx.registry.as_ref().unwrap().snapshot();
        assert!(
            parent_snap.is_empty(),
            "task metrics never leak into the parent registry"
        );
        // Without metrics, tasks carry no registry at all.
        let plain = Ctx::default().for_task();
        assert!(plain.registry.is_none());
    }

    #[test]
    fn series_store_is_task_private_like_the_registry() {
        let mut ctx = Ctx::default();
        assert!(ctx.series.is_none(), "off by default");
        ctx.enable_series("/tmp/unused".into());
        let task = ctx.for_task();
        task.series
            .as_ref()
            .unwrap()
            .series("t.sig", 10)
            .record(3, 1);
        assert!(
            ctx.series.as_ref().unwrap().snapshot().is_empty(),
            "task series never leak into the parent store"
        );
        assert_eq!(task.series.as_ref().unwrap().snapshot().len(), 1);
        assert!(Ctx::default().for_task().series.is_none());
    }

    #[test]
    fn say_buffers_formatted_lines() {
        let mut ctx = Ctx::default();
        say!(&mut ctx, "a={}", 1);
        sayp!(&mut ctx, "b");
        say!(&mut ctx, "c");
        assert_eq!(ctx.out, "a=1\nbc\n");
    }

    #[test]
    fn csv_writes_when_enabled_and_is_silent_otherwise() {
        let dir = std::env::temp_dir().join("hdmr_ctx_csv_test");
        let _ = fs::remove_dir_all(&dir);
        let mut ctx = Ctx::default();
        // Disabled by default: no directory appears.
        ctx.csv("nope", &[vec!["a".into()]]);
        assert!(!dir.exists());
        // Enabled: file with the right contents.
        ctx.csv_dir = Some(dir.to_string_lossy().into_owned());
        let label = "HPCG, \"tuned\"";
        ctx.csv(
            "t",
            &[
                vec!["h1".into(), "h2".into()],
                vec!["1".into(), "2".into()],
                vec![label.into(), "3".into()],
            ],
        );
        let text = fs::read_to_string(dir.join("t.csv")).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[..2], ["h1,h2", "1,2"], "plain fields stay bare");
        // A field with a separator and quotes reads back as one field.
        assert_eq!(
            telemetry::parse_csv_line(lines[2]),
            vec![label.to_string(), "3".to_string()]
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
