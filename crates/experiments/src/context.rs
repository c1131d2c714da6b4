//! Shared experiment context: seeding, simulation length, CSV output,
//! the observation handle behind `--metrics`/`--trace`/`--series`, and
//! the per-task output buffer that [`crate::scenarios::run`] collects.

use hetero_dmr::EvalConfig;
use std::fs;
use std::io::Write;
use telemetry::series::SeriesStore;
use telemetry::trace::Tracer;
use telemetry::{escape_csv, Obs, Registry, Scope};

/// Appends a formatted line to the context's output buffer (the
/// parallel-safe replacement for `println!`): the binary prints every
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
    /// Where to write CSV copies of every series (optional).
    pub csv_dir: Option<String>,
    /// Where `--metrics` writes the JSONL snapshot + manifest.
    pub metrics_dir: Option<String>,
    /// Where `--trace` writes the Chrome trace + span tree.
    pub trace_dir: Option<String>,
    /// Where `--series` writes the health plane's windowed time-series
    /// (and the health target its incident ledger).
    pub series_dir: Option<String>,
    /// What instrumented components record into: a metric scope, a
    /// tracer and a series store, each present exactly when its
    /// directory is. Task contexts get a [`fork`](Obs::fork)
    /// ([`Ctx::for_task`]), so concurrent targets never interleave;
    /// [`crate::scenarios::run`] returns the snapshots in input order.
    pub obs: Obs,
    /// Buffered human-readable output (see [`say!`]).
    pub out: String,
}

impl Default for Ctx {
    fn default() -> Ctx {
        let eval = EvalConfig::default();
        Ctx {
            seed: eval.seed,
            ops_per_core: eval.ops_per_core,
            trials: 50_000,
            trace_jobs: 58_000,
            fleet_jobs: None,
            quick_run: false,
            csv_dir: None,
            metrics_dir: None,
            trace_dir: None,
            series_dir: None,
            obs: Obs::default(),
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
        self.obs.set_metrics(Registry::new().scope(""));
    }

    /// Turns on causal tracing, exported to `dir` at exit.
    pub fn enable_trace(&mut self, dir: String) {
        self.trace_dir = Some(dir);
        self.obs.set_tracer(Tracer::new());
    }

    /// Turns on windowed time-series collection, exported to `dir` at
    /// exit.
    pub fn enable_series(&mut self, dir: String) {
        self.series_dir = Some(dir);
        self.obs.set_series(SeriesStore::new(), "");
    }

    /// A context for one experiment task: same knobs, but a fresh
    /// output buffer and a forked observation handle, so tasks running
    /// on different worker threads share no mutable state.
    pub fn for_task(&self) -> Ctx {
        Ctx {
            obs: self.obs.fork(),
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
        self.obs.scope().map(|s| s.scope(prefix))
    }

    /// Records a headline result as a `summary.<name>` gauge (stored
    /// in the ×10⁴ fixed point of [`telemetry::GAUGE_SCALE`], so it
    /// survives the integer metric model losslessly enough for drift
    /// checks). These gauges are what `experiments report` compares
    /// against the reference CSVs in `results/`.
    pub fn summary(&self, name: &str, value: f64) {
        if let Some(s) = self.obs.scope() {
            s.gauge(&format!("summary.{name}")).set_scaled(value);
        }
    }

    /// Writes `rows` (first row = header) as `<name>.csv` when a CSV
    /// directory was requested. Every field is RFC 4180-quoted, so
    /// `experiments report`'s [`telemetry::parse_csv_line`] reads each
    /// row back field for field.
    ///
    /// # Panics
    /// If the file cannot be written, so the target fails and the run
    /// exits 1 (the binary creates the directory up front, so an
    /// unusable `--csv DIR` is reported once, before any target runs).
    pub fn csv(&self, name: &str, rows: &[Vec<String>]) {
        let Some(dir) = &self.csv_dir else { return };
        let path = format!("{dir}/{name}.csv");
        let written = fs::create_dir_all(dir)
            .and_then(|()| fs::File::create(&path))
            .and_then(|mut f| {
                rows.iter().try_for_each(|row| {
                    let fields: Vec<String> = row.iter().map(|c| escape_csv(c)).collect();
                    writeln!(f, "{}", fields.join(","))
                })
            });
        if let Err(e) = written {
            panic!("cannot write {path}: {e}");
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
        let snap = ctx.obs.take().metrics.unwrap();
        assert_eq!(snap.counter("node.ops"), 1);
    }

    #[test]
    fn for_task_isolates_every_sink_and_the_output() {
        let mut ctx = Ctx::default();
        ctx.quick();
        ctx.enable_metrics("/tmp/unused".into());
        ctx.enable_trace("/tmp/unused".into());
        ctx.enable_series("/tmp/unused".into());
        say!(&mut ctx, "parent line");
        let task = ctx.for_task();
        assert!(task.out.is_empty(), "task starts with an empty buffer");
        assert_eq!(task.trials, ctx.trials, "knobs carry over");
        task.metrics_scope("t").unwrap().counter("ops").inc();
        let t = task.obs.tracer().unwrap();
        t.instant(
            "t.mark",
            "test",
            telemetry::trace::Clock::Ticks,
            0,
            Vec::new(),
        );
        task.obs.series_named("t.sig", 10).unwrap().record(3, 1);

        let parent = ctx.obs.take();
        assert!(
            parent.metrics.unwrap().is_empty(),
            "task metrics never leak into the parent registry"
        );
        assert!(parent.trace.unwrap().is_empty(), "nor task spans");
        assert!(parent.series.unwrap().is_empty(), "nor task series");
        let own = task.obs.take();
        assert_eq!(own.metrics.unwrap().counter("t.ops"), 1);
        assert_eq!(own.trace.unwrap().len(), 1);
        assert_eq!(own.series.unwrap().len(), 1);

        // Without the flags, tasks observe nothing at all.
        let plain = Ctx::default().for_task().obs.take();
        assert!(plain.metrics.is_none() && plain.trace.is_none() && plain.series.is_none());
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
