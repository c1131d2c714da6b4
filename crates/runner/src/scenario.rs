//! The `Scenario`/`Runner` API: named, seeded experiment tasks that
//! execute in parallel with per-task panic isolation.
//!
//! A [`Scenario`] bundles a target name, a counter-derived seed, and a
//! task closure that writes its human-readable report into a
//! [`TaskCtx`] buffer instead of printing. The [`Runner`] executes a
//! batch on the worker pool and returns [`RunOutcome`]s in input
//! order; a panicking task becomes [`RunStatus::Failed`] and the rest
//! of the sweep completes. Because every task's output (text and
//! [`ObsSnapshot`]) is buffered per task and reassembled in input
//! order, a sweep's result is byte-identical for any `--jobs` value.

use crate::pool;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use telemetry::trace::{kv, Clock};
use telemetry::{Obs, ObsSnapshot};

/// What a task sees while running: its derived seed plus a buffer for
/// its report. Tasks write human-readable output with
/// [`say`](TaskCtx::say) or `write!` (the context implements
/// [`fmt::Write`]); the runner never lets tasks print directly, which
/// is what keeps interleaving off the output path.
pub struct TaskCtx {
    /// The scenario's seed, derived from `(root, target)` by
    /// [`crate::seed::target_seed`] — never from thread identity.
    pub seed: u64,
    /// Accumulated report text, printed by the caller after the join.
    pub out: String,
}

impl TaskCtx {
    /// Append one line to the task's report.
    pub fn say(&mut self, line: impl AsRef<str>) {
        self.out.push_str(line.as_ref());
        self.out.push('\n');
    }
}

impl fmt::Write for TaskCtx {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.out.push_str(s);
        Ok(())
    }
}

type TaskFn = Box<dyn FnOnce(&mut TaskCtx) + Send>;

/// One named, seeded unit of experiment work.
pub struct Scenario {
    name: String,
    seed: u64,
    task: TaskFn,
    obs: Obs,
}

impl Scenario {
    /// Start building a scenario named `name`.
    pub fn builder(name: impl Into<String>) -> ScenarioBuilder {
        ScenarioBuilder {
            name: name.into(),
            seed: 0,
            task: None,
            obs: Obs::default(),
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("name", &self.name)
            .field("seed", &self.seed)
            .finish_non_exhaustive()
    }
}

/// Builder for [`Scenario`] (see [`Scenario::builder`]).
pub struct ScenarioBuilder {
    name: String,
    seed: u64,
    task: Option<TaskFn>,
    obs: Obs,
}

impl ScenarioBuilder {
    /// Use `seed` verbatim as the scenario's seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Derive the scenario's seed from a sweep-level root seed and the
    /// scenario's own name via [`crate::seed::target_seed`], so every
    /// target gets an independent stream from one root.
    pub fn derived_seed(mut self, root: u64) -> Self {
        self.seed = crate::seed::target_seed(root, &self.name);
        self
    }

    /// The work itself. The closure runs on some worker thread; all of
    /// its output must go through the [`TaskCtx`].
    pub fn task(mut self, f: impl FnOnce(&mut TaskCtx) + Send + 'static) -> Self {
        self.task = Some(Box::new(f));
        self
    }

    /// Observe this scenario through `obs`, a task-private handle
    /// (typically a [`fork`](Obs::fork)) that the task closure records
    /// into too. With a tracer attached the runner wraps the task in a
    /// `task.<name>` span on the tracer's tick clock; after the task
    /// finishes (or dies) it [`take`](Obs::take)s the handle into
    /// [`RunOutcome::obs`].
    pub fn observe(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// # Panics
    /// If no [`task`](ScenarioBuilder::task) was supplied.
    pub fn build(self) -> Scenario {
        Scenario {
            task: self
                .task
                .unwrap_or_else(|| panic!("scenario '{}' built without a task", self.name)),
            name: self.name,
            seed: self.seed,
            obs: self.obs,
        }
    }
}

/// How a scenario ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunStatus {
    Completed,
    /// The task panicked; `panic` is the payload message. The rest of
    /// the sweep was unaffected.
    Failed {
        panic: String,
    },
}

/// The result of one scenario: everything the task produced before it
/// finished (or died), plus bookkeeping.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    pub name: String,
    pub seed: u64,
    pub status: RunStatus,
    /// The task's buffered report (possibly partial on failure).
    pub out: String,
    /// What the scenario's [`Obs`] recorded (partial on failure).
    /// Deterministic: trace timestamps come from simulation clocks or
    /// the tracer's tick counter, never from wall time.
    pub obs: ObsSnapshot,
    /// Wall-clock duration. Non-deterministic by nature — report it on
    /// diagnostic channels only, never in byte-compared output.
    pub wall_ms: u128,
}

impl RunOutcome {
    pub fn is_failed(&self) -> bool {
        matches!(self.status, RunStatus::Failed { .. })
    }
}

/// Executes scenario batches on the worker pool.
pub struct Runner;

impl Runner {
    /// A runner with a process-wide worker budget of `jobs` threads
    /// (`0` = auto-detect). The budget is global to the pool, so the
    /// last-constructed runner's value wins.
    pub fn new(jobs: usize) -> Self {
        pool::set_jobs(jobs);
        Runner
    }

    /// Run every scenario, in parallel, returning outcomes in input
    /// order. A panicking task yields [`RunStatus::Failed`] with its
    /// buffered partial output; the other tasks are unaffected.
    pub fn run(&self, scenarios: Vec<Scenario>) -> Vec<RunOutcome> {
        pool::parallel_map(scenarios, |_, scenario| {
            let Scenario {
                name,
                seed,
                task,
                obs,
            } = scenario;
            let task_span = obs
                .tracer()
                .map(|t| t.begin(format!("task.{name}"), "runner", Clock::Ticks, t.tick()));
            let started = Instant::now();
            let mut ctx = TaskCtx {
                seed,
                out: String::new(),
            };
            let status = match catch_unwind(AssertUnwindSafe(|| task(&mut ctx))) {
                Ok(()) => RunStatus::Completed,
                Err(payload) => RunStatus::Failed {
                    panic: panic_message(payload.as_ref()),
                },
            };
            if let (Some(t), Some(span)) = (obs.tracer(), task_span) {
                let label = match &status {
                    RunStatus::Completed => "completed",
                    RunStatus::Failed { .. } => "failed",
                };
                // Also unwinds any spans the task left open on panic.
                t.end_with(span, t.tick(), vec![kv("status", label)]);
            }
            RunOutcome {
                name,
                seed,
                status,
                out: ctx.out,
                obs: obs.take(),
                wall_ms: started.elapsed().as_millis(),
            }
        })
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fmt::Write as _;
    use telemetry::trace::Tracer;

    fn traced(tracer: &Tracer) -> Obs {
        let mut obs = Obs::default();
        obs.set_tracer(tracer.clone());
        obs
    }

    fn sweep(n: usize) -> Vec<Scenario> {
        (0..n)
            .map(|i| {
                Scenario::builder(format!("t{i}"))
                    .derived_seed(0xD1A2)
                    .task(move |ctx| {
                        let mut acc = ctx.seed;
                        for _ in 0..1000 {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        writeln!(ctx, "t{i}: {acc:016x}").unwrap();
                    })
                    .build()
            })
            .collect()
    }

    #[test]
    fn outcomes_keep_input_order_and_are_deterministic() {
        let first = Runner::new(0).run(sweep(16));
        let again = Runner::new(0).run(sweep(16));
        for (i, (a, b)) in first.iter().zip(&again).enumerate() {
            assert_eq!(a.name, format!("t{i}"));
            assert_eq!(
                a.out, b.out,
                "task {i} output must not depend on scheduling"
            );
            assert_eq!(a.status, RunStatus::Completed);
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        let mut scenarios = sweep(3);
        scenarios.insert(
            1,
            Scenario::builder("poisoned")
                .task(|ctx| {
                    ctx.say("about to fail");
                    panic!("injected failure");
                })
                .build(),
        );
        let outcomes = Runner::new(0).run(scenarios);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes[1].is_failed());
        assert_eq!(
            outcomes[1].status,
            RunStatus::Failed {
                panic: "injected failure".to_string()
            }
        );
        assert_eq!(
            outcomes[1].out, "about to fail\n",
            "partial output survives"
        );
        for idx in [0, 2, 3] {
            assert_eq!(outcomes[idx].status, RunStatus::Completed);
            assert!(!outcomes[idx].out.is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "built without a task")]
    fn builder_requires_a_task() {
        let _ = Scenario::builder("empty").build();
    }

    #[test]
    fn traced_scenarios_emit_a_task_span() {
        let tracer = Tracer::new();
        let inner = tracer.clone();
        let scenario = Scenario::builder("probe")
            .derived_seed(1)
            .observe(traced(&tracer))
            .task(move |_| {
                inner.instant("probe.mark", "test", Clock::SimPs, 42, Vec::new());
            })
            .build();
        let outcomes = Runner::new(1).run(vec![scenario]);
        let trace = outcomes[0].obs.trace.as_ref().expect("trace captured");
        telemetry::trace::check_nesting(trace).unwrap();
        assert_eq!(trace[0].name, "task.probe");
        assert!(trace[0]
            .args
            .iter()
            .any(|(k, v)| k == "status" && v == "completed"));
        assert_eq!(trace[1].name, "probe.mark");
        assert_eq!(trace[1].parent, Some(trace[0].id), "task span is the root");
        // Untraced scenarios carry no trace.
        let plain = Runner::new(1).run(sweep(1));
        assert!(plain[0].obs.trace.is_none());
    }

    #[test]
    fn panicking_task_still_yields_a_closed_trace() {
        let tracer = Tracer::new();
        let inner = tracer.clone();
        let scenario = Scenario::builder("boom")
            .observe(traced(&tracer))
            .task(move |_| {
                let _open = inner.begin("never_closed", "test", Clock::SimPs, 7);
                panic!("die mid-span");
            })
            .build();
        let outcomes = Runner::new(1).run(vec![scenario]);
        assert!(outcomes[0].is_failed());
        let trace = outcomes[0].obs.trace.as_ref().unwrap();
        telemetry::trace::check_nesting(trace).unwrap();
        assert!(trace[0]
            .args
            .iter()
            .any(|(k, v)| k == "status" && v == "failed"));
    }
}
