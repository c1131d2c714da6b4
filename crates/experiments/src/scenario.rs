//! Runs one named task with panic isolation inside its trace span.
//!
//! The task's state (report buffer, `Obs` fork) stays with the caller,
//! so whatever the task wrote before a panic survives it; this module
//! only catches the unwind and brackets the task in a `task.<name>`
//! span.

use std::panic::{catch_unwind, AssertUnwindSafe};
use telemetry::trace::{kv, Clock, Tracer};

/// Runs `task`, catching a panic. With a `tracer`, the task runs inside
/// a `task.<name>` span on the tracer's tick clock, closed with
/// `status=completed|failed`; closing it also closes any span the task
/// left open when it panicked. Returns the panic message if the task
/// failed.
pub fn isolate(name: &str, tracer: Option<&Tracer>, task: impl FnOnce()) -> Option<String> {
    let span = tracer.map(|t| t.begin(format!("task.{name}"), "runner", Clock::Ticks, t.tick()));
    let panic = catch_unwind(AssertUnwindSafe(task))
        .err()
        .map(|payload| panic_message(payload.as_ref()));
    if let (Some(t), Some(span)) = (tracer, span) {
        let status = if panic.is_some() {
            "failed"
        } else {
            "completed"
        };
        t.end_with(span, t.tick(), vec![kv("status", status)]);
    }
    panic
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
    use telemetry::Obs;

    fn traced(tracer: &Tracer) -> Obs {
        let mut obs = Obs::default();
        obs.set_tracer(tracer.clone());
        obs
    }

    /// One task's result: name, buffered output, panic message.
    type Ran = (String, String, Option<String>);

    /// Runs `n` seeded tasks on the worker pool, plus an optional
    /// poisoned one at `poison_at`, returning results in input order.
    fn sweep(n: usize, poison_at: Option<usize>) -> Vec<Ran> {
        let mut names: Vec<String> = (0..n).map(|i| format!("t{i}")).collect();
        if let Some(at) = poison_at {
            names.insert(at, "poisoned".to_string());
        }
        runner::parallel_map(names, |_, name| {
            let mut out = String::new();
            let panic = isolate(&name, None, || {
                if name == "poisoned" {
                    out.push_str("about to fail\n");
                    panic!("injected failure");
                }
                let i: u64 = name[1..].parse().unwrap();
                let mut acc = runner::seed::iteration_seed(0xD1A2, i);
                for _ in 0..1000 {
                    acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                }
                writeln!(out, "{name}: {acc:016x}").unwrap();
            });
            (name, out, panic)
        })
    }

    #[test]
    fn outcomes_keep_input_order_and_are_deterministic() {
        runner::set_jobs(0);
        let first = sweep(16, None);
        let again = sweep(16, None);
        for (i, (a, b)) in first.iter().zip(&again).enumerate() {
            assert_eq!(a.0, format!("t{i}"));
            assert_eq!(a.1, b.1, "task {i} output must not depend on scheduling");
            assert_eq!(a.2, None);
        }
    }

    #[test]
    fn panicking_task_is_isolated() {
        let outcomes = sweep(3, Some(1));
        assert_eq!(outcomes.len(), 4);
        assert_eq!(outcomes[1].0, "poisoned");
        assert_eq!(outcomes[1].2.as_deref(), Some("injected failure"));
        assert_eq!(outcomes[1].1, "about to fail\n", "partial output survives");
        for idx in [0, 2, 3] {
            assert_eq!(outcomes[idx].2, None);
            assert!(!outcomes[idx].1.is_empty());
        }
    }

    #[test]
    fn traced_scenarios_emit_a_task_span() {
        let tracer = Tracer::new();
        let obs = traced(&tracer);
        let panic = isolate("probe", obs.tracer(), || {
            tracer.instant("probe.mark", "test", Clock::SimPs, 42, Vec::new());
        });
        assert_eq!(panic, None);
        let snapshot = obs.take();
        let trace = snapshot.trace.as_ref().expect("trace captured");
        telemetry::trace::check_nesting(trace).unwrap();
        assert_eq!(trace[0].name, "task.probe");
        assert!(trace[0]
            .args
            .iter()
            .any(|(k, v)| k == "status" && v == "completed"));
        assert_eq!(trace[1].name, "probe.mark");
        assert_eq!(trace[1].parent, Some(trace[0].id), "task span is the root");
        // Untraced tasks carry no trace.
        let plain = Obs::default();
        assert_eq!(isolate("plain", plain.tracer(), || {}), None);
        assert!(plain.take().trace.is_none());
    }

    #[test]
    fn panicking_task_still_yields_a_closed_trace() {
        let tracer = Tracer::new();
        let obs = traced(&tracer);
        let panic = isolate("boom", obs.tracer(), || {
            let _open = tracer.begin("never_closed", "test", Clock::SimPs, 7);
            panic!("die mid-span");
        });
        assert_eq!(panic.as_deref(), Some("die mid-span"));
        let trace = obs.take().trace.expect("trace captured");
        telemetry::trace::check_nesting(&trace).unwrap();
        assert_eq!(trace[0].name, "task.boom");
        assert!(trace[0]
            .args
            .iter()
            .any(|(k, v)| k == "status" && v == "failed"));
    }
}
