//! Causal tracing against deterministic clocks.
//!
//! A [`Tracer`] records [`TraceEvent`]s — spans with parent/child
//! causality plus point instants — where every timestamp is supplied
//! by the caller from a *deterministic* clock: simulation picoseconds
//! in memsim/protocol code, simulated-schedule microseconds in the
//! scheduler, and a per-tracer monotonic tick counter for engine-level
//! work (task lifecycle, cache lookups) that has no simulated time of
//! its own. Because no wall clock ever reaches an event, a trace is a
//! pure function of the seed: byte-identical across `--jobs` values
//! and across runs. Wall-clock durations stay on diagnostic channels
//! (`RunManifest`, `timing.jsonl`) — never in trace output.
//!
//! Parallel fan-outs keep determinism the same way metric snapshots
//! do: each worker records into its own private `Tracer`, and the
//! coordinator [`absorb`](Tracer::absorb)s the buffers in input order
//! after the join, so the merged event list is independent of
//! completion order.
//!
//! Exporters: [`chrome_trace`] emits Chrome trace-event JSON (loadable
//! in Perfetto / `chrome://tracing`; one process per target, one
//! thread lane per clock domain) and [`span_tree`] a compact indented
//! text dump. [`check_nesting`] and [`check_well_nested`] verify the
//! parent/child invariants on in-memory and re-parsed traces
//! respectively.

use crate::export::escape_json;
use crate::json::{self, Json};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// The deterministic clock domain a timestamp was read from. Each
/// domain gets its own thread lane in the Chrome export, so timestamps
/// from different domains are never compared against each other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Clock {
    /// Per-tracer monotonic counter ([`Tracer::tick`]): engine-level
    /// ordering for work with no simulated time (task lifecycle,
    /// cache lookups).
    Ticks,
    /// Simulation picoseconds (memsim / protocol time).
    SimPs,
    /// Simulated schedule microseconds (scheduler time).
    SchedUs,
}

impl Clock {
    /// Stable thread id for the Chrome export.
    pub fn tid(self) -> u64 {
        match self {
            Clock::Ticks => 0,
            Clock::SimPs => 1,
            Clock::SchedUs => 2,
        }
    }

    /// Human-readable lane name for the Chrome export.
    pub fn lane(self) -> &'static str {
        match self {
            Clock::Ticks => "engine (ticks)",
            Clock::SimPs => "simulation (ps)",
            Clock::SchedUs => "schedule (us)",
        }
    }

    /// Short unit tag for the text dump.
    fn unit(self) -> &'static str {
        match self {
            Clock::Ticks => "tick",
            Clock::SimPs => "ps",
            Clock::SchedUs => "us",
        }
    }
}

/// Span vs instant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ph {
    /// An interval `[start, end]`.
    Span,
    /// A point occurrence; `end == start`.
    Instant,
}

/// One recorded occurrence. `id` equals the event's index in its
/// tracer's buffer, so lookups and re-parenting are O(1).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    pub id: u64,
    /// Causal parent (the innermost open span when this event was
    /// recorded, or an explicit parent). `None` for roots.
    pub parent: Option<u64>,
    pub name: String,
    /// Category: the subsystem that recorded the event ("runner",
    /// "memsim", "protocol", "model", "scheduler").
    pub cat: &'static str,
    pub clock: Clock,
    pub ph: Ph,
    pub start: u64,
    /// For spans, the closing timestamp (equals `start` while the span
    /// is still open); for instants, always equals `start`.
    pub end: u64,
    /// Free-form key/value annotations, in insertion order.
    pub args: Vec<(String, String)>,
}

/// Convenience constructor for an args pair.
pub fn kv(key: &str, value: impl ToString) -> (String, String) {
    (key.to_string(), value.to_string())
}

/// Handle to an open span, returned by [`Tracer::begin`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u64);

impl SpanId {
    /// The underlying event id (for explicit parenting).
    pub fn id(self) -> u64 {
        self.0
    }
}

#[derive(Debug, Default)]
struct TraceBuf {
    events: Vec<TraceEvent>,
    /// Ids of currently-open spans, innermost last.
    stack: Vec<u64>,
    tick: u64,
}

/// A shareable recorder of [`TraceEvent`]s (cheap `Arc` clone).
///
/// Spans follow stack discipline within one tracer:
/// [`begin`](Tracer::begin) pushes, [`end`](Tracer::end) pops, and every event
/// recorded in between is parented to the innermost open span.
/// Tracers are thread-safe, but deterministic traces require that
/// concurrent workers use *private* tracers merged via
/// [`absorb`](Tracer::absorb) — interleaving two threads into one
/// tracer records their real scheduling.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    buf: Arc<Mutex<TraceBuf>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer::default()
    }

    /// Next value of the tracer's monotonic tick counter (the
    /// [`Clock::Ticks`] domain).
    pub fn tick(&self) -> u64 {
        let mut b = self.buf.lock().unwrap();
        let t = b.tick;
        b.tick += 1;
        t
    }

    /// Opens a span at `start`, parented to the innermost open span.
    pub fn begin(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        clock: Clock,
        start: u64,
    ) -> SpanId {
        let mut b = self.buf.lock().unwrap();
        let id = b.events.len() as u64;
        let parent = b.stack.last().copied();
        b.events.push(TraceEvent {
            id,
            parent,
            name: name.into(),
            cat,
            clock,
            ph: Ph::Span,
            start,
            end: start,
            args: Vec::new(),
        });
        b.stack.push(id);
        SpanId(id)
    }

    /// Closes the span at `end`. Tolerant of unwound callees: any
    /// spans still open above `span` (e.g. after a caught panic) are
    /// implicitly closed at their own start time.
    pub fn end(&self, span: SpanId, end: u64) {
        self.end_with(span, end, Vec::new());
    }

    /// [`end`](Tracer::end), attaching `args` to the closed span.
    pub fn end_with(&self, span: SpanId, end: u64, args: Vec<(String, String)>) {
        let mut b = self.buf.lock().unwrap();
        while let Some(top) = b.stack.pop() {
            if top == span.0 {
                break;
            }
        }
        // Everything recorded after `span` opened is a descendant
        // (stack discipline), so a span never closes before its
        // same-clock children — e.g. a write drain whose resume lands
        // past the last instruction's completion time.
        let clock = b.events[span.0 as usize].clock;
        let cover = b.events[span.0 as usize + 1..]
            .iter()
            .filter(|e| e.clock == clock)
            .map(|e| e.end)
            .max()
            .unwrap_or(0);
        let ev = &mut b.events[span.0 as usize];
        ev.end = end.max(ev.start).max(cover);
        ev.args.extend(args);
    }

    /// Records an already-closed span `[start, end]` without touching
    /// the open-span stack, parented to the innermost open span.
    /// Returns the event id. Sibling complete-spans may overlap (e.g.
    /// concurrent scheduler jobs).
    pub fn complete(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        clock: Clock,
        start: u64,
        end: u64,
        args: Vec<(String, String)>,
    ) -> u64 {
        let parent = self.buf.lock().unwrap().stack.last().copied();
        self.complete_with_parent(name, cat, clock, start, end, parent, args)
    }

    /// [`complete`](Tracer::complete) with an explicit parent (e.g.
    /// chaining an `ecc.reread` span to the `ecc.detect` instant that
    /// caused it).
    #[allow(clippy::too_many_arguments)]
    pub fn complete_with_parent(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        clock: Clock,
        start: u64,
        end: u64,
        parent: Option<u64>,
        args: Vec<(String, String)>,
    ) -> u64 {
        let mut b = self.buf.lock().unwrap();
        let id = b.events.len() as u64;
        b.events.push(TraceEvent {
            id,
            parent,
            name: name.into(),
            cat,
            clock,
            ph: Ph::Span,
            start,
            end: end.max(start),
            args,
        });
        id
    }

    /// Records a point occurrence, parented to the innermost open
    /// span. Returns the event id.
    pub fn instant(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        clock: Clock,
        ts: u64,
        args: Vec<(String, String)>,
    ) -> u64 {
        let parent = self.buf.lock().unwrap().stack.last().copied();
        self.instant_with_parent(name, cat, clock, ts, parent, args)
    }

    /// [`instant`](Tracer::instant) with an explicit parent.
    pub fn instant_with_parent(
        &self,
        name: impl Into<String>,
        cat: &'static str,
        clock: Clock,
        ts: u64,
        parent: Option<u64>,
        args: Vec<(String, String)>,
    ) -> u64 {
        let mut b = self.buf.lock().unwrap();
        let id = b.events.len() as u64;
        b.events.push(TraceEvent {
            id,
            parent,
            name: name.into(),
            cat,
            clock,
            ph: Ph::Instant,
            start: ts,
            end: ts,
            args,
        });
        id
    }

    /// Merges a completed child buffer (a full [`take`](Tracer::take)
    /// output) into this tracer: ids are rebased, child roots are
    /// parented to this tracer's innermost open span, and
    /// [`Clock::Ticks`] timestamps are shifted past this tracer's
    /// current tick so the merged tick lane stays monotonic.
    /// Absorbing worker tracers in *input* order is what keeps fan-out
    /// traces independent of completion order.
    pub fn absorb(&self, events: Vec<TraceEvent>) {
        let mut b = self.buf.lock().unwrap();
        let offset = b.events.len() as u64;
        let adopt_parent = b.stack.last().copied();
        let tick_base = b.tick;
        let mut max_tick = tick_base;
        for mut ev in events {
            debug_assert_eq!(
                ev.id + offset,
                b.events.len() as u64,
                "absorb needs a full take()"
            );
            ev.id += offset;
            ev.parent = ev.parent.map(|p| p + offset).or(adopt_parent);
            if ev.clock == Clock::Ticks {
                ev.start += tick_base;
                ev.end += tick_base;
                max_tick = max_tick.max(ev.end + 1);
            }
            b.events.push(ev);
        }
        b.tick = max_tick;
    }

    /// Drains every recorded event, resetting the tracer. Open spans
    /// are implicitly closed at their start time.
    pub fn take(&self) -> Vec<TraceEvent> {
        let mut b = self.buf.lock().unwrap();
        b.stack.clear();
        b.tick = 0;
        std::mem::take(&mut b.events)
    }

    pub fn len(&self) -> usize {
        self.buf.lock().unwrap().events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Structural + temporal nesting invariants on an in-memory buffer:
/// every parent id precedes its child, and a span child of a
/// *same-clock* span parent is contained in the parent's interval.
/// (Cross-clock links are causal only — a picosecond timestamp is not
/// comparable to a tick.)
pub fn check_nesting(events: &[TraceEvent]) -> Result<(), String> {
    for ev in events {
        if ev.id as usize >= events.len() || events[ev.id as usize].id != ev.id {
            return Err(format!("event id {} is not its buffer index", ev.id));
        }
        if ev.end < ev.start {
            return Err(format!(
                "event {} '{}' ends before it starts",
                ev.id, ev.name
            ));
        }
        let Some(pid) = ev.parent else { continue };
        if pid >= ev.id {
            return Err(format!(
                "event {} '{}' has non-preceding parent {pid}",
                ev.id, ev.name
            ));
        }
        let parent = &events[pid as usize];
        if parent.ph == Ph::Span
            && parent.clock == ev.clock
            && (ev.start < parent.start || ev.end > parent.end)
        {
            return Err(format!(
                "event {} '{}' [{}..{}] escapes parent {} '{}' [{}..{}]",
                ev.id, ev.name, ev.start, ev.end, pid, parent.name, parent.start, parent.end
            ));
        }
    }
    Ok(())
}

/// One target's worth of trace events: `(target name, events)`.
pub type TraceGroup = (String, Vec<TraceEvent>);

/// Renders groups as Chrome trace-event JSON (the "JSON array of
/// events" flavour wrapped in `{"traceEvents": [...]}`): one process
/// per group, one thread lane per clock domain, `"X"` complete events
/// for spans and `"i"` instants. Our span ids and parent links ride
/// along in `args` so the trace survives a round trip through
/// [`parse_chrome_trace`]. Integer timestamps only — the output is
/// byte-identical whenever the events are.
pub fn chrome_trace(groups: &[TraceGroup]) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |out: &mut String, line: String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    for (gi, (name, events)) in groups.iter().enumerate() {
        let pid = gi as u64 + 1;
        push(
            &mut out,
            format!(
                "{{\"ph\":\"M\",\"pid\":{pid},\"name\":\"process_name\",\"args\":{{\"name\":\"{}\"}}}}",
                escape_json(name)
            ),
        );
        for clock in [Clock::Ticks, Clock::SimPs, Clock::SchedUs] {
            if events.iter().any(|e| e.clock == clock) {
                push(
                    &mut out,
                    format!(
                        "{{\"ph\":\"M\",\"pid\":{pid},\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
                        clock.tid(),
                        clock.lane()
                    ),
                );
            }
        }
        for ev in events {
            let mut line = format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"{}\",\"ts\":{},",
                escape_json(&ev.name),
                escape_json(ev.cat),
                match ev.ph {
                    Ph::Span => "X",
                    Ph::Instant => "i",
                },
                ev.start
            );
            match ev.ph {
                Ph::Span => {
                    let _ = write!(line, "\"dur\":{},", ev.end - ev.start);
                }
                Ph::Instant => line.push_str("\"s\":\"t\","),
            }
            let _ = write!(
                line,
                "\"pid\":{pid},\"tid\":{},\"args\":{{\"span_id\":\"{}\"",
                ev.clock.tid(),
                ev.id
            );
            if let Some(p) = ev.parent {
                let _ = write!(line, ",\"parent\":\"{p}\"");
            }
            for (k, v) in &ev.args {
                let _ = write!(line, ",\"{}\":\"{}\"", escape_json(k), escape_json(v));
            }
            line.push_str("}}");
            push(&mut out, line);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders groups as an indented span-tree text dump: children (in
/// record order) nested under parents, spans as `[clock start..end]`
/// and instants as `@ts`, args appended as `k=v`.
pub fn span_tree(groups: &[TraceGroup]) -> String {
    let mut out = String::new();
    for (name, events) in groups {
        let _ = writeln!(out, "== {name} ==");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); events.len()];
        let mut roots = Vec::new();
        for (i, ev) in events.iter().enumerate() {
            match ev.parent {
                Some(p) => children[p as usize].push(i),
                None => roots.push(i),
            }
        }
        let mut pending: Vec<(usize, usize)> = roots.into_iter().rev().map(|i| (i, 0)).collect();
        while let Some((i, depth)) = pending.pop() {
            let ev = &events[i];
            let _ = write!(out, "{:indent$}{}", "", ev.name, indent = depth * 2);
            match ev.ph {
                Ph::Span => {
                    let _ = write!(out, " [{} {}..{}]", ev.clock.unit(), ev.start, ev.end);
                }
                Ph::Instant => {
                    let _ = write!(out, " @{} {}", ev.start, ev.clock.unit());
                }
            }
            for (k, v) in &ev.args {
                let _ = write!(out, " {k}={v}");
            }
            out.push('\n');
            for &c in children[i].iter().rev() {
                pending.push((c, depth + 1));
            }
        }
    }
    out
}

/// A trace event re-parsed from Chrome trace JSON.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ChromeEvent {
    pub name: String,
    pub cat: String,
    pub ph: String,
    pub ts: u64,
    pub dur: u64,
    pub pid: u64,
    pub tid: u64,
    /// Our span id / parent link, recovered from `args`.
    pub id: Option<u64>,
    pub parent: Option<u64>,
    pub args: Vec<(String, String)>,
}

/// Parses [`chrome_trace`] output (or any trace-event JSON using the
/// same fields) back into events. Metadata (`"M"`) rows are skipped.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ChromeEvent>, String> {
    let doc = json::parse(text)?;
    let rows = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    let mut events = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let field = |key: &str| row.get(key).and_then(Json::as_str);
        let num = |key: &str| row.get(key).and_then(Json::as_u64);
        let ph = field("ph").ok_or_else(|| format!("event {i}: missing ph"))?;
        if ph == "M" {
            continue;
        }
        let args: Vec<(String, String)> = row
            .get("args")
            .and_then(Json::as_obj)
            .map(|members| {
                members
                    .iter()
                    .filter_map(|(k, v)| v.as_str().map(|s| (k.clone(), s.to_string())))
                    .collect()
            })
            .unwrap_or_default();
        let arg_num = |key: &str| {
            args.iter()
                .find(|(k, _)| k == key)
                .and_then(|(_, v)| v.parse::<u64>().ok())
        };
        events.push(ChromeEvent {
            name: field("name")
                .ok_or_else(|| format!("event {i}: missing name"))?
                .to_string(),
            cat: field("cat").unwrap_or_default().to_string(),
            ph: ph.to_string(),
            ts: num("ts").ok_or_else(|| format!("event {i}: missing ts"))?,
            dur: num("dur").unwrap_or(0),
            pid: num("pid").ok_or_else(|| format!("event {i}: missing pid"))?,
            tid: num("tid").unwrap_or(0),
            id: arg_num("span_id"),
            parent: arg_num("parent"),
            args,
        });
    }
    Ok(events)
}

/// Well-nestedness of a re-parsed trace: every parent link resolves
/// within the same process, parents precede children, and a span
/// child on the *same thread lane* (same clock) as its span parent is
/// temporally contained. This is the CI check that an exported trace
/// file still honours the invariants [`check_nesting`] enforced
/// in memory.
pub fn check_well_nested(events: &[ChromeEvent]) -> Result<(), String> {
    use std::collections::HashMap;
    let mut by_id: HashMap<(u64, u64), &ChromeEvent> = HashMap::new();
    for ev in events {
        if let Some(id) = ev.id {
            by_id.insert((ev.pid, id), ev);
        }
    }
    for ev in events {
        let Some(pid_ref) = ev.parent else { continue };
        let Some(parent) = by_id.get(&(ev.pid, pid_ref)) else {
            return Err(format!(
                "event '{}' (pid {}) references missing parent {pid_ref}",
                ev.name, ev.pid
            ));
        };
        match (ev.id, parent.id) {
            (Some(id), Some(par_id)) if par_id >= id => {
                return Err(format!(
                    "event '{}' (id {id}) has non-preceding parent {par_id}",
                    ev.name
                ));
            }
            _ => {}
        }
        if parent.ph == "X" && ev.tid == parent.tid {
            let end = ev.ts + ev.dur;
            let parent_end = parent.ts + parent.dur;
            if ev.ts < parent.ts || end > parent_end {
                return Err(format!(
                    "event '{}' [{}..{end}] escapes parent '{}' [{}..{parent_end}]",
                    ev.name, ev.ts, parent.name, parent.ts
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_tracer() -> Tracer {
        let t = Tracer::new();
        let task = t.begin("task.fig5", "runner", Clock::Ticks, t.tick());
        let sim = t.begin("sim.base.linpack", "model", Clock::SimPs, 0);
        t.instant(
            "ecc.detect",
            "protocol",
            Clock::SimPs,
            40,
            vec![kv("block", 3)],
        );
        t.complete(
            "write_drain.ch0",
            "memsim",
            Clock::SimPs,
            50,
            90,
            vec![kv("pending", 12)],
        );
        t.end_with(sim, 120, vec![kv("ops", 1000)]);
        t.instant("cache.miss", "model", Clock::Ticks, t.tick(), Vec::new());
        t.end_with(task, t.tick(), vec![kv("status", "completed")]);
        t
    }

    #[test]
    fn spans_nest_by_stack_discipline() {
        let events = sample_tracer().take();
        assert_eq!(events.len(), 5);
        check_nesting(&events).unwrap();
        let by_name = |n: &str| events.iter().find(|e| e.name == n).unwrap();
        assert_eq!(by_name("task.fig5").parent, None);
        assert_eq!(
            by_name("sim.base.linpack").parent,
            Some(by_name("task.fig5").id)
        );
        assert_eq!(
            by_name("ecc.detect").parent,
            Some(by_name("sim.base.linpack").id)
        );
        assert_eq!(
            by_name("write_drain.ch0").parent,
            Some(by_name("sim.base.linpack").id)
        );
        assert_eq!(by_name("cache.miss").parent, Some(by_name("task.fig5").id));
        assert_eq!(by_name("task.fig5").end, 2, "ticks advance monotonically");
    }

    #[test]
    fn containment_violations_are_caught() {
        let t = Tracer::new();
        let outer = t.begin("outer", "x", Clock::SimPs, 100);
        t.complete("escapee", "x", Clock::SimPs, 50, 80, Vec::new());
        t.end(outer, 200);
        let err = check_nesting(&t.take()).unwrap_err();
        assert!(err.contains("escapes parent"), "{err}");
    }

    #[test]
    fn cross_clock_children_skip_time_containment() {
        let t = Tracer::new();
        let outer = t.begin("task", "runner", Clock::Ticks, 0);
        // Simulation time vastly exceeds the tick domain — allowed.
        t.complete("sim", "model", Clock::SimPs, 0, 9_999_999, Vec::new());
        t.end(outer, 1);
        check_nesting(&t.take()).unwrap();
    }

    #[test]
    fn end_unwinds_abandoned_children() {
        let t = Tracer::new();
        let outer = t.begin("outer", "x", Clock::SimPs, 0);
        let _leaked = t.begin("leaked", "x", Clock::SimPs, 5);
        // Simulates a caught panic: 'leaked' never ends, the runner
        // still closes the task span.
        t.end(outer, 10);
        let events = t.take();
        check_nesting(&events).unwrap();
        assert_eq!(events[1].end, events[1].start, "open span closed at start");
        // A fresh span after the unwind is a root again.
        let t2 = Tracer::new();
        let a = t2.begin("a", "x", Clock::SimPs, 0);
        t2.end(a, 1);
        let b = t2.begin("b", "x", Clock::SimPs, 2);
        t2.end(b, 3);
        assert_eq!(t2.take()[1].parent, None);
    }

    #[test]
    fn absorb_rebases_ids_and_ticks() {
        let worker = Tracer::new();
        let s = worker.begin("sim.w", "model", Clock::SimPs, 0);
        worker.instant("mark", "model", Clock::Ticks, worker.tick(), Vec::new());
        worker.end(s, 50);

        let main = Tracer::new();
        let task = main.begin("task", "runner", Clock::Ticks, main.tick());
        main.absorb(worker.take());
        main.end(task, main.tick());
        let events = main.take();
        check_nesting(&events).unwrap();
        assert_eq!(events.len(), 3);
        assert_eq!(events[1].name, "sim.w");
        assert_eq!(
            events[1].parent,
            Some(0),
            "absorbed root adopted by open span"
        );
        assert_eq!(events[2].parent, Some(1), "internal links rebased");
        assert_eq!(events[2].start, 1, "worker tick 0 rebased past main tick 0");
        assert!(
            events[0].end > events[2].start,
            "task span covers absorbed ticks"
        );
    }

    #[test]
    fn chrome_export_round_trips_and_is_well_nested() {
        let groups = vec![("fig5".to_string(), sample_tracer().take())];
        let jsontext = chrome_trace(&groups);
        let parsed = parse_chrome_trace(&jsontext).unwrap();
        assert_eq!(parsed.len(), 5, "metadata rows skipped");
        check_well_nested(&parsed).unwrap();
        let sim = parsed
            .iter()
            .find(|e| e.name == "sim.base.linpack")
            .unwrap();
        assert_eq!(sim.ph, "X");
        assert_eq!((sim.ts, sim.dur), (0, 120));
        assert_eq!(sim.pid, 1);
        assert_eq!(sim.tid, Clock::SimPs.tid());
        assert!(sim.args.iter().any(|(k, v)| k == "ops" && v == "1000"));
        let detect = parsed.iter().find(|e| e.name == "ecc.detect").unwrap();
        assert_eq!(detect.ph, "i");
        assert_eq!(detect.parent, sim.id);
    }

    #[test]
    fn well_nested_check_rejects_bad_traces() {
        let jsontext = r#"{"traceEvents":[
            {"name":"p","cat":"x","ph":"X","ts":100,"dur":10,"pid":1,"tid":1,"args":{"span_id":"0"}},
            {"name":"c","cat":"x","ph":"X","ts":50,"dur":10,"pid":1,"tid":1,"args":{"span_id":"1","parent":"0"}}
        ]}"#;
        let parsed = parse_chrome_trace(jsontext).unwrap();
        assert!(check_well_nested(&parsed).unwrap_err().contains("escapes"));
        let dangling = r#"{"traceEvents":[
            {"name":"c","cat":"x","ph":"i","s":"t","ts":5,"pid":1,"tid":1,"args":{"span_id":"0","parent":"7"}}
        ]}"#;
        let parsed = parse_chrome_trace(dangling).unwrap();
        assert!(check_well_nested(&parsed)
            .unwrap_err()
            .contains("missing parent"));
    }

    #[test]
    fn span_tree_indents_children() {
        let groups = vec![("fig5".to_string(), sample_tracer().take())];
        let tree = span_tree(&groups);
        let lines: Vec<&str> = tree.lines().collect();
        assert_eq!(lines[0], "== fig5 ==");
        assert!(
            lines[1].starts_with("task.fig5 [tick 0..2]"),
            "{}",
            lines[1]
        );
        assert!(lines[2].starts_with("  sim.base.linpack [ps 0..120]"));
        assert!(lines[3].starts_with("    ecc.detect @40 ps block=3"));
        assert!(lines[4].starts_with("    write_drain.ch0 [ps 50..90] pending=12"));
        assert!(lines[5].starts_with("  cache.miss @"), "{}", lines[5]);
    }

    #[test]
    fn identical_recordings_export_identical_bytes() {
        let a = chrome_trace(&[("t".into(), sample_tracer().take())]);
        let b = chrome_trace(&[("t".into(), sample_tracer().take())]);
        assert_eq!(a, b);
    }
}
