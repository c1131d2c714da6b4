//! The scheduler's completion-event queue.
//!
//! [`EventQueue`] is a `Vec<Event>` kept sorted latest-first, so the
//! earliest completion sits at the back:
//!
//! * pop-min is `Vec::pop`, and a push is a binary search plus one
//!   memmove. A cluster holds at most one event per busy node (a job
//!   takes at least one node), so the shift stays short;
//! * in-order traversal walks the vector backwards and can stop early,
//!   so the EASY shadow time visits only as many completions as it
//!   takes to free the head job's nodes;
//! * events with equal end times pop in insertion order: a push lands
//!   in front of (later than) every event with the same end time, so
//!   no sequence number is needed.

/// A completion event: at `end_s`, `freed` nodes per margin group
/// return to the pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulation time the allocation ends, seconds.
    pub end_s: f64,
    /// Nodes returned per margin group (indexed like `GROUPS`).
    pub freed: [u32; 3],
}

/// Ordered completion-event queue (see module docs).
#[derive(Debug, Default)]
pub struct EventQueue {
    /// Sorted by `end_s` descending (`f64::total_cmp`); among equal
    /// end times, the latest insertion comes first.
    latest_first: Vec<Event>,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> EventQueue {
        EventQueue::default()
    }

    /// Inserts a completion. Events with equal `end_s` pop in
    /// insertion order.
    pub fn push(&mut self, end_s: f64, freed: [u32; 3]) {
        let at = self
            .latest_first
            .partition_point(|e| e.end_s.total_cmp(&end_s).is_gt());
        self.latest_first.insert(at, Event { end_s, freed });
    }

    /// End time of the earliest event, if any.
    pub fn peek_end(&self) -> Option<f64> {
        self.latest_first.last().map(|e| e.end_s)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.latest_first.pop()
    }

    /// Iterates events in end-time order (FIFO within ties) without
    /// removing them. Callers break out early — that is the point.
    pub fn in_order(&self) -> impl Iterator<Item = Event> + '_ {
        self.latest_first.iter().rev().copied()
    }

    /// Events in flight.
    pub fn len(&self) -> usize {
        self.latest_first.len()
    }

    /// Whether no events are in flight.
    pub fn is_empty(&self) -> bool {
        self.latest_first.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_end_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, [1, 0, 0]);
        q.push(1.0, [0, 1, 0]);
        q.push(3.0, [0, 0, 1]);
        assert_eq!(q.peek_end(), Some(1.0));
        assert_eq!(q.pop().unwrap().end_s, 1.0);
        assert_eq!(q.pop().unwrap().end_s, 3.0);
        assert_eq!(q.pop().unwrap().end_s, 5.0);
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn ties_break_in_insertion_order() {
        let mut q = EventQueue::new();
        q.push(2.0, [1, 0, 0]);
        q.push(2.0, [2, 0, 0]);
        q.push(2.0, [3, 0, 0]);
        assert_eq!(q.pop().unwrap().freed, [1, 0, 0]);
        assert_eq!(q.pop().unwrap().freed, [2, 0, 0]);
        assert_eq!(q.pop().unwrap().freed, [3, 0, 0]);
    }

    #[test]
    fn in_order_matches_drain_order() {
        let mut q = EventQueue::new();
        for i in 0..50u32 {
            // Deliberate collisions: only 10 distinct end times.
            q.push((i % 10) as f64, [i, 0, 0]);
        }
        let scanned: Vec<Event> = q.in_order().collect();
        assert_eq!(scanned.len(), q.len());
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        assert_eq!(scanned, drained);
    }

    /// Differential check against a naive model: every event with its
    /// insertion sequence in a `Vec`, re-sorted by `(end time, seq)`
    /// after each operation. End times are coarse, so ties are dense;
    /// after every push or pop the two must agree on `pop`,
    /// `peek_end`, `len` and the full `in_order()` sequence, FIFO order
    /// within ties included.
    #[test]
    fn differential_against_naive_sorted_model() {
        let mut q = EventQueue::new();
        let mut naive: Vec<(f64, u64, [u32; 3])> = Vec::new();
        let mut seq = 0u64;
        let mut x = 0x9E3779B97F4A7C15u64;
        for step in 0..4_000u32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            // Pushes outnumber pops 2:1 for the first half, then pops
            // win, so the queue grows to hundreds of events and shrinks.
            let third = x.is_multiple_of(3);
            let push = if step < 2_000 { !third } else { third };
            if push {
                // 16 distinct end times in [-1, 6.5], two of them negative.
                let t = ((x >> 40) % 16) as f64 * 0.5 - 1.0;
                let freed = [step, (x >> 20) as u32 % 8, seq as u32];
                q.push(t, freed);
                naive.push((t, seq, freed));
                seq += 1;
                naive.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            } else {
                let expected = (!naive.is_empty()).then(|| {
                    let (end_s, _, freed) = naive.remove(0);
                    Event { end_s, freed }
                });
                assert_eq!(q.pop(), expected, "pop diverged at step {step}");
            }
            assert_eq!(q.len(), naive.len());
            assert_eq!(q.is_empty(), naive.is_empty());
            assert_eq!(q.peek_end(), naive.first().map(|e| e.0));
            let scanned: Vec<Event> = q.in_order().collect();
            let expected: Vec<Event> = naive
                .iter()
                .map(|&(end_s, _, freed)| Event { end_s, freed })
                .collect();
            assert_eq!(scanned, expected, "in_order diverged at step {step}");
        }
        for (end_s, _, freed) in naive {
            assert_eq!(q.pop(), Some(Event { end_s, freed }));
        }
        assert!(q.is_empty());
    }
}
