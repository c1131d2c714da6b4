//! Streaming job ingestion: the [`JobSource`] trait and its two
//! adapters, [`SliceSource`] for a materialized trace and
//! [`from_specs`] for any job iterator.
//!
//! The scheduler's event loop pulls jobs one at a time instead of
//! taking a `&[Job]`, so traces can be generated on the fly
//! (`workloads::jobs`) and a 10 M-job run never materializes the
//! trace. Sources must yield jobs in nondecreasing `submit_s` order —
//! the event loop debug-asserts this.

use workloads::jobs::Job;

/// A stream of jobs in nondecreasing submission order.
///
/// Implementors are pull-based iterators; the scheduler buffers at
/// most one job of lookahead, so a source's memory footprint is its
/// own business (a slice adapter borrows, a synthetic stream is O(1)).
pub trait JobSource {
    /// The next job, or `None` when the stream is exhausted.
    fn next_job(&mut self) -> Option<Job>;

    /// Jobs remaining, if cheaply known. Used only to pre-size result
    /// buffers; correctness never depends on it.
    fn len_hint(&self) -> Option<usize> {
        None
    }
}

impl<T: JobSource + ?Sized> JobSource for &mut T {
    fn next_job(&mut self) -> Option<Job> {
        (**self).next_job()
    }

    fn len_hint(&self) -> Option<usize> {
        (**self).len_hint()
    }
}

/// Borrows a materialized trace (e.g. a
/// [`GrizzlyTrace`](workloads::jobs::GrizzlyTrace)) as a source.
#[derive(Debug, Clone)]
pub struct SliceSource<'a> {
    jobs: &'a [Job],
    next: usize,
}

impl<'a> SliceSource<'a> {
    /// Wraps `jobs` (must already be sorted by `submit_s`).
    pub fn new(jobs: &'a [Job]) -> SliceSource<'a> {
        SliceSource { jobs, next: 0 }
    }
}

impl JobSource for SliceSource<'_> {
    fn next_job(&mut self) -> Option<Job> {
        let job = self.jobs.get(self.next).copied()?;
        self.next += 1;
        Some(job)
    }

    fn len_hint(&self) -> Option<usize> {
        Some(self.jobs.len() - self.next)
    }
}

/// Adapts a job iterator (e.g. a counter-seeded
/// [`workloads::jobs::JobStream`]) into a source.
#[derive(Debug, Clone)]
pub struct SpecSource<I>(I);

/// Wraps a [`Job`] iterator as a [`JobSource`].
pub fn from_specs<I: Iterator<Item = Job>>(iter: I) -> SpecSource<I> {
    SpecSource(iter)
}

impl<I: Iterator<Item = Job>> JobSource for SpecSource<I> {
    fn next_job(&mut self) -> Option<Job> {
        self.0.next()
    }

    fn len_hint(&self) -> Option<usize> {
        match self.0.size_hint() {
            (lo, Some(hi)) if lo == hi => Some(hi),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u32, submit: f64) -> Job {
        Job {
            id,
            submit_s: submit,
            nodes: 1,
            duration_s: 60.0,
            mem_utilization: 0.1,
        }
    }

    #[test]
    fn slice_source_yields_in_order_with_exact_hint() {
        let jobs = [job(0, 0.0), job(1, 1.0), job(2, 2.0)];
        let mut s = SliceSource::new(&jobs);
        assert_eq!(s.len_hint(), Some(3));
        assert_eq!(s.next_job(), Some(jobs[0]));
        assert_eq!(s.len_hint(), Some(2));
        assert_eq!(s.next_job(), Some(jobs[1]));
        assert_eq!(s.next_job(), Some(jobs[2]));
        assert_eq!(s.next_job(), None);
        assert_eq!(s.len_hint(), Some(0));
    }

    #[test]
    fn spec_source_maps_stream_index_to_job_id() {
        use workloads::jobs::SyntheticJobs;
        use workloads::utilization::{Cluster, UtilizationModel};
        let stream = SyntheticJobs {
            jobs: 3,
            max_nodes: 8,
            capacity_nodes: 8.0,
            target_utilization: 0.5,
            utilization: UtilizationModel::for_cluster(Cluster::Grizzly),
        };
        let mut s = from_specs(stream.stream(7));
        assert_eq!(s.len_hint(), Some(3));
        let jobs: Vec<Job> = std::iter::from_fn(|| s.next_job()).collect();
        assert_eq!(jobs.iter().map(|j| j.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert_eq!(jobs, stream.stream(7).collect::<Vec<_>>());
        assert_eq!(s.len_hint(), Some(0));
    }

    #[test]
    fn mut_ref_is_a_source_too() {
        let jobs = [job(0, 0.0)];
        let mut s = SliceSource::new(&jobs);
        let r = &mut s;
        assert_eq!(r.len_hint(), Some(1));
        assert_eq!(r.next_job(), Some(jobs[0]));
        assert_eq!(s.next_job(), None);
    }
}
