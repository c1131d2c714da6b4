//! Simulated job outcomes.

use workloads::jobs::Job;

/// What happened to a job in one simulated run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// The job.
    pub job: Job,
    /// When it started running, seconds.
    pub start_s: f64,
    /// Its (possibly Hetero-DMR-accelerated) execution time, seconds.
    pub exec_s: f64,
}

impl JobOutcome {
    /// Queueing delay (start − submit).
    pub fn queue_delay_s(&self) -> f64 {
        self.start_s - self.job.submit_s
    }

    /// Turnaround (queueing + execution), the paper's headline
    /// system-level metric.
    pub fn turnaround_s(&self) -> f64 {
        self.queue_delay_s() + self.exec_s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn outcome_metrics() {
        let o = JobOutcome {
            job: Job {
                id: 1,
                submit_s: 50.0,
                nodes: 1,
                duration_s: 100.0,
                mem_utilization: 0.2,
            },
            start_s: 80.0,
            exec_s: 90.0,
        };
        assert_eq!(o.queue_delay_s(), 30.0);
        assert_eq!(o.turnaround_s(), 120.0);
    }
}
