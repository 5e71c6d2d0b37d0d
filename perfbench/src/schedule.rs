//! The open-loop arrival schedule and the attribution of one request's
//! end-to-end latency to the layers it crossed.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Duration;

/// Seeded Poisson arrivals at `rate` per second over `span`, as offsets
/// from the schedule start. The count is fixed at `rate * span` (a
/// Poisson process conditioned on its count places its arrivals as
/// sorted uniform draws), so every seed offers the same load and only
/// the spacing varies. The same seed always gives the same schedule.
pub fn poisson(seed: u64, rate: f64, span: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let end = span.as_secs_f64();
    let n = (rate * end).round() as usize;
    let mut at: Vec<f64> = (0..n).map(|_| rng.gen::<f64>() * end).collect();
    at.sort_by(f64::total_cmp);
    at.into_iter().map(Duration::from_secs_f64).collect()
}

/// One open-loop request's timeline, as offsets (ns) from the run epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeline {
    /// When the schedule said to send.
    pub due: u64,
    /// When the generator entered `submit_with_deadline`.
    pub send: u64,
    /// When `submit_with_deadline` returned.
    pub admitted: u64,
    /// `Completion.latency`: engine enqueue to reply.
    pub engine: u64,
    /// When the collector started waiting on this ticket.
    pub wait_start: u64,
    /// When the wait returned.
    pub wait_end: u64,
}

/// The split of one request's end-to-end latency (ns). The parts sum to
/// `total` exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Attribution {
    /// Due time to the moment the reply was observed.
    pub total: i64,
    /// Generator lateness: due to send.
    pub late: i64,
    /// Time inside `submit_with_deadline`.
    pub submit: i64,
    /// `Completion.latency`.
    pub engine: i64,
    /// Everything else: reply hand-off and wake-up.
    pub residual: i64,
}

impl Timeline {
    /// Latest instant the engine can have finished: it enqueues inside
    /// `submit_with_deadline`, so before `admitted`.
    fn done_by(&self) -> u64 {
        self.admitted + self.engine
    }

    /// Attribute the latency. The single collector thread waits on
    /// tickets in send order, so a reply that arrived while it was still
    /// waiting on an earlier ticket is observed late; that head-of-line
    /// delay (`wait_start - done_by`, when positive) belongs to the
    /// benchmark, not the system, and is left out of `total`.
    pub fn attribute(&self) -> Attribution {
        let observed_from = self.wait_start.max(self.done_by());
        let residual = self.wait_end as i64 - observed_from as i64;
        let late = self.send as i64 - self.due as i64;
        let submit = self.admitted as i64 - self.send as i64;
        let engine = self.engine as i64;
        Attribution {
            total: late + submit + engine + residual,
            late,
            submit,
            engine,
            residual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_is_identical_per_seed_and_differs_across_seeds() {
        let span = Duration::from_secs(2);
        let a = poisson(7, 300.0, span);
        assert_eq!(a, poisson(7, 300.0, span));
        assert_ne!(a, poisson(8, 300.0, span));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.last().is_some_and(|t| *t < span));
        assert_eq!(a.len(), 600);
        // Exponential gaps: their mean is 1/rate and about 1 - 1/e of
        // them are shorter than it.
        let gaps: Vec<f64> = a.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean * 300.0 - 1.0).abs() < 0.05, "mean gap {mean}");
        let short = gaps.iter().filter(|&&g| g < 1.0 / 300.0).count() as f64;
        assert!((short / gaps.len() as f64 - 0.632).abs() < 0.06);
    }

    #[test]
    fn residual_attribution_sums_to_end_to_end() {
        // The collector was already waiting when the reply came.
        let t = Timeline {
            due: 1_000,
            send: 1_200,
            admitted: 1_500,
            engine: 4_000,
            wait_start: 1_600,
            wait_end: 5_800,
        };
        let a = t.attribute();
        assert_eq!(a.total, (t.wait_end - t.due) as i64);
        assert_eq!(
            (a.late, a.submit, a.engine, a.residual),
            (200, 300, 4_000, 300)
        );
        assert_eq!(a.late + a.submit + a.engine + a.residual, a.total);

        // The collector was busy with an earlier ticket until 9_000; the
        // 3_500 ns of head-of-line wait are not the system's latency.
        let hol = Timeline {
            wait_start: 9_000,
            wait_end: 9_050,
            ..t
        };
        let b = hol.attribute();
        assert_eq!(b.residual, 50);
        assert_eq!(b.total, (hol.wait_end - hol.due) as i64 - 3_500);
        assert_eq!(b.late + b.submit + b.engine + b.residual, b.total);
    }
}
