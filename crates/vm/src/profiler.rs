//! Per-category execution profiler.
//!
//! Table 4 of the paper splits BERT latency into "kernel" time (the
//! `InvokePacked` instructions doing real compute) and "others" (shape
//! functions, allocation, dispatch, control flow). This profiler
//! accumulates exactly those buckets plus per-opcode counts.
//!
//! Each nanosecond lands in one bucket: a call instruction (`Invoke`,
//! `InvokeClosure`) records only its self time, because its callee's
//! instructions record their own, and a device copy that waits on the
//! stream leaves the wait to [`Profiler::record_sync`]. The buckets of a
//! run therefore sum to at most its wall time, however deep a recursive
//! model (LSTM, Tree-LSTM) calls.

use crate::isa::{opcode_name, NUM_OPCODES};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which bucket an instruction's time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Category {
    /// Compute-kernel invocation.
    Kernel,
    /// Shape-function invocation.
    ShapeFunc,
    /// Everything else (allocation, moves, control flow, copies).
    Other,
}

/// Accumulated profile.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    enabled: bool,
    kernel_ns: u64,
    shape_func_ns: u64,
    other_ns: u64,
    counts: [u64; NUM_OPCODES],
    op_ns: [u64; NUM_OPCODES],
    kernel_invocations: u64,
}

/// A finished profile snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileReport {
    /// Time in compute kernels (ns).
    pub kernel_ns: u64,
    /// Time in shape functions (ns).
    pub shape_func_ns: u64,
    /// Time in all other instructions (ns).
    pub other_ns: u64,
    /// Total instructions executed.
    pub instructions: u64,
    /// Compute-kernel invocations.
    pub kernel_invocations: u64,
    /// Executions per opcode.
    pub counts: [u64; NUM_OPCODES],
    /// Time per opcode (ns); zero when the profiler ran count-only.
    pub op_ns: [u64; NUM_OPCODES],
}

/// One row of [`ProfileReport::top_opcodes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpcodeStat {
    /// Raw opcode byte.
    pub opcode: u8,
    /// Mnemonic for display.
    pub name: &'static str,
    /// Executions.
    pub count: u64,
    /// Accumulated time (ns).
    pub ns: u64,
}

impl ProfileReport {
    /// Planned tensors built (`AllocTensor` + `AllocTensorReg`
    /// executions): the element buffers a run allocates when no arena
    /// recycles them.
    pub fn planned_tensors(&self) -> u64 {
        (0..NUM_OPCODES)
            .filter(|&op| matches!(opcode_name(op as u8), "AllocTensor" | "AllocTensorReg"))
            .map(|op| self.counts[op])
            .sum()
    }

    /// "others" as the paper defines it: everything that is not kernel
    /// execution.
    pub fn others_total_ns(self) -> u64 {
        self.shape_func_ns + self.other_ns
    }

    /// The `n` most expensive opcodes by accumulated time (ties broken by
    /// execution count), skipping opcodes that never ran. Used by the
    /// serve stats printer and the Prometheus exporter.
    pub fn top_opcodes(&self, n: usize) -> Vec<OpcodeStat> {
        let mut stats: Vec<OpcodeStat> = (0..NUM_OPCODES)
            .filter(|&i| self.counts[i] > 0)
            .map(|i| OpcodeStat {
                opcode: i as u8,
                name: opcode_name(i as u8),
                count: self.counts[i],
                ns: self.op_ns[i],
            })
            .collect();
        stats.sort_by(|a, b| b.ns.cmp(&a.ns).then(b.count.cmp(&a.count)));
        stats.truncate(n);
        stats
    }
}

impl std::ops::Add for ProfileReport {
    type Output = ProfileReport;
    fn add(self, rhs: ProfileReport) -> ProfileReport {
        let mut counts = self.counts;
        let mut op_ns = self.op_ns;
        for i in 0..NUM_OPCODES {
            counts[i] += rhs.counts[i];
            op_ns[i] += rhs.op_ns[i];
        }
        ProfileReport {
            kernel_ns: self.kernel_ns + rhs.kernel_ns,
            shape_func_ns: self.shape_func_ns + rhs.shape_func_ns,
            other_ns: self.other_ns + rhs.other_ns,
            instructions: self.instructions + rhs.instructions,
            kernel_invocations: self.kernel_invocations + rhs.kernel_invocations,
            counts,
            op_ns,
        }
    }
}

impl std::ops::AddAssign for ProfileReport {
    fn add_assign(&mut self, rhs: ProfileReport) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for ProfileReport {
    fn sum<I: Iterator<Item = ProfileReport>>(iter: I) -> ProfileReport {
        iter.fold(ProfileReport::default(), |acc, r| acc + r)
    }
}

/// Lock-free cross-thread profile aggregate: every [`crate::Session`]
/// merges its per-run [`Profiler`] here, so Table-4-style breakdowns stay
/// exact when many worker threads share one loaded program.
#[derive(Debug, Default)]
pub struct SharedProfiler {
    kernel_ns: AtomicU64,
    shape_func_ns: AtomicU64,
    other_ns: AtomicU64,
    instructions: AtomicU64,
    kernel_invocations: AtomicU64,
    counts: [AtomicU64; NUM_OPCODES],
    op_ns: [AtomicU64; NUM_OPCODES],
    runs: AtomicU64,
}

impl SharedProfiler {
    /// Fresh, empty aggregate.
    pub fn new() -> SharedProfiler {
        SharedProfiler::default()
    }

    /// Fold one finished per-run profile into the totals.
    pub fn merge(&self, report: ProfileReport) {
        self.kernel_ns
            .fetch_add(report.kernel_ns, Ordering::Relaxed);
        self.shape_func_ns
            .fetch_add(report.shape_func_ns, Ordering::Relaxed);
        self.other_ns.fetch_add(report.other_ns, Ordering::Relaxed);
        self.instructions
            .fetch_add(report.instructions, Ordering::Relaxed);
        self.kernel_invocations
            .fetch_add(report.kernel_invocations, Ordering::Relaxed);
        for i in 0..NUM_OPCODES {
            if report.counts[i] != 0 {
                self.counts[i].fetch_add(report.counts[i], Ordering::Relaxed);
            }
            if report.op_ns[i] != 0 {
                self.op_ns[i].fetch_add(report.op_ns[i], Ordering::Relaxed);
            }
        }
        self.runs.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of runs merged since the last reset.
    pub fn runs(&self) -> u64 {
        self.runs.load(Ordering::Relaxed)
    }

    /// Snapshot the aggregated totals.
    pub fn report(&self) -> ProfileReport {
        let mut counts = [0u64; NUM_OPCODES];
        let mut op_ns = [0u64; NUM_OPCODES];
        for i in 0..NUM_OPCODES {
            counts[i] = self.counts[i].load(Ordering::Relaxed);
            op_ns[i] = self.op_ns[i].load(Ordering::Relaxed);
        }
        ProfileReport {
            kernel_ns: self.kernel_ns.load(Ordering::Relaxed),
            shape_func_ns: self.shape_func_ns.load(Ordering::Relaxed),
            other_ns: self.other_ns.load(Ordering::Relaxed),
            instructions: self.instructions.load(Ordering::Relaxed),
            kernel_invocations: self.kernel_invocations.load(Ordering::Relaxed),
            counts,
            op_ns,
        }
    }

    /// Clear all accumulated data.
    pub fn reset(&self) {
        self.kernel_ns.store(0, Ordering::Relaxed);
        self.shape_func_ns.store(0, Ordering::Relaxed);
        self.other_ns.store(0, Ordering::Relaxed);
        self.instructions.store(0, Ordering::Relaxed);
        self.kernel_invocations.store(0, Ordering::Relaxed);
        for i in 0..NUM_OPCODES {
            self.counts[i].store(0, Ordering::Relaxed);
            self.op_ns[i].store(0, Ordering::Relaxed);
        }
        self.runs.store(0, Ordering::Relaxed);
    }
}

impl Profiler {
    /// Create a profiler; disabled profilers cost one branch per
    /// instruction.
    pub fn new(enabled: bool) -> Profiler {
        Profiler {
            enabled,
            ..Profiler::default()
        }
    }

    /// Whether timing is being collected.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Record one executed instruction.
    pub fn record(&mut self, opcode: u8, category: Category, elapsed: Duration) {
        self.counts[opcode as usize] += 1;
        if category == Category::Kernel {
            self.kernel_invocations += 1;
        }
        if !self.enabled {
            return;
        }
        let ns = elapsed.as_nanos() as u64;
        self.op_ns[opcode as usize] += ns;
        match category {
            Category::Kernel => self.kernel_ns += ns,
            Category::ShapeFunc => self.shape_func_ns += ns,
            Category::Other => self.other_ns += ns,
        }
    }

    /// Total time recorded so far across the three buckets (ns). The
    /// interpreter reads it around a call to learn how much of the call's
    /// wall time its callee already recorded.
    pub fn timed_ns(&self) -> u64 {
        self.kernel_ns + self.shape_func_ns + self.other_ns
    }

    /// Attribute host-blocking synchronization (waiting for the device
    /// stream) to kernel time, as the paper does for the GPU row of
    /// Table 4.
    pub fn record_sync(&mut self, elapsed: Duration) {
        if self.enabled {
            self.kernel_ns += elapsed.as_nanos() as u64;
        }
    }

    /// Executions of one opcode.
    pub fn count(&self, opcode: u8) -> u64 {
        self.counts[opcode as usize]
    }

    /// Snapshot totals.
    pub fn report(&self) -> ProfileReport {
        ProfileReport {
            kernel_ns: self.kernel_ns,
            shape_func_ns: self.shape_func_ns,
            other_ns: self.other_ns,
            instructions: self.counts.iter().sum(),
            kernel_invocations: self.kernel_invocations,
            counts: self.counts,
            op_ns: self.op_ns,
        }
    }

    /// Clear all accumulated data, keeping the enabled flag.
    pub fn reset(&mut self) {
        let enabled = self.enabled;
        *self = Profiler::new(enabled);
    }

    /// Clear all accumulated data and set the enabled flag (sessions call
    /// this at the start of each run with the VM's current profiling mode).
    pub fn reset_with(&mut self, enabled: bool) {
        *self = Profiler::new(enabled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_accumulate() {
        let mut p = Profiler::new(true);
        p.record(4, Category::Kernel, Duration::from_nanos(100));
        p.record(4, Category::ShapeFunc, Duration::from_nanos(30));
        p.record(0, Category::Other, Duration::from_nanos(5));
        p.record_sync(Duration::from_nanos(50));
        let r = p.report();
        assert_eq!(r.kernel_ns, 150);
        assert_eq!(r.shape_func_ns, 30);
        assert_eq!(r.other_ns, 5);
        assert_eq!(r.others_total_ns(), 35);
        assert_eq!(r.instructions, 3);
        assert_eq!(r.kernel_invocations, 1);
        assert_eq!(p.count(4), 2);
    }

    #[test]
    fn disabled_profiler_counts_but_does_not_time() {
        let mut p = Profiler::new(false);
        p.record(4, Category::Kernel, Duration::from_nanos(1000));
        let r = p.report();
        assert_eq!(r.kernel_ns, 0);
        assert_eq!(r.instructions, 1);
        assert_eq!(r.kernel_invocations, 1);
    }

    #[test]
    fn shared_profiler_aggregates_across_threads() {
        let shared = std::sync::Arc::new(SharedProfiler::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let shared = std::sync::Arc::clone(&shared);
                std::thread::spawn(move || {
                    for _ in 0..10 {
                        let mut p = Profiler::new(true);
                        p.record(4, Category::Kernel, Duration::from_nanos(10));
                        shared.merge(p.report());
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let r = shared.report();
        assert_eq!(r.kernel_ns, 400);
        assert_eq!(r.instructions, 40);
        assert_eq!(r.kernel_invocations, 40);
        assert_eq!(shared.runs(), 40);
        shared.reset();
        assert_eq!(shared.report(), ProfileReport::default());
        assert_eq!(shared.runs(), 0);
    }

    #[test]
    fn report_sum_matches_merge() {
        let a = ProfileReport {
            kernel_ns: 5,
            shape_func_ns: 2,
            other_ns: 1,
            instructions: 7,
            kernel_invocations: 3,
            ..ProfileReport::default()
        };
        let b = ProfileReport {
            kernel_ns: 10,
            ..ProfileReport::default()
        };
        let total: ProfileReport = [a, b].into_iter().sum();
        assert_eq!(total.kernel_ns, 15);
        assert_eq!(total.instructions, 7);
        let shared = SharedProfiler::new();
        shared.merge(a);
        shared.merge(b);
        assert_eq!(shared.report(), total);
    }

    #[test]
    fn per_opcode_time_and_top_opcodes() {
        let mut p = Profiler::new(true);
        p.record(4, Category::Kernel, Duration::from_nanos(500));
        p.record(4, Category::Kernel, Duration::from_nanos(300));
        p.record(5, Category::Other, Duration::from_nanos(90));
        p.record(0, Category::Other, Duration::from_nanos(10));
        let r = p.report();
        assert_eq!(r.op_ns[4], 800);
        assert_eq!(r.op_ns[5], 90);
        assert_eq!(r.counts[4], 2);
        let top = r.top_opcodes(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].name, "InvokePacked");
        assert_eq!(top[0].ns, 800);
        assert_eq!(top[0].count, 2);
        assert_eq!(top[1].name, "AllocStorage");
        // Opcodes that never ran are excluded even with a large n.
        assert_eq!(r.top_opcodes(100).len(), 3);
        // Per-opcode arrays ride through the shared aggregate.
        let shared = SharedProfiler::new();
        shared.merge(r);
        shared.merge(r);
        let agg = shared.report();
        assert_eq!(agg.op_ns[4], 1600);
        assert_eq!(agg.counts[4], 4);
        shared.reset();
        assert_eq!(shared.report().op_ns[4], 0);
    }

    #[test]
    fn reset_preserves_enabled() {
        let mut p = Profiler::new(true);
        p.record(1, Category::Other, Duration::from_nanos(10));
        p.reset();
        assert!(p.enabled());
        assert_eq!(p.report().instructions, 0);
    }
}
