//! Measurement plumbing: a counting global allocator, the `VmHWM` reader,
//! and the percentile rule every reported timing follows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The system allocator plus two process-wide counters. Installed as the
/// benchmark binary's `#[global_allocator]`, so it sees every heap
/// allocation the library crates make on every thread.
pub struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

fn note(bytes: usize) {
    // Statistics only: no other data is published through these.
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters touch no
// allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    /// A reallocation counts as one allocation of the new size.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocation counters at one instant. Only differences between two
/// snapshots mean anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AllocSnapshot {
    /// Allocations (including reallocations) since process start.
    pub count: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

impl AllocSnapshot {
    /// Read the counters now.
    pub fn now() -> AllocSnapshot {
        AllocSnapshot {
            count: ALLOCS.load(Ordering::Relaxed),
            bytes: ALLOC_BYTES.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated between `earlier` and `self`.
    pub fn since(self, earlier: AllocSnapshot) -> AllocSnapshot {
        AllocSnapshot {
            count: self.count - earlier.count,
            bytes: self.bytes - earlier.bytes,
        }
    }

    /// `(allocations, bytes)` per request over `requests` requests.
    pub fn per(self, requests: u64) -> (f64, f64) {
        let n = requests.max(1) as f64;
        (self.count as f64 / n, self.bytes as f64 / n)
    }
}

/// Peak resident set size (`VmHWM`) of this process in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    parse_vm_hwm_mib(&status).ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Extract `VmHWM` (reported in kB) from a `/proc/<pid>/status` text.
pub fn parse_vm_hwm_mib(status: &str) -> Option<f64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut words = line["VmHWM:".len()..].split_whitespace();
    let kib: f64 = words.next()?.parse().ok()?;
    (words.next()? == "kB").then_some(kib / 1024.0)
}

/// Samples that must lie strictly above a reported percentile.
pub const TAIL_SAMPLES: usize = 10;

/// The `q` quantile (0 < q < 1) of `sorted` by the nearest-rank rule,
/// or `None` unless at least [`TAIL_SAMPLES`] samples lie beyond its
/// rank: a tail estimate resting on fewer points is not reported.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    assert!((0.0..1.0).contains(&q), "quantile {q} out of range");
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    (n >= rank + TAIL_SAMPLES).then(|| sorted[rank - 1])
}

/// Most windows [`windowed_p99`] cuts a run into.
pub const WINDOWS: usize = 5;

/// Tail latency of a run as the median of per-window p99s. `in_order`
/// holds the samples in send order; it is cut into the most consecutive
/// windows (at most [`WINDOWS`]) that each keep [`TAIL_SAMPLES`] samples
/// beyond their p99. A stall of the host that lands in one window moves
/// that window's p99 only. Returns the value and the window count, or
/// `None` when even one window would be too small.
pub fn windowed_p99(in_order: &[f64]) -> Option<(f64, usize)> {
    let per_window = 100 * TAIL_SAMPLES;
    let n = in_order.len();
    let windows = (n / per_window).min(WINDOWS);
    if windows == 0 {
        return None;
    }
    let size = n / windows;
    let p99s = (0..windows).map(|i| {
        let end = if i + 1 == windows { n } else { (i + 1) * size };
        percentile(&sorted(in_order[i * size..end].iter().copied()), 0.99)
            .expect("every window keeps enough samples beyond its p99")
    });
    Some((median(p99s), windows))
}

/// Sorted copy of `values` (total order; NaN is never produced here).
pub fn sorted(values: impl IntoIterator<Item = f64>) -> Vec<f64> {
    let mut v: Vec<f64> = values.into_iter().collect();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of a non-empty sample (lower middle for an even count).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let v = sorted(values);
    assert!(!v.is_empty(), "median of an empty sample");
    v[(v.len() - 1) / 2]
}

/// A duration in milliseconds.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=1009).map(f64::from).collect();
        // rank ceil(0.99 * 1000) = 990 leaves exactly 10 beyond; with
        // 999 samples the rank is still 990 but only 9 lie beyond.
        assert_eq!(percentile(&v[..1000], 0.99), Some(990.0));
        assert_eq!(percentile(&v[..999], 0.99), None);
        assert_eq!(percentile(&v, 0.99), Some(999.0));
        assert_eq!(percentile(&v[..20], 0.5), Some(10.0));
        assert_eq!(percentile(&v[..19], 0.5), None);
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn windowed_p99_shrugs_off_a_stall_in_one_window() {
        // Five windows of 1000 samples; the third holds a 60-sample stall.
        let mut v: Vec<f64> = (0..5000).map(|i| f64::from(i % 1000)).collect();
        for x in &mut v[2000..2060] {
            *x = 1e6;
        }
        assert_eq!(windowed_p99(&v), Some((989.0, 5)));
        // The plain p99 of the whole run lands inside the stall.
        assert_eq!(percentile(&sorted(v.iter().copied()), 0.99), Some(1e6));
        // Fewer samples give fewer windows; below 1000 there is no p99.
        assert_eq!(windowed_p99(&v[..2500]).map(|(_, w)| w), Some(2));
        assert_eq!(windowed_p99(&v[..999]), None);
    }

    #[test]
    fn median_takes_the_lower_middle() {
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median([4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn alloc_delta_arithmetic() {
        let before = AllocSnapshot {
            count: 1_000,
            bytes: 64_000,
        };
        let after = AllocSnapshot {
            count: 1_600,
            bytes: 112_000,
        };
        let d = after.since(before);
        assert_eq!(
            d,
            AllocSnapshot {
                count: 600,
                bytes: 48_000
            }
        );
        assert_eq!(d.per(200), (3.0, 240.0));
        // Zero requests divides by one instead of producing NaN.
        assert_eq!(d.per(0), (600.0, 48_000.0));
    }

    #[test]
    fn counting_allocator_sees_this_thread() {
        let before = AllocSnapshot::now();
        let v: Vec<u8> = Vec::with_capacity(4096);
        let d = AllocSnapshot::now().since(before);
        drop(std::hint::black_box(v));
        assert!(d.count >= 1 && d.bytes >= 4096, "{d:?}");
    }

    #[test]
    fn parses_vm_hwm() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_mib(status), Some(2.0));
        assert_eq!(parse_vm_hwm_mib("VmRSS: 1 kB\n"), None);
        assert!(peak_rss_mib().expect("procfs") > 0.0);
    }
}
