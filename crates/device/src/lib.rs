//! # nimble-device
//!
//! Device abstraction for the Nimble reproduction: the host CPU plus a
//! **simulated GPU** standing in for the paper's Nvidia T4 (see DESIGN.md's
//! substitution table).
//!
//! The simulation reproduces the three properties device placement
//! (Section 4.4) depends on, with real work rather than sleeps:
//!
//! 1. **Separate memory spaces** — every tensor is resident on a device;
//!    crossing devices requires an explicit [`copy_tensor`] that performs a
//!    genuine buffer copy and is counted by [`CopyStats`];
//! 2. **Asynchronous execution** — GPU kernels are enqueued on a
//!    [`GpuStream`] served by a dedicated thread, so bytecode
//!    interpretation overlaps kernel execution exactly as Table 4 observes
//!    ("most of bytecode latency is overlapped with the GPU execution");
//! 3. **Launch overhead** — each launch pays a real enqueue/dequeue cost
//!    through the stream's channel.
//!
//! Device memory is a residency tag: tensor buffers live in host memory
//! and are recycled by the VM's per-session storage arenas, which report
//! each device's buffer traffic to its [`BufferCounters`].

pub mod future;
pub mod stream;

pub use future::TensorFuture;
pub use stream::GpuStream;

use nimble_tensor::Tensor;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};

/// Identity of an execution/memory domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum DeviceId {
    /// Host CPU.
    Cpu,
    /// Simulated GPU.
    Gpu,
}

impl DeviceId {
    /// Stable index (0 = CPU, 1 = GPU) shared with IR `device` attributes
    /// and VM instruction operands.
    pub fn index(self) -> usize {
        match self {
            DeviceId::Cpu => 0,
            DeviceId::Gpu => 1,
        }
    }

    /// Inverse of [`DeviceId::index`]; unknown indices map to CPU.
    pub fn from_index(i: usize) -> DeviceId {
        if i == 1 {
            DeviceId::Gpu
        } else {
            DeviceId::Cpu
        }
    }
}

impl std::fmt::Display for DeviceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceId::Cpu => write!(f, "cpu(0)"),
            DeviceId::Gpu => write!(f, "gpu(0)"),
        }
    }
}

/// Cross-device transfer statistics.
#[derive(Debug, Default)]
pub struct CopyStats {
    /// Host→device copies performed.
    pub h2d: AtomicU64,
    /// Device→host copies performed.
    pub d2h: AtomicU64,
    /// Total bytes moved.
    pub bytes: AtomicU64,
}

impl CopyStats {
    /// Snapshot `(h2d, d2h, bytes)`.
    pub fn snapshot(&self) -> (u64, u64, u64) {
        (
            self.h2d.load(Ordering::Relaxed),
            self.d2h.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// Planned element buffers placed on one device: how many the VM handed
/// out, and how many of those a storage arena served from a recycled
/// buffer (the arenas are the device's buffer pool).
#[derive(Debug, Default)]
pub struct BufferCounters {
    allocs: AtomicU64,
    hits: AtomicU64,
}

/// Snapshot of [`BufferCounters`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BufferStats {
    /// Planned element buffers handed out.
    pub allocs: u64,
    /// Of those, buffers recycled from an arena free list.
    pub pool_hits: u64,
}

impl BufferCounters {
    /// Count one handed-out buffer; `recycled` when an arena reused it.
    pub fn record(&self, recycled: bool) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        if recycled {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> BufferStats {
        BufferStats {
            allocs: self.allocs.load(Ordering::Relaxed),
            pool_hits: self.hits.load(Ordering::Relaxed),
        }
    }
}

/// The set of devices available to one VM instance: per-device buffer
/// counters, the optional GPU streams, and copy accounting.
#[derive(Debug)]
pub struct DeviceSet {
    /// Shared so an asynchronous job can count the buffer it draws.
    buffers: [std::sync::Arc<BufferCounters>; 2],
    /// Independent GPU streams ("lanes"). Empty means CPU only. Kernels
    /// chained through futures stay correct across lanes (a job blocks on
    /// its input futures), so concurrent sessions can each use their own
    /// lane — the concurrent-CUDA-streams serving model.
    gpu: Vec<GpuStream>,
    copies: CopyStats,
    sync_count: AtomicU64,
    last_kernel_device: Mutex<DeviceId>,
}

impl DeviceSet {
    /// CPU-only device set.
    pub fn cpu_only() -> DeviceSet {
        DeviceSet {
            buffers: Default::default(),
            gpu: Vec::new(),
            copies: CopyStats::default(),
            sync_count: AtomicU64::new(0),
            last_kernel_device: Mutex::new(DeviceId::Cpu),
        }
    }

    /// Device set with the simulated GPU attached (one stream, zero
    /// modeled kernel latency — the pure compute-time simulation).
    pub fn with_gpu() -> DeviceSet {
        DeviceSet::with_gpu_lanes(1, std::time::Duration::ZERO)
    }

    /// Device set with `lanes` independent GPU streams, each modeling
    /// `kernel_latency` of device-busy time per kernel. Sessions pick a
    /// lane so concurrent requests overlap on the device; see
    /// [`DeviceSet::gpu_lane`].
    ///
    /// # Panics
    /// Panics when `lanes` is zero (use [`DeviceSet::cpu_only`]).
    pub fn with_gpu_lanes(lanes: usize, kernel_latency: std::time::Duration) -> DeviceSet {
        assert!(lanes > 0, "a GPU device set needs at least one stream");
        DeviceSet {
            buffers: Default::default(),
            gpu: (0..lanes)
                .map(|_| GpuStream::spawn_with_latency(kernel_latency))
                .collect(),
            copies: CopyStats::default(),
            sync_count: AtomicU64::new(0),
            last_kernel_device: Mutex::new(DeviceId::Cpu),
        }
    }

    /// The buffer counters of a device.
    pub fn pool(&self, device: DeviceId) -> &std::sync::Arc<BufferCounters> {
        &self.buffers[device.index()]
    }

    /// Whether a (simulated) GPU is present.
    pub fn has_gpu(&self) -> bool {
        !self.gpu.is_empty()
    }

    /// The first GPU stream (lane 0).
    ///
    /// # Panics
    /// Panics when the set was built without a GPU; callers gate on
    /// [`DeviceSet::has_gpu`].
    pub fn gpu(&self) -> &GpuStream {
        self.gpu_lane(0)
    }

    /// The GPU stream for a lane; lanes wrap, so any `usize` (e.g. a
    /// worker index) is a valid selector.
    ///
    /// # Panics
    /// Panics when the set was built without a GPU.
    pub fn gpu_lane(&self, lane: usize) -> &GpuStream {
        assert!(!self.gpu.is_empty(), "device set has no GPU");
        &self.gpu[lane % self.gpu.len()]
    }

    /// Number of GPU streams (0 when CPU only).
    pub fn gpu_lanes(&self) -> usize {
        self.gpu.len()
    }

    /// Copy statistics.
    pub fn copy_stats(&self) -> &CopyStats {
        &self.copies
    }

    /// Number of stream synchronizations forced by host reads.
    pub fn sync_count(&self) -> u64 {
        self.sync_count.load(Ordering::Relaxed)
    }

    /// Record the device a kernel ran on (diagnostics).
    pub fn note_kernel_device(&self, device: DeviceId) {
        *self.last_kernel_device.lock() = device;
    }

    /// Block until all enqueued GPU work has retired, on every lane.
    pub fn synchronize(&self) {
        if !self.gpu.is_empty() {
            self.sync_count.fetch_add(1, Ordering::Relaxed);
            for gpu in &self.gpu {
                gpu.synchronize();
            }
        }
    }

    /// Block until one lane's enqueued work has retired. Sessions use this
    /// so a run drains its own stream without waiting on other sessions'
    /// concurrently queued kernels.
    pub fn synchronize_lane(&self, lane: usize) {
        if !self.gpu.is_empty() {
            self.sync_count.fetch_add(1, Ordering::Relaxed);
            self.gpu_lane(lane).synchronize();
        }
    }
}

impl Default for DeviceSet {
    fn default() -> Self {
        DeviceSet::cpu_only()
    }
}

/// Copy a tensor across devices, updating statistics. The copy is a real
/// buffer duplication; for device→host transfers the caller must have
/// synchronized the stream first (the VM's `DeviceCopy` handler does).
pub fn copy_tensor(set: &DeviceSet, t: &Tensor, src: DeviceId, dst: DeviceId) -> Tensor {
    if src == dst {
        return t.clone();
    }
    match (src, dst) {
        (DeviceId::Cpu, DeviceId::Gpu) => {
            set.copies.h2d.fetch_add(1, Ordering::Relaxed);
        }
        (DeviceId::Gpu, DeviceId::Cpu) => {
            set.copies.d2h.fetch_add(1, Ordering::Relaxed);
        }
        _ => {}
    }
    set.copies
        .bytes
        .fetch_add(t.nbytes() as u64, Ordering::Relaxed);
    // A genuine deep copy: what a PCIe transfer would materialize on the
    // other side.
    let mut copy = t.clone();
    let _ = copy.data_mut(); // force copy-on-write to duplicate the buffer
    copy
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_id_round_trip() {
        assert_eq!(DeviceId::from_index(DeviceId::Cpu.index()), DeviceId::Cpu);
        assert_eq!(DeviceId::from_index(DeviceId::Gpu.index()), DeviceId::Gpu);
        assert_eq!(DeviceId::from_index(99), DeviceId::Cpu);
        assert_eq!(DeviceId::Cpu.to_string(), "cpu(0)");
    }

    #[test]
    fn copy_counts_and_duplicates() {
        let set = DeviceSet::cpu_only();
        let t = Tensor::ones_f32(&[16]);
        let g = copy_tensor(&set, &t, DeviceId::Cpu, DeviceId::Gpu);
        assert_eq!(g.as_f32().unwrap(), t.as_f32().unwrap());
        assert!(g.is_unique(), "copy must own its buffer");
        let (h2d, d2h, bytes) = set.copy_stats().snapshot();
        assert_eq!((h2d, d2h), (1, 0));
        assert_eq!(bytes, 64);
        // Same-device copy is free and uncounted.
        let same = copy_tensor(&set, &t, DeviceId::Cpu, DeviceId::Cpu);
        assert!(!same.is_unique());
        assert_eq!(set.copy_stats().snapshot().0, 1);
    }

    #[test]
    fn buffer_counters_split_by_device() {
        let set = DeviceSet::cpu_only();
        set.pool(DeviceId::Cpu).record(false);
        set.pool(DeviceId::Cpu).record(true);
        set.pool(DeviceId::Gpu).record(true);
        let cpu = set.pool(DeviceId::Cpu).stats();
        assert_eq!((cpu.allocs, cpu.pool_hits), (2, 1));
        let gpu = set.pool(DeviceId::Gpu).stats();
        assert_eq!((gpu.allocs, gpu.pool_hits), (1, 1));
    }

    #[test]
    fn gpu_set_has_stream() {
        let set = DeviceSet::with_gpu();
        assert!(set.has_gpu());
        set.synchronize();
        assert_eq!(set.sync_count(), 1);
        let cpu = DeviceSet::cpu_only();
        assert!(!cpu.has_gpu());
        cpu.synchronize(); // no-op, not counted
        assert_eq!(cpu.sync_count(), 0);
    }
}
