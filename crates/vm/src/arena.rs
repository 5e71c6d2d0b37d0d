//! Per-session storage arena: size-classed free lists of tensor element
//! buffers.
//!
//! Nimble makes allocation explicit (`AllocStorage` / `AllocTensor` /
//! `AllocTensorReg`) precisely so the runtime can recycle storage across
//! invocations of a dynamic model. The arena is that recycler, and what it
//! recycles is the tensor data itself: `AllocTensor` draws the planned
//! output's element buffer from here, the kernel writes into it in place,
//! and when the last tensor sharing the buffer drops (the lowered `kill`,
//! frame teardown, a result going out of scope — wherever the tensor
//! escaped to) the buffer comes back here through
//! [`nimble_tensor::Recycle`]. A warm arena turns the per-request
//! allocation cost of a dynamic model into a handful of free-list pops.
//!
//! Buffers are keyed by dtype and size class: the storage's planned byte
//! size rounded up to a power of two (minimum 64 bytes), which is also the
//! buffer's capacity, so tensors of slightly varying shape that share a
//! class share buffers. Requests above [`LARGE_CLASS`] use a first-fit
//! list per dtype instead, so huge dynamic intermediates still reuse each
//! other's buffers.
//!
//! In debug builds every buffer handed out is poison-filled — `f32` with a
//! NaN bit pattern ([`POISON_F32_BITS`]), integers with `0xA5` bytes — so
//! a kernel that reads its planned output before writing all of it
//! (accumulating into it, or skipping elements) produces NaNs that the
//! arena-on vs arena-off differential tests catch.
//!
//! Device residency is a tag in this simulation (the GPU lanes run on host
//! memory), so buffers are not keyed by device.

use nimble_tensor::{DType, Data, Recycle};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Requests whose size class exceeds this go to the first-fit overflow
/// list instead of an exact-class free list (1 MiB).
pub const LARGE_CLASS: usize = 1 << 20;

/// Bit pattern written over `f32` buffers in debug builds: a NaN, so any
/// arithmetic on an element no kernel wrote shows in the output.
pub const POISON_F32_BITS: u32 = 0x7FA5_A5A5;

/// Byte written over integer buffers in debug builds.
pub const POISON_BYTE: u8 = 0xA5;

/// Round a request up to its size class (next power of two, minimum 64
/// bytes).
pub fn size_class(nbytes: usize) -> usize {
    nbytes.next_power_of_two().max(64)
}

/// Whether sessions should use an arena by default: on, unless the
/// `NIMBLE_ARENA` environment variable is `off`/`0`/`false` (the escape
/// hatch for A/B-ing allocator behaviour, and the arena-off oracle of the
/// differential tests). Read once per process.
pub fn arena_enabled_by_env() -> bool {
    static ON: OnceLock<bool> = OnceLock::new();
    *ON.get_or_init(|| match std::env::var("NIMBLE_ARENA") {
        Ok(v) => !matches!(v.to_ascii_lowercase().as_str(), "off" | "0" | "false"),
        Err(_) => true,
    })
}

/// Snapshot of one arena's counters (or a sum over several — see
/// [`ArenaStats::merge`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ArenaStats {
    /// Buffers served from the free lists (no allocation).
    pub hits: u64,
    /// Buffers freshly allocated because no parked buffer fit.
    pub misses: u64,
    /// Total bytes (capacity) served from recycled buffers over time.
    pub recycled_bytes: u64,
    /// Bytes (capacity) currently held by live tensors.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes`.
    pub high_water_bytes: u64,
    /// Bytes parked in the free lists, ready for reuse.
    pub retained_bytes: u64,
    /// Buffers parked in the free lists.
    pub retained_blocks: u64,
}

impl ArenaStats {
    /// Fraction of allocations served from the free lists (0 when the
    /// arena has served nothing).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Accumulate another arena's counters (engine-level aggregation over
    /// per-worker arenas; `high_water_bytes` sums, making it an upper
    /// bound on simultaneous footprint).
    pub fn merge(&mut self, other: &ArenaStats) {
        self.hits += other.hits;
        self.misses += other.misses;
        self.recycled_bytes += other.recycled_bytes;
        self.live_bytes += other.live_bytes;
        self.high_water_bytes += other.high_water_bytes;
        self.retained_bytes += other.retained_bytes;
        self.retained_blocks += other.retained_blocks;
    }
}

#[derive(Default)]
struct ArenaInner {
    /// Exact-class free lists, keyed by (dtype, size class in bytes).
    classes: HashMap<(DType, usize), Vec<Data>>,
    /// First-fit overflow for buffers above [`LARGE_CLASS`], per dtype.
    large: HashMap<DType, Vec<Data>>,
}

/// A size-classed free-list recycler for tensor element buffers. Shared
/// (`Arc`) between a session and every buffer it hands out, so buffers
/// that outlive the session (results) still come back here, and the last
/// reference's drop frees everything.
pub struct StorageArena {
    inner: Mutex<ArenaInner>,
    hits: AtomicU64,
    misses: AtomicU64,
    recycled_bytes: AtomicU64,
    live_bytes: AtomicU64,
    high_water_bytes: AtomicU64,
    retained_bytes: AtomicU64,
    retained_blocks: AtomicU64,
    poison: bool,
}

impl std::fmt::Debug for StorageArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StorageArena")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for StorageArena {
    fn default() -> Self {
        StorageArena::new()
    }
}

/// Capacity of a buffer, in bytes.
fn capacity_bytes(data: &Data) -> usize {
    data.capacity() * data.dtype().size_of()
}

impl StorageArena {
    /// An empty arena. Poisoning of handed-out buffers is on in debug
    /// builds.
    pub fn new() -> StorageArena {
        StorageArena::with_poison(cfg!(debug_assertions))
    }

    /// An empty arena with buffer poisoning explicitly on or off.
    pub fn with_poison(poison: bool) -> StorageArena {
        StorageArena {
            inner: Mutex::new(ArenaInner::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recycled_bytes: AtomicU64::new(0),
            live_bytes: AtomicU64::new(0),
            high_water_bytes: AtomicU64::new(0),
            retained_bytes: AtomicU64::new(0),
            retained_blocks: AtomicU64::new(0),
            poison,
        }
    }

    /// A shared arena, or `None` when `NIMBLE_ARENA=off` disables arenas
    /// process-wide.
    pub fn shared_default() -> Option<Arc<StorageArena>> {
        arena_enabled_by_env().then(|| Arc::new(StorageArena::new()))
    }

    /// A buffer of `len` elements of `dtype` for a storage of `nbytes`
    /// planned bytes: a parked buffer of the same size class when one is
    /// free, a fresh one with the class's capacity otherwise. Its contents
    /// are unspecified (poison in debug builds); the caller overwrites
    /// every element. The flag says whether the buffer was recycled.
    pub fn acquire(&self, dtype: DType, nbytes: usize, len: usize) -> (Data, bool) {
        let size = dtype.size_of();
        let class = size_class(nbytes.max(len * size));
        let recycled = {
            let mut inner = self.inner.lock();
            if class <= LARGE_CLASS {
                inner
                    .classes
                    .get_mut(&(dtype, class))
                    .and_then(|list| list.pop())
            } else {
                let list = inner.large.entry(dtype).or_default();
                list.iter()
                    .position(|d| d.capacity() >= len)
                    .map(|i| list.swap_remove(i))
            }
        };
        let hit = recycled.is_some();
        let mut data = match recycled {
            Some(data) => {
                let cap = capacity_bytes(&data) as u64;
                self.hits.fetch_add(1, Ordering::Relaxed);
                self.recycled_bytes.fetch_add(cap, Ordering::Relaxed);
                self.retained_bytes.fetch_sub(cap, Ordering::Relaxed);
                self.retained_blocks.fetch_sub(1, Ordering::Relaxed);
                data
            }
            None => {
                // Miss: the allocation the arena exists to amortize away.
                self.misses.fetch_add(1, Ordering::Relaxed);
                Data::with_capacity(dtype, class / size)
            }
        };
        data.resize(len);
        if self.poison {
            poison(&mut data);
        }
        let live = self
            .live_bytes
            .fetch_add(capacity_bytes(&data) as u64, Ordering::Relaxed)
            + capacity_bytes(&data) as u64;
        self.high_water_bytes.fetch_max(live, Ordering::Relaxed);
        (data, hit)
    }

    /// Free every parked buffer; yields the number of bytes released. Live
    /// tensors are unaffected (their buffers come back here when they
    /// drop). Used on engine shutdown / model unload to bring retained
    /// memory back to baseline.
    pub fn trim(&self) -> u64 {
        let (classes, large) = {
            let mut inner = self.inner.lock();
            (
                std::mem::take(&mut inner.classes),
                std::mem::take(&mut inner.large),
            )
        };
        let mut released = 0u64;
        for data in classes
            .into_values()
            .flatten()
            .chain(large.into_values().flatten())
        {
            released += capacity_bytes(&data) as u64;
            self.retained_blocks.fetch_sub(1, Ordering::Relaxed);
        }
        self.retained_bytes.fetch_sub(released, Ordering::Relaxed);
        released
    }

    /// Bytes currently held by live tensors.
    pub fn live_bytes(&self) -> u64 {
        self.live_bytes.load(Ordering::Relaxed)
    }

    /// Bytes parked in the free lists.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_bytes.load(Ordering::Relaxed)
    }

    /// Whether handed-out buffers are poison-filled.
    pub fn poisons(&self) -> bool {
        self.poison
    }

    /// Snapshot the counters.
    pub fn stats(&self) -> ArenaStats {
        ArenaStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            recycled_bytes: self.recycled_bytes.load(Ordering::Relaxed),
            live_bytes: self.live_bytes.load(Ordering::Relaxed),
            high_water_bytes: self.high_water_bytes.load(Ordering::Relaxed),
            retained_bytes: self.retained_bytes.load(Ordering::Relaxed),
            retained_blocks: self.retained_blocks.load(Ordering::Relaxed),
        }
    }

    /// Reset the cumulative counters (hits/misses/recycled) between
    /// benchmark phases; live/retained gauges are left alone and the
    /// high-water mark restarts from current liveness.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.recycled_bytes.store(0, Ordering::Relaxed);
        self.high_water_bytes
            .store(self.live_bytes.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

impl Recycle for StorageArena {
    /// Park the buffer of a dropped tensor under its dtype and capacity
    /// class.
    fn recycle(&self, data: Data) {
        let cap = capacity_bytes(&data);
        self.live_bytes.fetch_sub(cap as u64, Ordering::Relaxed);
        self.retained_bytes.fetch_add(cap as u64, Ordering::Relaxed);
        self.retained_blocks.fetch_add(1, Ordering::Relaxed);
        let dtype = data.dtype();
        let mut inner = self.inner.lock();
        if cap <= LARGE_CLASS {
            inner
                .classes
                .entry((dtype, size_class(cap)))
                .or_default()
                .push(data);
        } else {
            inner.large.entry(dtype).or_default().push(data);
        }
    }
}

/// Overwrite every element with the debug poison pattern.
fn poison(data: &mut Data) {
    match data {
        Data::F32(v) => v.fill(f32::from_bits(POISON_F32_BITS)),
        Data::I64(v) => v.fill(i64::from_ne_bytes([POISON_BYTE; 8])),
        Data::I32(v) => v.fill(i32::from_ne_bytes([POISON_BYTE; 4])),
        Data::Bool(v) => v.fill(true),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_tensor::{Shape, Tensor};

    /// A tensor whose buffer comes from (and returns to) `arena`.
    fn tensor(arena: &Arc<StorageArena>, dtype: DType, nbytes: usize, dims: &[usize]) -> Tensor {
        let shape = Shape::new(dims);
        let (data, _) = arena.acquire(dtype, nbytes, shape.volume());
        let home: Arc<dyn Recycle> = arena.clone();
        Tensor::from_parts(data, shape, Some(home)).unwrap()
    }

    #[test]
    fn size_classes_round_up() {
        assert_eq!(size_class(1), 64);
        assert_eq!(size_class(64), 64);
        assert_eq!(size_class(65), 128);
        assert_eq!(size_class(1000), 1024);
    }

    #[test]
    fn recycles_within_class() {
        let arena = Arc::new(StorageArena::new());
        let t1 = tensor(&arena, DType::F32, 100, &[25]);
        let addr = t1.as_f32().unwrap().as_ptr() as usize;
        drop(t1);
        // 120 bytes rounds to the same 128-byte class: same buffer.
        let t2 = tensor(&arena, DType::F32, 120, &[30]);
        assert_eq!(t2.as_f32().unwrap().as_ptr() as usize, addr);
        assert_eq!(t2.dims(), &[30]);
        let s = arena.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
        assert_eq!(s.recycled_bytes, 128);
        drop(t2);
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.retained_bytes(), 128);
    }

    #[test]
    fn classes_and_dtypes_do_not_cross() {
        let arena = Arc::new(StorageArena::new());
        drop(tensor(&arena, DType::F32, 64, &[16]));
        // A 128-class request must not get the parked 64-byte buffer, nor
        // an i64 request of the same class.
        let big = tensor(&arena, DType::F32, 100, &[25]);
        let ints = tensor(&arena, DType::I64, 64, &[8]);
        assert_eq!(arena.stats().hits, 0);
        assert_eq!(arena.stats().misses, 3);
        drop((big, ints));
    }

    #[test]
    fn shared_buffer_returns_when_last_tensor_drops() {
        let arena = Arc::new(StorageArena::new());
        let t = tensor(&arena, DType::F32, 64, &[4, 4]);
        let view = t.reshaped(&[16]).unwrap();
        drop(t);
        assert_eq!(
            arena.retained_bytes(),
            0,
            "the reshaped view still holds it"
        );
        drop(view);
        assert_eq!(arena.retained_bytes(), 64);
        // A copy-on-write copy is a plain allocation and never returns.
        let mut a = tensor(&arena, DType::F32, 64, &[16]);
        let b = a.clone();
        a.as_f32_mut().unwrap()[0] = 1.0;
        drop(a);
        assert_eq!(arena.retained_bytes(), 0);
        drop(b);
        assert_eq!(arena.retained_bytes(), 64);
    }

    #[test]
    fn large_buffers_first_fit() {
        let arena = Arc::new(StorageArena::new());
        let n = LARGE_CLASS; // 4 MiB of f32
        let big = tensor(&arena, DType::F32, n * 4, &[n]);
        let addr = big.as_f32().unwrap().as_ptr() as usize;
        drop(big);
        // A smaller (but still large-path) request fits in the parked buffer.
        let again = tensor(&arena, DType::F32, n * 2 + 4, &[n / 2 + 1]);
        assert_eq!(again.as_f32().unwrap().as_ptr() as usize, addr);
        assert_eq!(arena.stats().hits, 1);
        drop(again);
        // A larger request cannot: new allocation.
        let over = tensor(&arena, DType::F32, n * 8, &[2 * n]);
        assert_ne!(over.as_f32().unwrap().as_ptr() as usize, addr);
        assert_eq!(arena.stats().misses, 2);
    }

    #[test]
    fn poison_fills_handed_out_buffers() {
        let arena = Arc::new(StorageArena::with_poison(true));
        let mut t = tensor(&arena, DType::F32, 64, &[16]);
        t.as_f32_mut().unwrap().fill(1.0);
        drop(t);
        let t = tensor(&arena, DType::F32, 64, &[16]);
        assert!(t
            .as_f32()
            .unwrap()
            .iter()
            .all(|v| v.to_bits() == POISON_F32_BITS));
        let ints = tensor(&arena, DType::I64, 64, &[8]);
        assert!(ints
            .as_i64()
            .unwrap()
            .iter()
            .all(|&v| v == i64::from_ne_bytes([POISON_BYTE; 8])));
    }

    #[test]
    fn trim_releases_parked_buffers_only() {
        let arena = Arc::new(StorageArena::new());
        for _ in 0..3 {
            drop(tensor(&arena, DType::F32, 256, &[64]));
        }
        let held = tensor(&arena, DType::F32, 4096, &[1024]);
        assert_eq!(arena.trim(), 256);
        assert_eq!(arena.retained_bytes(), 0);
        assert_eq!(arena.live_bytes(), 4096);
        drop(held);
        assert_eq!(arena.live_bytes(), 0);
        assert_eq!(arena.retained_bytes(), 4096);
    }

    #[test]
    fn high_water_tracks_peak() {
        let arena = Arc::new(StorageArena::new());
        let a = tensor(&arena, DType::F32, 64, &[16]);
        let b = tensor(&arena, DType::F32, 64, &[16]);
        drop((a, b));
        let _c = tensor(&arena, DType::F32, 64, &[16]);
        let s = arena.stats();
        assert_eq!(s.high_water_bytes, 128);
        assert_eq!(s.live_bytes, 64);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn stats_merge_sums() {
        let mut a = ArenaStats {
            hits: 1,
            misses: 2,
            recycled_bytes: 64,
            live_bytes: 10,
            high_water_bytes: 20,
            retained_bytes: 30,
            retained_blocks: 1,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.hits, 2);
        assert_eq!(a.misses, 4);
        assert_eq!(a.high_water_bytes, 40);
        assert!((a.hit_rate() - 2.0 / 6.0).abs() < 1e-12);
        assert_eq!(ArenaStats::default().hit_rate(), 0.0);
    }
}
