//! Blocked GEMM core: packed panels + register microkernel.
//!
//! This is the compute engine behind [`super::matmul`]'s `dense` / `matmul` /
//! `batch_matmul` and conv2d's im2col GEMM. The structure is the classic
//! BLIS/rten decomposition:
//!
//! * **B packing** ([`PackedB`]): the right-hand side is repacked once into
//!   `NR`-column panels, k-major inside each panel, grouped into `tile_k`
//!   reduction blocks. A microkernel pass then reads B strictly
//!   sequentially — no `n`- or `k`-strided loads in the hot loop. Column
//!   tails are zero-padded to `NR` so the microkernel never branches on
//!   width.
//! * **A packing**: each `tile_m` strip of A is repacked on the fly into
//!   `MR`-row panels (k-major, same `tile_k` blocking), so the microkernel
//!   reads both operands as contiguous streams.
//! * **Microkernel**: an `MR×NR = 8×8` register accumulator tile,
//!   width-generic over [`nimble_simd::SimdF32`] and monomorphized per ISA
//!   behind `#[target_feature]` wrappers (AVX2+FMA / SSE2 / NEON, with the
//!   original scalar loops as the always-available fallback). The Server
//!   variant keeps 64 independent `acc += a*b` lanes (explicit mul-then-add,
//!   never FMA — fusing would change the rounding); the Edge variant is a
//!   strictly in-order `mul_add` dependence chain modelling a low-power
//!   core, vectorized only on backends with a true fused multiply-add
//!   (`f32::mul_add` and hardware FMA are both correctly rounded, so the
//!   scalar and vector Edge kernels agree bitwise; SSE2 has no FMA and
//!   takes the scalar Edge path).
//!
//! **Determinism across schedules *and* backends**: the accumulator tile
//! stays register-resident across *all* `tile_k` blocks — the block loop is
//! inside the per-tile region, not outside it — so each output element is
//! reduced in strictly increasing `k` order no matter the schedule. SIMD
//! lanes map across the `NR` output columns, never across `k`, so each
//! element keeps its own accumulator chain and every backend produces
//! bitwise-identical results. This is what lets the tuner explore tile
//! configs freely, the pre-pack cache share packed weights across residue
//! variants, and `NIMBLE_SIMD` switch ISAs without changing a single bit of
//! GEMM output.
//!
//! Two drivers share the microkernel layouts: the row-strip
//! [`gemm_packed`] for tall outputs and the short-row [`gemm_packed_cols`]
//! for outputs of fewer than `MR` rows. [`gemm`] picks between them by row
//! count; every kernel that owns a GEMM goes through it.
//!
//! The epilogue (bias add + any fused trailing unary elementwise chain) is
//! applied in the single write-out pass through
//! [`nimble_simd::vecmath::epilogue_row`] — the same shared masked-tail row
//! primitive the elementwise kernels use — so fused `dense → activation`
//! chains touch the output exactly once.

use crate::pool::{parallel_chunks_mut, parallel_for, ExecProfile};
use nimble_simd::{vecmath, Isa, SimdF32};

pub use nimble_simd::vecmath::UnaryOp;

/// Microkernel register-tile rows.
pub const MR: usize = 8;
/// Microkernel register-tile columns (B panel width).
pub const NR: usize = 8;

/// Output-pass fusion: bias add plus a chain of unary elementwise ops
/// applied while the accumulator tile is written out.
#[derive(Default)]
pub struct Epilogue<'a> {
    /// Per-output-column bias (`[n]`), added before the unary chain.
    pub bias: Option<&'a [f32]>,
    /// Unary ops applied in order after the bias add. Vectorizable ops ride
    /// the active ISA's vecmath kernels; [`UnaryOp::Custom`] chains fall
    /// back to the scalar reference path.
    pub unary: &'a [UnaryOp],
}

impl Epilogue<'_> {
    /// No bias, no unary chain.
    pub const NONE: Epilogue<'static> = Epilogue {
        bias: None,
        unary: &[],
    };
}

/// The right-hand side of a GEMM repacked into microkernel panels.
///
/// Layout: outer loop over `tile_k` reduction blocks, then `NR`-column
/// panels, then `k` within the block: `data[block][panel][kk][0..NR]`.
/// Blocks are laid out at a uniform stride (`n_panels * NR * tile_k`) so the
/// final ragged block simply leaves its tail unused. Column tails beyond `n`
/// are zero-padded.
pub struct PackedB {
    data: Vec<f32>,
    n: usize,
    k: usize,
    tile_k: usize,
    n_panels: usize,
}

impl std::fmt::Debug for PackedB {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedB")
            .field("n", &self.n)
            .field("k", &self.k)
            .field("tile_k", &self.tile_k)
            .field("bytes", &self.bytes())
            .finish()
    }
}

impl PackedB {
    fn with_layout(n: usize, k: usize, tile_k: usize) -> PackedB {
        let tile_k = tile_k.max(1);
        let n_panels = n.div_ceil(NR);
        let k_blocks = k.div_ceil(tile_k);
        PackedB {
            data: vec![0.0; k_blocks * n_panels * NR * tile_k],
            n,
            k,
            tile_k,
            n_panels,
        }
    }

    /// Pack from a transposed-weight layout `bt: [n, k]` (the `dense`
    /// convention: `out[m,n] = Σ_k a[m,k] · bt[n,k]`).
    pub fn pack_bt(bt: &[f32], n: usize, k: usize, tile_k: usize) -> PackedB {
        assert_eq!(bt.len(), n * k, "pack_bt: bt must be [n, k]");
        let _s = nimble_obs::span_detail("gemm.pack_b", nimble_obs::Category::Pool, (n * k) as u64);
        let mut p = Self::with_layout(n, k, tile_k);
        for block in 0..p.k_blocks() {
            let (k0, kc) = (p.block_k0(block), p.block_kc(block));
            for jp_idx in 0..p.n_panels {
                let j0 = jp_idx * NR;
                let cols = NR.min(n - j0);
                let dst = p.panel_range(block, jp_idx);
                let dst = &mut p.data[dst];
                for (c, col) in (j0..j0 + cols).enumerate() {
                    let src = &bt[col * k + k0..col * k + k0 + kc];
                    for (kk, &v) in src.iter().enumerate() {
                        dst[kk * NR + c] = v;
                    }
                }
            }
        }
        p
    }

    /// Pack from a row-major layout `b: [k, n]` (the `matmul` convention:
    /// `out[m,n] = Σ_k a[m,k] · b[k,n]`).
    pub fn pack_kn(b: &[f32], k: usize, n: usize, tile_k: usize) -> PackedB {
        assert_eq!(b.len(), k * n, "pack_kn: b must be [k, n]");
        let _s = nimble_obs::span_detail("gemm.pack_b", nimble_obs::Category::Pool, (n * k) as u64);
        let mut p = Self::with_layout(n, k, tile_k);
        for block in 0..p.k_blocks() {
            let (k0, kc) = (p.block_k0(block), p.block_kc(block));
            for jp_idx in 0..p.n_panels {
                let j0 = jp_idx * NR;
                let cols = NR.min(n - j0);
                let dst = p.panel_range(block, jp_idx);
                let dst = &mut p.data[dst];
                for kk in 0..kc {
                    let src = &b[(k0 + kk) * n + j0..(k0 + kk) * n + j0 + cols];
                    dst[kk * NR..kk * NR + cols].copy_from_slice(src);
                }
            }
        }
        p
    }

    /// Output columns.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Reduction length.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Reduction block size the panels were packed with.
    pub fn tile_k(&self) -> usize {
        self.tile_k
    }

    /// Number of `NR`-column panels per block.
    pub fn n_panels(&self) -> usize {
        self.n_panels
    }

    /// Number of `tile_k` reduction blocks.
    pub fn k_blocks(&self) -> usize {
        self.k.div_ceil(self.tile_k)
    }

    /// First `k` index of a block.
    pub fn block_k0(&self, block: usize) -> usize {
        block * self.tile_k
    }

    /// Reduction length of a block (the last block may be ragged).
    pub fn block_kc(&self, block: usize) -> usize {
        self.tile_k.min(self.k - block * self.tile_k)
    }

    fn panel_range(&self, block: usize, jp_idx: usize) -> std::ops::Range<usize> {
        let kc = self.block_kc(block);
        let start = block * self.n_panels * NR * self.tile_k + jp_idx * NR * kc;
        start..start + NR * kc
    }

    /// The `[kc × NR]` k-major panel for `(block, panel)`.
    #[inline]
    pub fn panel(&self, block: usize, jp_idx: usize) -> &[f32] {
        &self.data[self.panel_range(block, jp_idx)]
    }

    /// Bytes held by the packed buffer (cache accounting).
    pub fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// Pack a `rows`-row strip of `a: [m, k]` into `MR`-row k-major panels with
/// the same `tile_k` blocking as [`PackedB`], zero-padding the row tail.
///
/// Layout mirrors PackedB with rows in place of columns:
/// `buf[block][row_panel][kk][0..MR]`, uniform block stride
/// `m_panels * MR * tile_k`.
fn pack_a_strip(a: &[f32], k: usize, row0: usize, rows: usize, tile_k: usize, buf: &mut Vec<f32>) {
    let tile_k = tile_k.max(1);
    let m_panels = rows.div_ceil(MR);
    let k_blocks = k.div_ceil(tile_k);
    buf.clear();
    buf.resize(k_blocks * m_panels * MR * tile_k, 0.0);
    for block in 0..k_blocks {
        let k0 = block * tile_k;
        let kc = tile_k.min(k - k0);
        for ip_idx in 0..m_panels {
            let r0 = ip_idx * MR;
            let rcount = MR.min(rows - r0);
            let start = block * m_panels * MR * tile_k + ip_idx * MR * kc;
            let dst = &mut buf[start..start + MR * kc];
            for (r, row) in (r0..r0 + rcount).enumerate() {
                let src = &a[(row0 + row) * k + k0..(row0 + row) * k + k0 + kc];
                for (kk, &v) in src.iter().enumerate() {
                    dst[kk * MR + r] = v;
                }
            }
        }
    }
}

/// Server microkernel: 64 independent accumulator lanes, auto-vectorizable.
#[inline(always)]
fn micro_server(ap: &[f32], bp: &[f32], acc: &mut [[f32; NR]; MR]) {
    for (a, b) in ap.chunks_exact(MR).zip(bp.chunks_exact(NR)) {
        for r in 0..MR {
            let ar = a[r];
            for c in 0..NR {
                acc[r][c] += ar * b[c];
            }
        }
    }
}

/// Edge microkernel: strictly in-order scalar `mul_add` chains per output
/// element, modelling the per-core throughput gap of a low-power core.
#[inline(always)]
fn micro_edge(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    for r in 0..MR {
        for c in 0..NR {
            let mut s = acc[r][c];
            for kk in 0..kc {
                s = ap[kk * MR + r].mul_add(bp[kk * NR + c], s);
            }
            acc[r][c] = s;
        }
    }
}

/// Width-generic Server microkernel: `S::LANES` of the `NR` accumulator
/// columns per vector register. Per output element this performs exactly
/// [`micro_server`]'s mul-then-add in ascending-`k` order (never FMA), so
/// results are bitwise identical to the scalar kernel on every backend.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn micro_server_v<S: SimdF32>(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    let nch = NR / S::LANES;
    let mut vacc = [[S::zero(); NR]; MR];
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c] = S::load(&acc[r][c * S::LANES..]);
        }
    }
    // SAFETY: callers pass `ap` of `MR * kc` and `bp` of `NR * kc`
    // (`pack_a_strip` / `PackedB::panel` layouts); unchecked access keeps
    // bounds checks out of the innermost loop.
    for kk in 0..kc {
        let bbase = bp.as_ptr().add(kk * NR);
        let abase = ap.as_ptr().add(kk * MR);
        let mut vb = [S::zero(); NR];
        for c in 0..nch {
            vb[c] = S::load(core::slice::from_raw_parts(
                bbase.add(c * S::LANES),
                S::LANES,
            ));
        }
        for r in 0..MR {
            let a = S::splat(*abase.add(r));
            for c in 0..nch {
                vacc[r][c] = vacc[r][c].add(a.mul(vb[c]));
            }
        }
    }
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c].store(&mut acc[r][c * S::LANES..]);
        }
    }
}

/// Width-generic Edge microkernel: the same ascending-`k` fused `mul_add`
/// chain per element as [`micro_edge`]. Only selected on backends with a
/// true FMA (`S::HAS_FMA`), where hardware FMA and `f32::mul_add` are both
/// correctly rounded and therefore bitwise identical.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn micro_edge_v<S: SimdF32>(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    debug_assert!(S::HAS_FMA);
    let nch = NR / S::LANES;
    let mut vacc = [[S::zero(); NR]; MR];
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c] = S::load(&acc[r][c * S::LANES..]);
        }
    }
    // SAFETY: same layout contract as `micro_server_v`.
    for kk in 0..kc {
        let bbase = bp.as_ptr().add(kk * NR);
        let abase = ap.as_ptr().add(kk * MR);
        let mut vb = [S::zero(); NR];
        for c in 0..nch {
            vb[c] = S::load(core::slice::from_raw_parts(
                bbase.add(c * S::LANES),
                S::LANES,
            ));
        }
        for r in 0..MR {
            let a = S::splat(*abase.add(r));
            for c in 0..nch {
                vacc[r][c] = a.mul_add(vb[c], vacc[r][c]);
            }
        }
    }
    for r in 0..MR {
        for c in 0..nch {
            vacc[r][c].store(&mut acc[r][c * S::LANES..]);
        }
    }
}

/// Per-`tile_k`-block microkernel signature: `(ap, bp, kc, acc)`.
type MicroFn = unsafe fn(&[f32], &[f32], usize, &mut [[f32; NR]; MR]);

/// Panels the cols driver computes per kernel call. Each panel keeps its
/// own accumulator chain, so `CP` panels give the core `CP` independent
/// add chains to overlap (one panel alone is bound by add latency).
const CP: usize = 4;

/// Cols-driver accumulators: one `NR`-wide row per panel.
type ColsAcc = [[f32; NR]; CP];

/// Cols-driver kernel signature: `(arow, pb, jp0, count, acc)` reduces
/// one A row against the `count <= CP` panels starting at `jp0` into
/// `acc[..count]`.
type ColsFn = unsafe fn(&[f32], &PackedB, usize, usize, &mut ColsAcc);

// Scalar cols kernels (extracted verbatim from the original driver loops).
unsafe fn cols_server_scalar(
    arow: &[f32],
    pb: &PackedB,
    jp0: usize,
    count: usize,
    acc: &mut ColsAcc,
) {
    // NR independent acc += a*b lanes per k step, matching micro_server's
    // reduction order.
    for (jp_idx, acc) in (jp0..jp0 + count).zip(acc.iter_mut()) {
        for block in 0..pb.k_blocks() {
            let k0 = pb.block_k0(block);
            let bp = pb.panel(block, jp_idx);
            for (kk, bvals) in bp.chunks_exact(NR).enumerate() {
                let av = arow[k0 + kk];
                for c in 0..NR {
                    acc[c] += av * bvals[c];
                }
            }
        }
    }
}

unsafe fn cols_edge_scalar(
    arow: &[f32],
    pb: &PackedB,
    jp0: usize,
    count: usize,
    acc: &mut ColsAcc,
) {
    // Per-element in-order mul_add chain, matching micro_edge's reduction
    // order.
    for (jp_idx, acc) in (jp0..jp0 + count).zip(acc.iter_mut()) {
        for (c, slot) in acc.iter_mut().enumerate() {
            let mut s = *slot;
            for block in 0..pb.k_blocks() {
                let k0 = pb.block_k0(block);
                let bp = pb.panel(block, jp_idx);
                for (kk, av) in arow[k0..k0 + pb.block_kc(block)].iter().enumerate() {
                    s = av.mul_add(bp[kk * NR + c], s);
                }
            }
            *slot = s;
        }
    }
}

/// Width-generic cols-driver Server kernel: same lane order as
/// [`cols_server_scalar`] (mul-then-add, ascending `k`), vectorized across
/// the `NR` panel columns and interleaved across `P` panels — bitwise
/// identical on every backend.
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn cols_server_p<S: SimdF32, const P: usize>(
    arow: &[f32],
    pb: &PackedB,
    jp0: usize,
    acc: &mut ColsAcc,
) {
    let nch = NR / S::LANES;
    let mut vacc = [[S::zero(); NR]; P];
    for p in 0..P {
        for c in 0..nch {
            vacc[p][c] = S::load(&acc[p][c * S::LANES..]);
        }
    }
    for block in 0..pb.k_blocks() {
        let k0 = pb.block_k0(block);
        let bps: [&[f32]; P] = core::array::from_fn(|p| pb.panel(block, jp0 + p));
        // SAFETY: `arow` spans the full `k` range of the packed layout and
        // each panel holds `NR * block_kc` values.
        for kk in 0..pb.block_kc(block) {
            let av = S::splat(*arow.get_unchecked(k0 + kk));
            for p in 0..P {
                let bvals = bps[p].as_ptr().add(kk * NR);
                for c in 0..nch {
                    let b = S::load(core::slice::from_raw_parts(
                        bvals.add(c * S::LANES),
                        S::LANES,
                    ));
                    vacc[p][c] = vacc[p][c].add(av.mul(b));
                }
            }
        }
    }
    for p in 0..P {
        for c in 0..nch {
            vacc[p][c].store(&mut acc[p][c * S::LANES..]);
        }
    }
}

/// [`cols_server_p`] for a runtime panel count.
#[inline(always)]
unsafe fn cols_server_v<S: SimdF32>(
    arow: &[f32],
    pb: &PackedB,
    jp0: usize,
    count: usize,
    acc: &mut ColsAcc,
) {
    match count {
        4 => cols_server_p::<S, 4>(arow, pb, jp0, acc),
        3 => cols_server_p::<S, 3>(arow, pb, jp0, acc),
        2 => cols_server_p::<S, 2>(arow, pb, jp0, acc),
        _ => cols_server_p::<S, 1>(arow, pb, jp0, acc),
    }
}

/// Width-generic cols-driver Edge kernel: [`cols_edge_scalar`]'s fused
/// `mul_add` chain per element, one panel at a time (the Edge profile
/// models an in-order core); FMA backends only (see [`select_micro`]).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
unsafe fn cols_edge_v<S: SimdF32>(
    arow: &[f32],
    pb: &PackedB,
    jp0: usize,
    count: usize,
    acc: &mut ColsAcc,
) {
    debug_assert!(S::HAS_FMA);
    let nch = NR / S::LANES;
    for (jp_idx, acc) in (jp0..jp0 + count).zip(acc.iter_mut()) {
        let mut vacc = [S::zero(); NR];
        for c in 0..nch {
            vacc[c] = S::load(&acc[c * S::LANES..]);
        }
        for block in 0..pb.k_blocks() {
            let k0 = pb.block_k0(block);
            let bp = pb.panel(block, jp_idx);
            // SAFETY: `arow` spans the full `k` range of the packed layout.
            for (kk, bvals) in bp.chunks_exact(NR).enumerate() {
                let av = S::splat(*arow.get_unchecked(k0 + kk));
                for c in 0..nch {
                    vacc[c] = av.mul_add(S::load(&bvals[c * S::LANES..]), vacc[c]);
                }
            }
        }
        for c in 0..nch {
            vacc[c].store(&mut acc[c * S::LANES..]);
        }
    }
}

/// Pick the cols-driver kernel for an (ISA, profile) pair; same FMA gating
/// as [`select_micro`].
fn select_cols(isa: Isa, edge: bool) -> ColsFn {
    match (isa, edge) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Sse2, false) => micro_x86::cols_server_sse2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => micro_x86::cols_server_avx2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => micro_x86::cols_edge_avx2,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, false) => micro_neon::cols_server_neon,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, true) => micro_neon::cols_edge_neon,
        (_, false) => cols_server_scalar,
        (_, true) => cols_edge_scalar,
    }
}

// Scalar micros behind the shared signature (trivially safe bodies).
unsafe fn micro_server_scalar(ap: &[f32], bp: &[f32], _kc: usize, acc: &mut [[f32; NR]; MR]) {
    micro_server(ap, bp, acc)
}
unsafe fn micro_edge_scalar(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
    micro_edge(ap, bp, kc, acc)
}

#[cfg(target_arch = "x86_64")]
mod micro_x86 {
    use super::*;
    use nimble_simd::x86::{F32x4, F32x8};

    #[target_feature(enable = "sse2")]
    pub unsafe fn server_sse2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_server_v::<F32x4>(ap, bp, kc, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn server_avx2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_server_v::<F32x8>(ap, bp, kc, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn edge_avx2(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_edge_v::<F32x8>(ap, bp, kc, acc)
    }
    #[target_feature(enable = "sse2")]
    pub unsafe fn cols_server_sse2(
        arow: &[f32],
        pb: &PackedB,
        jp0: usize,
        count: usize,
        acc: &mut ColsAcc,
    ) {
        cols_server_v::<F32x4>(arow, pb, jp0, count, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn cols_server_avx2(
        arow: &[f32],
        pb: &PackedB,
        jp0: usize,
        count: usize,
        acc: &mut ColsAcc,
    ) {
        cols_server_v::<F32x8>(arow, pb, jp0, count, acc)
    }
    #[target_feature(enable = "avx2", enable = "fma")]
    pub unsafe fn cols_edge_avx2(
        arow: &[f32],
        pb: &PackedB,
        jp0: usize,
        count: usize,
        acc: &mut ColsAcc,
    ) {
        cols_edge_v::<F32x8>(arow, pb, jp0, count, acc)
    }
}

#[cfg(target_arch = "aarch64")]
mod micro_neon {
    use super::*;
    use nimble_simd::neon::F32x4n;

    pub unsafe fn server_neon(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_server_v::<F32x4n>(ap, bp, kc, acc)
    }
    pub unsafe fn edge_neon(ap: &[f32], bp: &[f32], kc: usize, acc: &mut [[f32; NR]; MR]) {
        micro_edge_v::<F32x4n>(ap, bp, kc, acc)
    }
    pub unsafe fn cols_server_neon(
        arow: &[f32],
        pb: &PackedB,
        jp0: usize,
        count: usize,
        acc: &mut ColsAcc,
    ) {
        cols_server_v::<F32x4n>(arow, pb, jp0, count, acc)
    }
    pub unsafe fn cols_edge_neon(
        arow: &[f32],
        pb: &PackedB,
        jp0: usize,
        count: usize,
        acc: &mut ColsAcc,
    ) {
        cols_edge_v::<F32x4n>(arow, pb, jp0, count, acc)
    }
}

/// Pick the block microkernel for an (ISA, profile) pair. The Edge profile
/// needs a true fused multiply-add to match `f32::mul_add` bitwise, so
/// SSE2 (no FMA) falls back to the scalar Edge chain.
fn select_micro(isa: Isa, edge: bool) -> MicroFn {
    match (isa, edge) {
        #[cfg(target_arch = "x86_64")]
        (Isa::Sse2, false) => micro_x86::server_sse2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => micro_x86::server_avx2,
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => micro_x86::edge_avx2,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, false) => micro_neon::server_neon,
        #[cfg(target_arch = "aarch64")]
        (Isa::Neon, true) => micro_neon::edge_neon,
        (_, false) => micro_server_scalar,
        (_, true) => micro_edge_scalar,
    }
}

/// Validate a caller-supplied ISA against the CPU (scalar fallback).
fn sanitize_isa(isa: Isa) -> Isa {
    if isa.is_available() {
        isa
    } else {
        Isa::Scalar
    }
}

/// Write an accumulator tile into `out`, applying the epilogue through the
/// shared [`vecmath::epilogue_row`] primitive, masking the ragged
/// row/column tails.
#[inline]
#[allow(clippy::too_many_arguments)]
fn write_tile(
    isa: Isa,
    acc: &[[f32; NR]; MR],
    out: &mut [f32],
    n: usize,
    row0: usize,
    col0: usize,
    rows: usize,
    cols: usize,
    ep: &Epilogue,
) {
    for r in 0..rows {
        let orow = &mut out[(row0 + r) * n + col0..(row0 + r) * n + col0 + cols];
        orow.copy_from_slice(&acc[r][..cols]);
        let bias = ep.bias.map(|b| &b[col0..col0 + cols]);
        vecmath::epilogue_row(isa, orow, bias, ep.unary);
    }
}

/// GEMM over a pre-packed right-hand side, with the driver picked by shape:
/// `out[m, n] = epilogue(Σ_k a[m, k] · B[k, n])`.
///
/// Outputs shorter than one register tile (`m < MR`, e.g. a single request
/// through a row-dynamic model) take [`gemm_packed_cols`], which computes
/// exactly `m` rows from A in place; taller outputs take the row-strip
/// [`gemm_packed`]. The two drivers are bitwise identical, so the choice
/// changes only speed. Every kernel that owns a GEMM calls this; only the
/// shape specializer, which races the drivers on measured shapes, calls
/// them by name.
pub fn gemm(
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    if m < MR {
        gemm_packed_cols(profile, a, pb, m, out, sched, ep)
    } else {
        gemm_packed(profile, a, pb, m, out, sched, ep)
    }
}

/// Blocked GEMM over a pre-packed right-hand side:
/// `out[m, n] = epilogue(Σ_k a[m, k] · B[k, n])`.
///
/// `a` is row-major `[m, k]` with `k == pb.k()`; `out` is `[m, pb.n()]`.
/// `sched.tile_k` must match `pb.tile_k()` (the panel layout bakes it in);
/// `tile_m`/`tile_n` are rounded up to `MR`/`NR` multiples. Output rows are
/// partitioned into `tile_m` strips across the worker pool; each strip packs
/// its A panel locally, so strips never share mutable state and results are
/// deterministic regardless of thread interleaving.
pub fn gemm_packed(
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    gemm_packed_with_isa(nimble_simd::active(), profile, a, pb, m, out, sched, ep)
}

/// [`gemm_packed`] pinned to an explicit ISA (bitwise identical on every
/// backend). Test/bench entry point — avoids the process-global ISA state
/// so parallel tests can exercise backends independently.
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_with_isa(
    isa: Isa,
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    let isa = sanitize_isa(isa);
    let (n, k) = (pb.n(), pb.k());
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    assert_eq!(
        sched.tile_k.max(1),
        pb.tile_k(),
        "gemm_packed: schedule tile_k must match the packed layout"
    );
    if m == 0 || n == 0 {
        return;
    }
    let tile_m = sched.tile_m.max(1).div_ceil(MR) * MR;
    let tile_n = sched.tile_n.max(1).div_ceil(NR) * NR;
    let tile_k = pb.tile_k();
    let k_blocks = pb.k_blocks();
    let edge = matches!(profile, ExecProfile::Edge);
    let micro = select_micro(isa, edge);
    let _s = nimble_obs::span_full("gemm.compute", nimble_obs::Category::Pool, (m * n) as u64);
    // One chunk per tile_m output strip; flop estimate 2k per element.
    parallel_chunks_mut(
        profile,
        out,
        tile_m * n,
        2 * k.max(1),
        |strip, out_strip| {
            let row0 = strip * tile_m;
            let rows = out_strip.len() / n;
            let mut apack = Vec::new();
            {
                let _p = nimble_obs::span_detail(
                    "gemm.pack_a",
                    nimble_obs::Category::Pool,
                    strip as u64,
                );
                pack_a_strip(a, k, row0, rows, tile_k, &mut apack);
            }
            let _mk = nimble_obs::span_detail(
                "gemm.microkernel",
                nimble_obs::Category::Pool,
                strip as u64,
            );
            let m_panels = rows.div_ceil(MR);
            let a_block_stride = m_panels * MR * tile_k;
            for jc in (0..n).step_by(tile_n) {
                let jc_end = (jc + tile_n).min(n);
                let mut jp_idx = jc / NR;
                let mut j0 = jc;
                while j0 < jc_end {
                    let cols = NR.min(n - j0);
                    for ip_idx in 0..m_panels {
                        let r0 = ip_idx * MR;
                        let rcount = MR.min(rows - r0);
                        let mut acc = [[0.0f32; NR]; MR];
                        // The block loop lives *inside* the tile: acc stays
                        // register-resident across all of k, making results
                        // bitwise-independent of the schedule.
                        for block in 0..k_blocks {
                            let kc = pb.block_kc(block);
                            let ap = &apack[block * a_block_stride + ip_idx * MR * kc..][..MR * kc];
                            let bp = pb.panel(block, jp_idx);
                            // SAFETY: `micro` was selected for an ISA that
                            // `sanitize_isa` verified is available.
                            unsafe { micro(ap, bp, kc, &mut acc) };
                        }
                        write_tile(isa, &acc, out_strip, n, r0, j0, rcount, cols, ep);
                    }
                    jp_idx += 1;
                    j0 += NR;
                }
            }
        },
    );
}

/// Short-`m` driver: padding-free rows, `NR`-column panels split across
/// the pool.
///
/// [`gemm_packed`] is built for tall outputs: it parallelizes over
/// `tile_m` row strips and always computes full `MR x NR` register
/// tiles, so an `m = 1` dispatch (a single request through a
/// row-dynamic model) runs on one core *and* spends `MR - 1` of every
/// `MR` accumulator lanes on zero-padding rows. This driver computes
/// exactly `m` rows — A is read in place, never packed or padded — and
/// parallelizes over the packed-B column panels instead, so short-row
/// shapes neither waste lanes nor serialize. The Server kernel reduces
/// `CP` panels per pass, so one row still keeps `CP` independent
/// accumulator chains in flight.
///
/// Each output element is still reduced in strictly increasing `k`
/// order with a single accumulator per element (the Server loop mirrors
/// `micro_server`'s lane order, the Edge loop `micro_edge`'s `mul_add`
/// chain), so outputs are bitwise identical to [`gemm_packed`] under
/// any schedule. The shape specializer exploits exactly this: it races
/// the two drivers on the observed shape and installs the faster one
/// behind its bitwise install gate.
pub fn gemm_packed_cols(
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    gemm_packed_cols_with_isa(nimble_simd::active(), profile, a, pb, m, out, sched, ep)
}

/// [`gemm_packed_cols`] pinned to an explicit ISA; see
/// [`gemm_packed_with_isa`].
#[allow(clippy::too_many_arguments)]
pub fn gemm_packed_cols_with_isa(
    isa: Isa,
    profile: ExecProfile,
    a: &[f32],
    pb: &PackedB,
    m: usize,
    out: &mut [f32],
    sched: super::matmul::MatmulSchedule,
    ep: &Epilogue,
) {
    let isa = sanitize_isa(isa);
    let (n, k) = (pb.n(), pb.k());
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(out.len(), m * n);
    assert_eq!(
        sched.tile_k.max(1),
        pb.tile_k(),
        "gemm_packed_cols: schedule tile_k must match the packed layout"
    );
    if m == 0 || n == 0 {
        return;
    }
    let edge = matches!(profile, ExecProfile::Edge);
    let cols_fn = select_cols(isa, edge);
    let _s = nimble_obs::span_full("gemm.compute", nimble_obs::Category::Pool, (m * n) as u64);

    struct SendPtr(*mut f32);
    unsafe impl Send for SendPtr {}
    unsafe impl Sync for SendPtr {}
    impl SendPtr {
        fn get(&self) -> *mut f32 {
            self.0
        }
    }
    let base = SendPtr(out.as_mut_ptr());
    // One work item per NR-column panel; flop estimate 2k per element.
    parallel_for(
        profile,
        pb.n_panels(),
        2 * k.max(1) * m * NR,
        move |p0, p1| {
            let _mk =
                nimble_obs::span_detail("gemm.microkernel", nimble_obs::Category::Pool, p0 as u64);
            for jp0 in (p0..p1).step_by(CP) {
                let count = CP.min(p1 - jp0);
                let j0 = jp0 * NR;
                let cols = (count * NR).min(n - j0);
                for i in 0..m {
                    let arow = &a[i * k..(i + 1) * k];
                    let mut acc: ColsAcc = [[0.0; NR]; CP];
                    // SAFETY: `cols_fn` was selected for an ISA that
                    // `sanitize_isa` verified is available.
                    unsafe { cols_fn(arow, pb, jp0, count, &mut acc) };
                    // SAFETY: panel index ranges from parallel_for are
                    // disjoint, so each `[j0, j0+cols)` column window is
                    // written by exactly one task, and `out` outlives the
                    // call because parallel_for blocks until every chunk
                    // completes.
                    let orow =
                        unsafe { std::slice::from_raw_parts_mut(base.get().add(i * n + j0), cols) };
                    orow.copy_from_slice(&acc.as_flattened()[..cols]);
                    let bias = ep.bias.map(|b| &b[j0..j0 + cols]);
                    vecmath::epilogue_row(isa, orow, bias, ep.unary);
                }
            }
        },
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::matmul::MatmulSchedule;

    fn naive_bt(a: &[f32], bt: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0f32;
                for p in 0..k {
                    acc += a[i * k + p] * bt[j * k + p];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 17) as f32 - 8.0) * scale).collect()
    }

    #[test]
    fn packed_matches_naive_ragged() {
        for &(m, n, k) in &[(1, 1, 1), (3, 5, 7), (13, 9, 21), (8, 8, 8), (17, 33, 65)] {
            let a = seq(m * k, 0.25);
            let bt = seq(n * k, 0.5);
            let want = naive_bt(&a, &bt, m, n, k);
            for &tk in &[1usize, 4, 64] {
                let pb = PackedB::pack_bt(&bt, n, k, tk);
                let mut out = vec![0.0f32; m * n];
                let sched = MatmulSchedule {
                    tile_m: 16,
                    tile_n: 16,
                    tile_k: tk,
                };
                gemm_packed(
                    ExecProfile::Server,
                    &a,
                    &pb,
                    m,
                    &mut out,
                    sched,
                    &Epilogue::NONE,
                );
                for (g, w) in out.iter().zip(want.iter()) {
                    assert!((g - w).abs() < 1e-4, "m={m} n={n} k={k} tk={tk}");
                }
            }
        }
    }

    #[test]
    fn cols_driver_bitwise_matches_rows_driver() {
        for &(m, n, k) in &[
            (1, 1, 1),
            (1, 513, 512),
            (3, 65, 7),
            (16, 512, 129),
            (24, 8, 8),
        ] {
            let a = seq(m * k, 0.25);
            let bt = seq(n * k, 0.5);
            let bias = seq(n, 0.1);
            for &tk in &[1usize, 64, 256] {
                let pb = PackedB::pack_bt(&bt, n, k, tk);
                let sched = MatmulSchedule {
                    tile_m: 32,
                    tile_n: 64,
                    tile_k: tk,
                };
                for profile in [ExecProfile::Server, ExecProfile::Edge] {
                    let ep = Epilogue {
                        bias: Some(&bias),
                        unary: &[UnaryOp::Relu],
                    };
                    let mut rows = vec![0.0f32; m * n];
                    gemm_packed(profile, &a, &pb, m, &mut rows, sched, &ep);
                    let mut cols = vec![0.0f32; m * n];
                    gemm_packed_cols(profile, &a, &pb, m, &mut cols, sched, &ep);
                    for (i, (r, c)) in rows.iter().zip(&cols).enumerate() {
                        assert_eq!(
                            r.to_bits(),
                            c.to_bits(),
                            "m={m} n={n} k={k} tk={tk} {profile:?} elem {i}: {r} vs {c}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn k_zero_applies_epilogue_only() {
        let (m, n) = (3, 5);
        let a: Vec<f32> = vec![];
        let pb = PackedB::pack_bt(&[], n, 0, 16);
        let bias: Vec<f32> = (0..n).map(|j| j as f32).collect();
        let mut out = vec![7.0f32; m * n];
        let ep = Epilogue {
            bias: Some(&bias),
            unary: &[UnaryOp::Custom(|v| v + 1.0)],
        };
        gemm_packed(
            ExecProfile::Server,
            &a,
            &pb,
            m,
            &mut out,
            MatmulSchedule {
                tile_k: 16,
                ..MatmulSchedule::default()
            },
            &ep,
        );
        for i in 0..m {
            for j in 0..n {
                assert_eq!(out[i * n + j], j as f32 + 1.0);
            }
        }
    }

    #[test]
    fn schedules_bitwise_identical() {
        let (m, n, k) = (29, 43, 51);
        let a = seq(m * k, 0.37);
        let bt = seq(n * k, 0.19);
        let base = {
            let pb = PackedB::pack_bt(&bt, n, k, 64);
            let mut out = vec![0.0f32; m * n];
            gemm_packed(
                ExecProfile::Server,
                &a,
                &pb,
                m,
                &mut out,
                MatmulSchedule {
                    tile_m: 64,
                    tile_n: 64,
                    tile_k: 64,
                },
                &Epilogue::NONE,
            );
            out
        };
        for &(tm, tn, tk) in &[(8, 8, 1), (16, 32, 7), (8, 64, 16), (128, 128, 256)] {
            let pb = PackedB::pack_bt(&bt, n, k, tk);
            let mut out = vec![0.0f32; m * n];
            gemm_packed(
                ExecProfile::Server,
                &a,
                &pb,
                m,
                &mut out,
                MatmulSchedule {
                    tile_m: tm,
                    tile_n: tn,
                    tile_k: tk,
                },
                &Epilogue::NONE,
            );
            assert_eq!(
                base.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "schedule ({tm},{tn},{tk}) changed bits"
            );
        }
    }

    #[test]
    fn pack_kn_matches_pack_bt() {
        let (n, k) = (11, 13);
        let bt = seq(n * k, 0.3);
        // b[k][n] = bt[n][k]
        let mut b = vec![0.0f32; k * n];
        for j in 0..n {
            for p in 0..k {
                b[p * n + j] = bt[j * k + p];
            }
        }
        let p1 = PackedB::pack_bt(&bt, n, k, 5);
        let p2 = PackedB::pack_kn(&b, k, n, 5);
        assert_eq!(p1.data, p2.data);
    }
}
