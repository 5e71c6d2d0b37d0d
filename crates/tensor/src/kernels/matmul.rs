//! Dense / matmul kernels.
//!
//! These are the compute-dominant operators of every model in the paper's
//! evaluation ("the dense operators contribute to more than 90% of the
//! overall latency in BERT", Section 6.2). The implementation is a packed
//! blocked GEMM (see [`super::gemm`]): the right-hand side is repacked into
//! `NR`-column cache-resident panels (k-major, `tile_k`-blocked), each
//! `tile_m` strip of the left-hand side is repacked into `MR`-row panels,
//! and an `8×8` register-accumulator microkernel walks both packed streams.
//! Outputs of fewer than 8 rows skip the A packing and run the short-row
//! driver instead ([`super::gemm::gemm`] picks).
//! [`MatmulSchedule`] picks the `tile_m`/`tile_n`/`tile_k` blocking, which
//! changes measured latency (cache residency and panel-walk overhead) but —
//! by construction — never the results: accumulators stay register-resident
//! across the entire reduction, so every schedule reduces each output
//! element in the same `k` order.
//!
//! Weights (immutable constants) are packed once per process via
//! [`crate::prepack`] and shared across VM sessions and symbolic residue
//! variants; `nimble-codegen` reuses the same packed panels when it builds
//! residue-specialized symbolic kernels.

use super::gemm::{gemm, Epilogue, PackedB, UnaryOp};
use crate::pool::{default_profile, ExecProfile};
use crate::{dest, Result, Tensor, TensorError};

/// Loop-tiling schedule for dense kernels — the analog of a TVM schedule
/// configuration explored by the template tuner (Section 4.5).
///
/// `tile_m`/`tile_n` are rounded up to the microkernel register-tile size
/// (`8`) by the GEMM driver; `tile_k` is the reduction block length baked
/// into the packed-panel layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MatmulSchedule {
    /// Row-block size (output rows per parallel strip).
    pub tile_m: usize,
    /// Column-block size (output cols per cache block).
    pub tile_n: usize,
    /// Reduction-block size (panel depth).
    pub tile_k: usize,
}

impl Default for MatmulSchedule {
    fn default() -> Self {
        MatmulSchedule {
            tile_m: 32,
            tile_n: 64,
            tile_k: 64,
        }
    }
}

impl MatmulSchedule {
    /// Schedule adapted to an execution profile's cache size.
    pub fn for_profile(profile: ExecProfile) -> Self {
        match profile {
            ExecProfile::Server => MatmulSchedule::default(),
            ExecProfile::Edge => MatmulSchedule {
                tile_m: 8,
                tile_n: profile.tile(),
                tile_k: profile.tile(),
            },
        }
    }

    /// Clamp tile sizes to what the GEMM driver actually uses: `tile_m` and
    /// `tile_n` round up to microkernel multiples, `tile_k` to at least 1.
    pub fn sanitized(self) -> Self {
        MatmulSchedule {
            tile_m: self.tile_m.max(1).div_ceil(super::gemm::MR) * super::gemm::MR,
            tile_n: self.tile_n.max(1).div_ceil(super::gemm::NR) * super::gemm::NR,
            tile_k: self.tile_k.max(1),
        }
    }
}

/// Transpose a row-major `[r, c]` buffer into `[c, r]`.
#[cfg(test)]
pub(crate) fn transpose_buf(src: &[f32], r: usize, c: usize) -> Vec<f32> {
    let mut dst = vec![0.0f32; r * c];
    for i in 0..r {
        for j in 0..c {
            dst[j * r + i] = src[i * c + j];
        }
    }
    dst
}

/// Fully-connected layer: `y = x · Wᵀ (+ bias)`.
///
/// `x` is `[m, k]` (or `[…, k]`, flattened over leading dims), `weight` is
/// `[n, k]` — weights stored transposed exactly as deep-learning frameworks
/// and the paper's dense operators do — and `bias` is `[n]`.
///
/// # Errors
/// Fails on rank/shape mismatches or non-f32 inputs.
pub fn dense(x: &Tensor, weight: &Tensor, bias: Option<&Tensor>) -> Result<Tensor> {
    dense_with_epilogue(x, weight, bias, &[])
}

/// [`dense`] with a fused trailing unary chain applied in the GEMM
/// write-out pass (single output sweep): `y = unary(... (x · Wᵀ + bias))`.
///
/// This is the kernel the fusion compiler targets for
/// `dense → activation …` chains.
///
/// # Errors
/// Fails on rank/shape mismatches or non-f32 inputs.
pub fn dense_with_epilogue(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    unary: &[UnaryOp],
) -> Result<Tensor> {
    dest::fresh(|outs| dense_with_epilogue_into(x, weight, bias, unary, outs))
}

/// [`dense_with_epilogue`] writing output 0 of `outs` (see
/// [`crate::dest`]); the GEMM's write-out pass overwrites every element.
///
/// # Errors
/// Fails on rank/shape mismatches, non-f32 inputs, or a planned output of
/// the wrong dims or dtype.
pub fn dense_with_epilogue_into(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    unary: &[UnaryOp],
    outs: &mut Vec<Tensor>,
) -> Result<()> {
    if weight.rank() != 2 {
        return Err(TensorError::invalid("dense: weight must be rank 2"));
    }
    if x.rank() == 0 {
        return Err(TensorError::invalid("dense: x must have rank >= 1"));
    }
    let lead = &x.dims()[..x.rank() - 1];
    let n = weight.dims()[0];
    let out = dest::with_dims(lead, n, |dims| dest::slot_f32("dense", outs, 0, dims))?;
    dense_write(x, weight, bias, unary, out)
}

/// The computation behind [`dense_with_epilogue`], written into `out`, a
/// row-major `[m, n]` buffer whose every element is overwritten (callers
/// that view the result with extra leading 1s, like the fused sweep, pass
/// their own output's elements).
///
/// # Errors
/// Fails on rank/shape mismatches, non-f32 inputs, or an `out` that does
/// not hold `m * n` elements.
pub fn dense_write(
    x: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    unary: &[UnaryOp],
    out: &mut [f32],
) -> Result<()> {
    if weight.rank() != 2 {
        return Err(TensorError::invalid("dense: weight must be rank 2"));
    }
    if x.rank() == 0 {
        return Err(TensorError::invalid("dense: x must have rank >= 1"));
    }
    let k = *x.dims().last().expect("rank >= 1");
    let (n, wk) = (weight.dims()[0], weight.dims()[1]);
    if k != wk {
        return Err(TensorError::shape("dense", x.dims(), weight.dims()));
    }
    let m: usize = x.dims()[..x.rank() - 1].iter().product();
    if out.len() != m * n {
        return Err(TensorError::LengthMismatch {
            len: out.len(),
            expected: m * n,
        });
    }
    let xa = x.as_f32()?;
    let bb = match bias {
        Some(b) => {
            if b.dims() != [n] {
                return Err(TensorError::shape("dense bias", &[n], b.dims()));
            }
            Some(b.as_f32()?)
        }
        None => None,
    };
    let profile = default_profile();
    let sched = MatmulSchedule::for_profile(profile).sanitized();
    let pb = crate::prepack::get_or_pack(weight, n, k, sched.tile_k)?;
    let ep = Epilogue { bias: bb, unary };
    gemm(profile, xa, &pb, m, out, sched, &ep);
    Ok(())
}

/// Standard 2-D matrix multiply `[m,k] × [k,n] → [m,n]`.
///
/// The right-hand side is packed directly from its `[k, n]` layout (no
/// intermediate transpose buffer).
///
/// # Errors
/// Fails on rank/shape mismatches or non-f32 inputs.
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    dest::fresh(|outs| matmul_into(a, b, outs))
}

/// [`matmul`] writing output 0 of `outs` (see [`crate::dest`]).
///
/// # Errors
/// As [`matmul`], plus a planned output of the wrong dims or dtype.
pub fn matmul_into(a: &Tensor, b: &Tensor, outs: &mut Vec<Tensor>) -> Result<()> {
    if a.rank() != 2 || b.rank() != 2 {
        return Err(TensorError::invalid("matmul: both inputs must be rank 2"));
    }
    let (m, k) = (a.dims()[0], a.dims()[1]);
    let (k2, n) = (b.dims()[0], b.dims()[1]);
    if k != k2 {
        return Err(TensorError::shape("matmul", a.dims(), b.dims()));
    }
    let profile = default_profile();
    let sched = MatmulSchedule::for_profile(profile).sanitized();
    let pb = PackedB::pack_kn(b.as_f32()?, k, n, sched.tile_k);
    let aa = a.as_f32()?;
    let out = dest::slot_f32("matmul", outs, 0, &[m, n])?;
    gemm(profile, aa, &pb, m, out, sched, &Epilogue::NONE);
    Ok(())
}

/// Batched matmul `[b,m,k] × [b,k,n] → [b,m,n]` (used by attention); the
/// right-hand batch may be broadcast (`b == 1`).
///
/// B is packed once per *distinct* batch slice: the broadcast case and the
/// common attention case where every batch shares one operand pack a single
/// panel set for the whole call instead of re-laying B out per batch.
///
/// # Errors
/// Fails on rank/shape mismatches or non-f32 inputs.
pub fn batch_matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    dest::fresh(|outs| batch_matmul_into(a, b, outs))
}

/// [`batch_matmul`] writing output 0 of `outs` (see [`crate::dest`]).
///
/// # Errors
/// As [`batch_matmul`], plus a planned output of the wrong dims or dtype.
pub fn batch_matmul_into(a: &Tensor, b: &Tensor, outs: &mut Vec<Tensor>) -> Result<()> {
    if a.rank() != 3 || b.rank() != 3 {
        return Err(TensorError::invalid(
            "batch_matmul: both inputs must be rank 3",
        ));
    }
    let (ba, m, k) = (a.dims()[0], a.dims()[1], a.dims()[2]);
    let (bb, k2, n) = (b.dims()[0], b.dims()[1], b.dims()[2]);
    if (ba != bb && bb != 1) || k != k2 {
        return Err(TensorError::shape("batch_matmul", a.dims(), b.dims()));
    }
    let aa = a.as_f32()?;
    let bbuf = b.as_f32()?;
    let out = dest::slot_f32("batch_matmul", outs, 0, &[ba, m, n])?;
    let profile = default_profile();
    let sched = MatmulSchedule::for_profile(profile).sanitized();
    let pb0 = PackedB::pack_kn(&bbuf[..k * n], k, n, sched.tile_k);
    let slice0 = &bbuf[..k * n];
    for batch in 0..ba {
        let out_slice = &mut out[batch * m * n..(batch + 1) * m * n];
        let a_slice = &aa[batch * m * k..(batch + 1) * m * k];
        let fresh;
        let pb = if bb == 1 || batch == 0 {
            &pb0
        } else {
            let bslice = &bbuf[batch * k * n..(batch + 1) * k * n];
            if bslice == slice0 {
                // Same operand replicated across batches: reuse the pack.
                &pb0
            } else {
                fresh = PackedB::pack_kn(bslice, k, n, sched.tile_k);
                &fresh
            }
        };
        gemm(profile, a_slice, pb, m, out_slice, sched, &Epilogue::NONE);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn naive_matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
        let mut out = vec![0.0; m * n];
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for p in 0..k {
                    acc += a[i * k + p] * b[p * n + j];
                }
                out[i * n + j] = acc;
            }
        }
        out
    }

    #[test]
    fn matmul_small() {
        let a = Tensor::from_vec_f32(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        let b = Tensor::from_vec_f32(vec![5., 6., 7., 8.], &[2, 2]).unwrap();
        let c = matmul(&a, &b).unwrap();
        assert_eq!(c.as_f32().unwrap(), &[19., 22., 43., 50.]);
    }

    #[test]
    fn matmul_identity() {
        let a = Tensor::from_vec_f32((0..9).map(|x| x as f32).collect(), &[3, 3]).unwrap();
        let eye = Tensor::from_vec_f32(vec![1., 0., 0., 0., 1., 0., 0., 0., 1.], &[3, 3]).unwrap();
        assert_eq!(matmul(&a, &eye).unwrap(), a);
    }

    #[test]
    fn matmul_shape_errors() {
        let a = Tensor::zeros(crate::DType::F32, &[2, 3]);
        let b = Tensor::zeros(crate::DType::F32, &[4, 2]);
        assert!(matmul(&a, &b).is_err());
        let v = Tensor::zeros(crate::DType::F32, &[3]);
        assert!(matmul(&a, &v).is_err());
    }

    #[test]
    fn dense_with_bias() {
        // x: [1,3], W: [2,3] (stored transposed), bias: [2]
        let x = Tensor::from_vec_f32(vec![1., 2., 3.], &[1, 3]).unwrap();
        let w = Tensor::from_vec_f32(vec![1., 0., 0., 0., 1., 0.], &[2, 3]).unwrap();
        let b = Tensor::from_vec_f32(vec![10., 20.], &[2]).unwrap();
        let y = dense(&x, &w, Some(&b)).unwrap();
        assert_eq!(y.dims(), &[1, 2]);
        assert_eq!(y.as_f32().unwrap(), &[11., 22.]);
    }

    #[test]
    fn dense_flattens_leading_dims() {
        let x = Tensor::ones_f32(&[2, 5, 3]);
        let w = Tensor::ones_f32(&[4, 3]);
        let y = dense(&x, &w, None).unwrap();
        assert_eq!(y.dims(), &[2, 5, 4]);
        assert!(y.as_f32().unwrap().iter().all(|&v| (v - 3.0).abs() < 1e-6));
    }

    #[test]
    fn dense_epilogue_matches_separate_ops() {
        let x = Tensor::from_vec_f32((0..24).map(|i| (i as f32 - 11.0) * 0.3).collect(), &[4, 6])
            .unwrap();
        let w = Tensor::from_vec_f32((0..30).map(|i| (i as f32 - 14.0) * 0.1).collect(), &[5, 6])
            .unwrap();
        let b = Tensor::from_vec_f32((0..5).map(|i| i as f32 * 0.5).collect(), &[5]).unwrap();
        fn act(v: f32) -> f32 {
            v.tanh()
        }
        let fused = dense_with_epilogue(&x, &w, Some(&b), &[UnaryOp::Custom(act)]).unwrap();
        let plain = dense(&x, &w, Some(&b)).unwrap();
        let want: Vec<f32> = plain.as_f32().unwrap().iter().map(|&v| act(v)).collect();
        // Bitwise: the epilogue applies the same fn to the same dense bits.
        assert_eq!(
            fused
                .as_f32()
                .unwrap()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>(),
            want.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn batch_matmul_matches_per_batch() {
        let a = Tensor::from_vec_f32((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let b =
            Tensor::from_vec_f32((0..12).map(|x| x as f32 * 0.5).collect(), &[2, 3, 2]).unwrap();
        let c = batch_matmul(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 2, 2]);
        for batch in 0..2 {
            let expect = naive_matmul(
                &a.as_f32().unwrap()[batch * 6..(batch + 1) * 6],
                &b.as_f32().unwrap()[batch * 6..(batch + 1) * 6],
                2,
                3,
                2,
            );
            assert_eq!(
                &c.as_f32().unwrap()[batch * 4..(batch + 1) * 4],
                &expect[..]
            );
        }
    }

    #[test]
    fn batch_matmul_broadcasts_rhs() {
        let a = Tensor::from_vec_f32((0..12).map(|x| x as f32).collect(), &[2, 2, 3]).unwrap();
        let b1 =
            Tensor::from_vec_f32((0..6).map(|x| x as f32 * 0.5).collect(), &[1, 3, 2]).unwrap();
        let c = batch_matmul(&a, &b1).unwrap();
        assert_eq!(c.dims(), &[2, 2, 2]);
        // Must equal replicating b along the batch dim.
        let b2 = Tensor::from_vec_f32(
            b1.as_f32()
                .unwrap()
                .iter()
                .chain(b1.as_f32().unwrap())
                .copied()
                .collect(),
            &[2, 3, 2],
        )
        .unwrap();
        assert_eq!(c, batch_matmul(&a, &b2).unwrap());
    }

    #[test]
    fn batch_matmul_repeated_rhs_reuses_pack() {
        // Equal slices across batches must give identical per-batch results.
        let a =
            Tensor::from_vec_f32((0..18).map(|x| x as f32 * 0.25).collect(), &[3, 2, 3]).unwrap();
        let one: Vec<f32> = (0..6).map(|x| x as f32 - 2.0).collect();
        let rep: Vec<f32> = one.iter().cycle().take(18).copied().collect();
        let b = Tensor::from_vec_f32(rep, &[3, 3, 2]).unwrap();
        let c = batch_matmul(&a, &b).unwrap();
        for batch in 0..3 {
            let expect = naive_matmul(
                &a.as_f32().unwrap()[batch * 6..(batch + 1) * 6],
                &one,
                2,
                3,
                2,
            );
            assert_eq!(
                &c.as_f32().unwrap()[batch * 4..(batch + 1) * 4],
                &expect[..]
            );
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn matmul_matches_naive(
            m in 1usize..9, k in 1usize..9, n in 1usize..9,
            seed in 0u64..100,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let av: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let bv: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let c = matmul(
                &Tensor::from_vec_f32(av.clone(), &[m, k]).unwrap(),
                &Tensor::from_vec_f32(bv.clone(), &[k, n]).unwrap(),
            ).unwrap();
            let expect = naive_matmul(&av, &bv, m, k, n);
            for (got, want) in c.as_f32().unwrap().iter().zip(expect.iter()) {
                prop_assert!((got - want).abs() < 1e-4);
            }
        }

        #[test]
        fn dense_equals_matmul_transposed(
            m in 1usize..6, k in 1usize..6, n in 1usize..6,
            seed in 0u64..100,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let xv: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let wv: Vec<f32> = (0..n * k).map(|_| rng.gen_range(-2.0..2.0)).collect();
            let x = Tensor::from_vec_f32(xv, &[m, k]).unwrap();
            let w = Tensor::from_vec_f32(wv.clone(), &[n, k]).unwrap();
            let d = dense(&x, &w, None).unwrap();
            // matmul(x, Wᵀ)
            let wt = Tensor::from_vec_f32(transpose_buf(&wv, n, k), &[k, n]).unwrap();
            let mm = matmul(&x, &wt).unwrap();
            for (a, b) in d.as_f32().unwrap().iter().zip(mm.as_f32().unwrap()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }
}
