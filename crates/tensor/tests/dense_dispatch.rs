//! `dense_with_epilogue` picks its GEMM driver by row count (`m < MR`
//! takes the short-row driver). Whichever it picks, the output must be
//! bitwise identical to the row-strip driver under the same ISA, for
//! every row count around the register-tile boundary.
//!
//! `nimble_simd::force` pins process-global state, so this binary holds a
//! single test that walks the ISAs one after another.

use nimble_tensor::kernels::gemm::{gemm_packed_with_isa, Epilogue, PackedB, UnaryOp, MR, NR};
use nimble_tensor::kernels::{dense_with_epilogue, MatmulSchedule};
use nimble_tensor::pool::default_profile;
use nimble_tensor::Tensor;

fn fill(len: usize, seed: u64) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let x = (i as u64)
                .wrapping_mul(6364136223846793005)
                .wrapping_add(seed);
            ((x >> 33) as f32 / (1u64 << 31) as f32) - 0.5
        })
        .collect()
}

fn halve(x: f32) -> f32 {
    x * 0.5 - 0.25
}

#[test]
fn dense_matches_rows_driver_on_every_isa() {
    let pinned = nimble_simd::active();
    let chains: [&[UnaryOp]; 3] = [
        &[],
        &[UnaryOp::Tanh, UnaryOp::Sigmoid],
        &[UnaryOp::Custom(halve)],
    ];
    for isa in nimble_simd::available() {
        assert!(nimble_simd::force(isa));
        let profile = default_profile();
        let sched = MatmulSchedule::for_profile(profile).sanitized();
        for &(n, k) in &[(13usize, 11usize), (37, 29), (3, 70)] {
            assert!(n % NR != 0 && k % NR != 0);
            let w = Tensor::from_vec_f32(fill(n * k, 5), &[n, k]).unwrap();
            let bias = Tensor::from_vec_f32(fill(n, 9), &[n]).unwrap();
            let pb = PackedB::pack_bt(w.as_f32().unwrap(), n, k, sched.tile_k);
            for m in 1..=2 * MR {
                let x = Tensor::from_vec_f32(fill(m * k, m as u64), &[m, k]).unwrap();
                for with_bias in [false, true] {
                    for unary in chains {
                        let b = with_bias.then_some(&bias);
                        let got = dense_with_epilogue(&x, &w, b, unary).unwrap();
                        let mut want = vec![f32::NAN; m * n];
                        let ep = Epilogue {
                            bias: b.map(|b| b.as_f32().unwrap()),
                            unary,
                        };
                        let xa = x.as_f32().unwrap();
                        gemm_packed_with_isa(isa, profile, xa, &pb, m, &mut want, sched, &ep);
                        assert_eq!(got.dims(), &[m, n]);
                        for (i, (g, w)) in got.as_f32().unwrap().iter().zip(&want).enumerate() {
                            assert_eq!(
                                g.to_bits(),
                                w.to_bits(),
                                "{isa:?} m={m} n={n} k={k} bias={with_bias} {unary:?} elem {i}"
                            );
                        }
                    }
                }
            }
        }
    }
    nimble_simd::force(pinned);
}
