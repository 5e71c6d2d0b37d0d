//! Reduction and normalization kernels.

use crate::{Data, Result, Tensor, TensorError};

/// Decompose a shape around `axis` into `(outer, axis_len, inner)` so that a
/// reduction walks `outer × inner` independent strips.
fn axis_split(dims: &[usize], axis: usize) -> Result<(usize, usize, usize)> {
    if axis >= dims.len() {
        return Err(TensorError::range(format!(
            "axis {axis} for rank {}",
            dims.len()
        )));
    }
    let outer: usize = dims[..axis].iter().product();
    let inner: usize = dims[axis + 1..].iter().product();
    Ok((outer, dims[axis], inner))
}

fn reduced_shape(dims: &[usize], axis: usize, keepdims: bool) -> Vec<usize> {
    let mut out = dims.to_vec();
    if keepdims {
        out[axis] = 1;
    } else {
        out.remove(axis);
    }
    out
}

fn reduce_f32(
    a: &Tensor,
    axis: usize,
    keepdims: bool,
    init: f32,
    f: impl Fn(f32, f32) -> f32,
) -> Result<Tensor> {
    let (outer, len, inner) = axis_split(a.dims(), axis)?;
    let v = a.as_f32()?;
    let mut out = vec![init; outer * inner];
    for o in 0..outer {
        for l in 0..len {
            let base = (o * len + l) * inner;
            let obase = o * inner;
            for i in 0..inner {
                out[obase + i] = f(out[obase + i], v[base + i]);
            }
        }
    }
    Tensor::from_vec_f32(out, &reduced_shape(a.dims(), axis, keepdims))
}

/// Sum along `axis`.
pub fn sum_axis(a: &Tensor, axis: usize, keepdims: bool) -> Result<Tensor> {
    reduce_f32(a, axis, keepdims, 0.0, |acc, x| acc + x)
}

/// Maximum along `axis`.
pub fn max_axis(a: &Tensor, axis: usize, keepdims: bool) -> Result<Tensor> {
    reduce_f32(a, axis, keepdims, f32::NEG_INFINITY, f32::max)
}

/// Arithmetic mean along `axis`.
pub fn mean_axis(a: &Tensor, axis: usize, keepdims: bool) -> Result<Tensor> {
    let len = a.dims()[axis] as f32;
    let mut t = sum_axis(a, axis, keepdims)?;
    for v in t.as_f32_mut()? {
        *v /= len;
    }
    Ok(t)
}

/// Index of the maximum along `axis`, as an `i64` tensor.
pub fn argmax(a: &Tensor, axis: usize) -> Result<Tensor> {
    let (outer, len, inner) = axis_split(a.dims(), axis)?;
    let v = a.as_f32()?;
    let mut out = vec![0i64; outer * inner];
    for o in 0..outer {
        for i in 0..inner {
            let mut best = f32::NEG_INFINITY;
            let mut best_idx = 0i64;
            for l in 0..len {
                let x = v[(o * len + l) * inner + i];
                if x > best {
                    best = x;
                    best_idx = l as i64;
                }
            }
            out[o * inner + i] = best_idx;
        }
    }
    Tensor::new(Data::I64(out), &reduced_shape(a.dims(), axis, false))
}

/// Numerically-stable softmax along the last axis.
///
/// Each row strip runs through [`nimble_simd::vecmath::softmax_strip`]:
/// vectorized max / exp / normalize passes on the active SIMD backend, the
/// original scalar sweep under `NIMBLE_SIMD=scalar`.
pub fn softmax(a: &Tensor) -> Result<Tensor> {
    crate::dest::fresh(|outs| softmax_into(a, outs))
}

/// [`softmax`] writing output 0 of `outs` (see [`crate::dest`]).
///
/// # Errors
/// As [`softmax`], plus a planned output of the wrong dims or dtype.
pub fn softmax_into(a: &Tensor, outs: &mut Vec<Tensor>) -> Result<()> {
    if a.rank() == 0 {
        return Err(TensorError::invalid("softmax on scalar"));
    }
    let last = a.rank() - 1;
    let (outer, len, _) = axis_split(a.dims(), last)?;
    let v = a.as_f32()?;
    let isa = nimble_simd::active();
    let out = crate::dest::slot_f32("softmax", outs, 0, a.dims())?;
    for o in 0..outer {
        let strip = &v[o * len..(o + 1) * len];
        let ostrip = &mut out[o * len..(o + 1) * len];
        nimble_simd::vecmath::softmax_strip(isa, strip, ostrip);
    }
    Ok(())
}

/// Layer normalization along the last axis with learned scale/shift:
/// `y = (x − mean) / sqrt(var + eps) * gamma + beta`.
///
/// # Errors
/// Fails when `gamma`/`beta` do not match the last dimension of `a`.
pub fn layer_norm(a: &Tensor, gamma: &Tensor, beta: &Tensor, eps: f32) -> Result<Tensor> {
    crate::dest::fresh(|outs| layer_norm_into(a, gamma, beta, eps, outs))
}

/// [`layer_norm`] writing output 0 of `outs` (see [`crate::dest`]).
///
/// # Errors
/// As [`layer_norm`], plus a planned output of the wrong dims or dtype.
pub fn layer_norm_into(
    a: &Tensor,
    gamma: &Tensor,
    beta: &Tensor,
    eps: f32,
    outs: &mut Vec<Tensor>,
) -> Result<()> {
    if a.rank() == 0 {
        return Err(TensorError::invalid("layer_norm on scalar"));
    }
    let last = a.rank() - 1;
    let len = a.dims()[last];
    if gamma.dims() != [len] || beta.dims() != [len] {
        return Err(TensorError::shape(
            "layer_norm params",
            &[len],
            gamma.dims(),
        ));
    }
    let v = a.as_f32()?;
    let g = gamma.as_f32()?;
    let b = beta.as_f32()?;
    let outer = v.len() / len;
    let isa = nimble_simd::active();
    let out = crate::dest::slot_f32("layer_norm", outs, 0, a.dims())?;
    for o in 0..outer {
        let strip = &v[o * len..(o + 1) * len];
        let ostrip = &mut out[o * len..(o + 1) * len];
        nimble_simd::vecmath::layer_norm_strip(isa, strip, g, b, eps, ostrip);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec_f32(v, s).unwrap()
    }

    #[test]
    fn sum_rows_and_cols() {
        let a = t(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let rows = sum_axis(&a, 1, false).unwrap();
        assert_eq!(rows.dims(), &[2]);
        assert_eq!(rows.as_f32().unwrap(), &[6., 15.]);
        let cols = sum_axis(&a, 0, false).unwrap();
        assert_eq!(cols.as_f32().unwrap(), &[5., 7., 9.]);
        let keep = sum_axis(&a, 1, true).unwrap();
        assert_eq!(keep.dims(), &[2, 1]);
    }

    #[test]
    fn max_and_mean() {
        let a = t(vec![1., 9., 3., 4.], &[2, 2]);
        assert_eq!(max_axis(&a, 1, false).unwrap().as_f32().unwrap(), &[9., 4.]);
        assert_eq!(
            mean_axis(&a, 0, false).unwrap().as_f32().unwrap(),
            &[2.0, 6.5]
        );
    }

    #[test]
    fn argmax_ties_take_first() {
        let a = t(vec![5., 5., 1., 7.], &[2, 2]);
        let idx = argmax(&a, 1).unwrap();
        assert_eq!(idx.as_i64().unwrap(), &[0, 1]);
    }

    #[test]
    fn axis_out_of_range() {
        let a = t(vec![1., 2.], &[2]);
        assert!(sum_axis(&a, 1, false).is_err());
        assert!(argmax(&a, 5).is_err());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let a = t(vec![1., 2., 3., 1000., 1001., 1002.], &[2, 3]);
        let s = softmax(&a).unwrap();
        let v = s.as_f32().unwrap();
        for row in v.chunks(3) {
            let sum: f32 = row.iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row sums to {sum}");
            assert!(row.iter().all(|&x| x.is_finite()));
        }
        // Large-magnitude rows must not overflow (numerical stability).
        assert!(v[3..].iter().all(|&x| x.is_finite()));
    }

    #[test]
    fn layer_norm_zero_mean_unit_var() {
        let a = t(vec![1., 2., 3., 4.], &[1, 4]);
        let g = Tensor::ones_f32(&[4]);
        let b = Tensor::zeros(crate::DType::F32, &[4]);
        let y = layer_norm(&a, &g, &b, 1e-5).unwrap();
        let v = y.as_f32().unwrap();
        let mean: f32 = v.iter().sum::<f32>() / 4.0;
        let var: f32 = v.iter().map(|&x| (x - mean) * (x - mean)).sum::<f32>() / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_param_shape_checked() {
        let a = t(vec![1., 2., 3., 4.], &[1, 4]);
        let bad = Tensor::ones_f32(&[3]);
        assert!(layer_norm(&a, &bad, &bad, 1e-5).is_err());
    }

    proptest! {
        #[test]
        fn softmax_invariant_to_shift(
            v in proptest::collection::vec(-5f32..5.0, 2..16),
            shift in -100f32..100.0,
        ) {
            let n = v.len();
            let a = t(v.clone(), &[n]);
            let b = t(v.iter().map(|x| x + shift).collect(), &[n]);
            let sa = softmax(&a).unwrap();
            let sb = softmax(&b).unwrap();
            for (x, y) in sa.as_f32().unwrap().iter().zip(sb.as_f32().unwrap()) {
                prop_assert!((x - y).abs() < 1e-4);
            }
        }

        #[test]
        fn sum_keepdims_preserves_volume_relation(
            rows in 1usize..5, cols in 1usize..5,
        ) {
            let a = Tensor::ones_f32(&[rows, cols]);
            let s = sum_axis(&a, 0, true).unwrap();
            prop_assert_eq!(s.dims(), &[1, cols]);
            prop_assert!(s.as_f32().unwrap().iter().all(|&x| x == rows as f32));
        }

        #[test]
        fn argmax_in_bounds(
            v in proptest::collection::vec(-10f32..10.0, 1..32),
        ) {
            let n = v.len();
            let idx = argmax(&t(v, &[n]), 0).unwrap();
            let i = idx.as_i64().unwrap()[0];
            prop_assert!(i >= 0 && (i as usize) < n);
        }
    }
}
