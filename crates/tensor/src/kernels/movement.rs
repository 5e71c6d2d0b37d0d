//! Data-movement kernels: concat, split, slice, transpose, gather, stack.

use crate::{dest, DType, Data, Result, Tensor, TensorError};

/// Concatenate tensors along `axis`. All inputs must agree on every other
/// dimension and on dtype. This is the canonical dynamic-output-shape
/// operator in the paper's memory-planning example (Section 4.3).
///
/// # Errors
/// Fails on empty input, axis out of range, or mismatched shapes/dtypes.
pub fn concat(inputs: &[&Tensor], axis: usize) -> Result<Tensor> {
    let first = inputs
        .first()
        .ok_or_else(|| TensorError::invalid("concat of zero tensors"))?;
    let rank = first.rank();
    if axis >= rank {
        return Err(TensorError::range(format!(
            "concat axis {axis} rank {rank}"
        )));
    }
    let mut axis_total = 0;
    for t in inputs {
        if t.rank() != rank || t.dtype() != first.dtype() {
            return Err(TensorError::shape("concat", first.dims(), t.dims()));
        }
        for d in 0..rank {
            if d != axis && t.dims()[d] != first.dims()[d] {
                return Err(TensorError::shape("concat", first.dims(), t.dims()));
            }
        }
        axis_total += t.dims()[axis];
    }
    let mut out_shape = first.dims().to_vec();
    out_shape[axis] = axis_total;

    let outer: usize = first.dims()[..axis].iter().product();
    let inner: usize = first.dims()[axis + 1..].iter().product();

    macro_rules! do_concat {
        ($variant:ident, $ty:ty, $get:ident) => {{
            let mut out: Vec<$ty> = Vec::with_capacity(out_shape.iter().product());
            for o in 0..outer {
                for t in inputs {
                    let v = t.$get()?;
                    let len = t.dims()[axis] * inner;
                    out.extend_from_slice(&v[o * len..(o + 1) * len]);
                }
            }
            Tensor::new(Data::$variant(out), &out_shape)
        }};
    }
    match first.dtype() {
        DType::F32 => do_concat!(F32, f32, as_f32),
        DType::I64 => do_concat!(I64, i64, as_i64),
        DType::I32 => do_concat!(I32, i32, as_i32),
        DType::Bool => {
            let mut out: Vec<bool> = Vec::with_capacity(out_shape.iter().product());
            for o in 0..outer {
                for t in inputs {
                    let v = t.as_bool()?;
                    let len = t.dims()[axis] * inner;
                    out.extend_from_slice(&v[o * len..(o + 1) * len]);
                }
            }
            Tensor::new(Data::Bool(out), &out_shape)
        }
    }
}

/// Split a tensor into `parts` equal pieces along `axis`.
///
/// # Errors
/// Fails when the axis length is not divisible by `parts`.
pub fn split(a: &Tensor, parts: usize, axis: usize) -> Result<Vec<Tensor>> {
    let mut outs = Vec::with_capacity(parts);
    split_into(a, parts, axis, &mut outs)?;
    Ok(outs)
}

/// [`split`] writing outputs `0..parts` of `outs` (see [`crate::dest`]):
/// each piece is `outer` contiguous chunks copied straight out of `a`.
///
/// # Errors
/// As [`split`], plus planned outputs of the wrong dims or dtype.
pub fn split_into(a: &Tensor, parts: usize, axis: usize, outs: &mut Vec<Tensor>) -> Result<()> {
    if axis >= a.rank() {
        return Err(TensorError::range(format!("split axis {axis}")));
    }
    let len = a.dims()[axis];
    if parts == 0 || !len.is_multiple_of(parts) {
        return Err(TensorError::invalid(format!(
            "split: axis length {len} not divisible into {parts} parts"
        )));
    }
    let piece = len / parts;
    let outer: usize = a.dims()[..axis].iter().product();
    let inner: usize = a.dims()[axis + 1..].iter().product();
    let (row, chunk) = (len * inner, piece * inner);
    let mut dims = a.dims().to_vec();
    dims[axis] = piece;
    for p in 0..parts {
        let out = dest::slot("split", outs, p, a.dtype(), &dims)?;
        let start = p * chunk;
        match (a.data(), out.data_mut()) {
            (Data::F32(s), Data::F32(d)) => {
                copy_chunks(s, d.as_mut_slice(), outer, row, start, chunk)
            }
            (Data::I64(s), Data::I64(d)) => {
                copy_chunks(s, d.as_mut_slice(), outer, row, start, chunk)
            }
            (Data::I32(s), Data::I32(d)) => {
                copy_chunks(s, d.as_mut_slice(), outer, row, start, chunk)
            }
            (Data::Bool(s), Data::Bool(d)) => {
                copy_chunks(s, d.as_mut_slice(), outer, row, start, chunk)
            }
            _ => unreachable!("the slot checked the input dtype"),
        }
    }
    Ok(())
}

/// Copy chunk `o` of each of `outer` rows of `src` (`row` elements apart,
/// `chunk` long, at `start`) to position `o` of `dst`.
fn copy_chunks<T: Copy>(
    src: &[T],
    dst: &mut [T],
    outer: usize,
    row: usize,
    start: usize,
    chunk: usize,
) {
    for o in 0..outer {
        dst[o * chunk..(o + 1) * chunk].copy_from_slice(&src[o * row + start..][..chunk]);
    }
}

/// Slice `[begin, end)` along a single axis.
///
/// # Errors
/// Fails when the range is out of bounds or reversed.
pub fn slice_axis(a: &Tensor, axis: usize, begin: usize, end: usize) -> Result<Tensor> {
    let mut begins = vec![0; a.rank()];
    let mut ends = a.dims().to_vec();
    if axis >= a.rank() {
        return Err(TensorError::range(format!("slice axis {axis}")));
    }
    begins[axis] = begin;
    ends[axis] = end;
    slice(a, &begins, &ends)
}

/// General multi-axis slice `[begin, end)` per dimension (stride 1).
///
/// The paper uses slicing to trim upper-bound shape-function outputs "into
/// precise output shape" (Section 4.2); the VM's upper-bound path calls this
/// kernel.
///
/// # Errors
/// Fails on rank mismatch or out-of-bounds ranges.
pub fn slice(a: &Tensor, begin: &[usize], end: &[usize]) -> Result<Tensor> {
    if begin.len() != a.rank() || end.len() != a.rank() {
        return Err(TensorError::invalid("slice: begin/end rank mismatch"));
    }
    let mut out_shape = Vec::with_capacity(a.rank());
    for d in 0..a.rank() {
        if begin[d] > end[d] || end[d] > a.dims()[d] {
            return Err(TensorError::range(format!(
                "slice dim {d}: [{}, {}) of {}",
                begin[d],
                end[d],
                a.dims()[d]
            )));
        }
        out_shape.push(end[d] - begin[d]);
    }
    let volume: usize = out_shape.iter().product();
    let strides = a.shape().strides();

    macro_rules! do_slice {
        ($variant:ident, $ty:ty, $get:ident) => {{
            let src = a.$get()?;
            let mut out: Vec<$ty> = Vec::with_capacity(volume);
            let mut idx = begin.to_vec();
            if volume > 0 {
                loop {
                    // Copy the innermost contiguous run.
                    let base: usize = idx.iter().zip(strides.iter()).map(|(&i, &s)| i * s).sum();
                    let run = if a.rank() == 0 {
                        1
                    } else {
                        out_shape[a.rank() - 1]
                    };
                    out.extend_from_slice(&src[base..base + run]);
                    // Advance all but the innermost dimension.
                    if a.rank() <= 1 {
                        break;
                    }
                    let mut d = a.rank() - 1;
                    loop {
                        if d == 0 {
                            idx[0] += 1;
                            if idx[0] < end[0] {
                                break;
                            }
                            idx[0] = begin[0];
                            d = usize::MAX;
                            break;
                        }
                        d -= 1;
                        idx[d] += 1;
                        if idx[d] < end[d] {
                            break;
                        }
                        idx[d] = begin[d];
                        if d == 0 {
                            d = usize::MAX;
                            break;
                        }
                    }
                    if d == usize::MAX {
                        break;
                    }
                }
            }
            Tensor::new(Data::$variant(out), &out_shape)
        }};
    }
    match a.dtype() {
        DType::F32 => do_slice!(F32, f32, as_f32),
        DType::I64 => do_slice!(I64, i64, as_i64),
        DType::I32 => do_slice!(I32, i32, as_i32),
        DType::Bool => do_slice!(Bool, bool, as_bool),
    }
}

/// Permute dimensions. `perm` must be a permutation of `0..rank`.
///
/// # Errors
/// Fails when `perm` is not a valid permutation.
pub fn transpose(a: &Tensor, perm: &[usize]) -> Result<Tensor> {
    let rank = a.rank();
    if perm.len() != rank {
        return Err(TensorError::invalid("transpose: perm rank mismatch"));
    }
    let mut seen = vec![false; rank];
    for &p in perm {
        if p >= rank || seen[p] {
            return Err(TensorError::invalid("transpose: invalid permutation"));
        }
        seen[p] = true;
    }
    let out_shape: Vec<usize> = perm.iter().map(|&p| a.dims()[p]).collect();
    let in_strides = a.shape().strides();
    let permuted_strides: Vec<usize> = perm.iter().map(|&p| in_strides[p]).collect();
    let volume = a.volume();

    macro_rules! do_transpose {
        ($variant:ident, $ty:ty, $get:ident) => {{
            let src = a.$get()?;
            let mut out: Vec<$ty> = Vec::with_capacity(volume);
            let mut idx = vec![0usize; rank];
            let mut off = 0usize;
            for _ in 0..volume {
                out.push(src[off]);
                for d in (0..rank).rev() {
                    idx[d] += 1;
                    off += permuted_strides[d];
                    if idx[d] < out_shape[d] {
                        break;
                    }
                    off -= permuted_strides[d] * out_shape[d];
                    idx[d] = 0;
                }
            }
            Tensor::new(Data::$variant(out), &out_shape)
        }};
    }
    if volume == 0 {
        return Tensor::new(Data::zeros(a.dtype(), 0), &out_shape);
    }
    match a.dtype() {
        DType::F32 => do_transpose!(F32, f32, as_f32),
        DType::I64 => do_transpose!(I64, i64, as_i64),
        DType::I32 => do_transpose!(I32, i32, as_i32),
        DType::Bool => do_transpose!(Bool, bool, as_bool),
    }
}

/// Gather rows: `out[i, …] = table[indices[i], …]` along axis 0 (embedding
/// lookup).
///
/// # Errors
/// Fails when an index is out of bounds or `indices` is not integer-typed.
pub fn take(table: &Tensor, indices: &Tensor) -> Result<Tensor> {
    if table.rank() == 0 {
        return Err(TensorError::invalid("take: table must have rank >= 1"));
    }
    let idx: Vec<i64> = match indices.data() {
        Data::I64(v) => v.clone(),
        Data::I32(v) => v.iter().map(|&x| x as i64).collect(),
        other => {
            return Err(TensorError::dtype(
                "take indices",
                DType::I64,
                other.dtype(),
            ));
        }
    };
    let rows = table.dims()[0];
    let row_len: usize = table.dims()[1..].iter().product();
    let src = table.as_f32()?;
    let mut out = Vec::with_capacity(idx.len() * row_len);
    for &i in &idx {
        if i < 0 || i as usize >= rows {
            return Err(TensorError::range(format!("take index {i} of {rows} rows")));
        }
        let i = i as usize;
        out.extend_from_slice(&src[i * row_len..(i + 1) * row_len]);
    }
    let mut out_shape = indices.dims().to_vec();
    out_shape.extend_from_slice(&table.dims()[1..]);
    Tensor::from_vec_f32(out, &out_shape)
}

/// Insert a size-1 dimension at `axis`.
///
/// # Errors
/// Fails when `axis > rank`.
pub fn expand_dims(a: &Tensor, axis: usize) -> Result<Tensor> {
    if axis > a.rank() {
        return Err(TensorError::range(format!("expand_dims axis {axis}")));
    }
    let mut dims = a.dims().to_vec();
    dims.insert(axis, 1);
    a.reshaped(&dims)
}

/// Remove a size-1 dimension at `axis`.
///
/// # Errors
/// Fails when the dimension is not 1.
pub fn squeeze(a: &Tensor, axis: usize) -> Result<Tensor> {
    if axis >= a.rank() || a.dims()[axis] != 1 {
        return Err(TensorError::range(format!("squeeze axis {axis}")));
    }
    let mut dims = a.dims().to_vec();
    dims.remove(axis);
    a.reshaped(&dims)
}

/// Stack same-shaped tensors along a new leading `axis` 0.
///
/// # Errors
/// Fails on empty input or mismatched shapes.
pub fn stack(inputs: &[&Tensor]) -> Result<Tensor> {
    let first = inputs
        .first()
        .ok_or_else(|| TensorError::invalid("stack of zero tensors"))?;
    let expanded: Vec<Tensor> = inputs
        .iter()
        .map(|t| {
            if t.dims() != first.dims() {
                Err(TensorError::shape("stack", first.dims(), t.dims()))
            } else {
                expand_dims(t, 0)
            }
        })
        .collect::<Result<_>>()?;
    let refs: Vec<&Tensor> = expanded.iter().collect();
    concat(&refs, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec_f32(v, s).unwrap()
    }

    #[test]
    fn concat_axis0_and_1() {
        let a = t(vec![1., 2., 3., 4.], &[2, 2]);
        let b = t(vec![5., 6.], &[1, 2]);
        let c = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.dims(), &[3, 2]);
        assert_eq!(c.as_f32().unwrap(), &[1., 2., 3., 4., 5., 6.]);

        let d = t(vec![9., 9.], &[2, 1]);
        let e = concat(&[&a, &d], 1).unwrap();
        assert_eq!(e.dims(), &[2, 3]);
        assert_eq!(e.as_f32().unwrap(), &[1., 2., 9., 3., 4., 9.]);
    }

    #[test]
    fn concat_validates() {
        let a = t(vec![1., 2.], &[2]);
        let b = t(vec![1., 2., 3., 4.], &[2, 2]);
        assert!(concat(&[&a, &b], 0).is_err());
        assert!(concat(&[], 0).is_err());
        assert!(concat(&[&a], 3).is_err());
    }

    #[test]
    fn concat_i64() {
        let a = Tensor::from_vec_i64(vec![1, 2], &[2]).unwrap();
        let b = Tensor::from_vec_i64(vec![3], &[1]).unwrap();
        let c = concat(&[&a, &b], 0).unwrap();
        assert_eq!(c.as_i64().unwrap(), &[1, 2, 3]);
    }

    #[test]
    fn split_round_trips_concat() {
        let a = t((0..12).map(|x| x as f32).collect(), &[4, 3]);
        let parts = split(&a, 2, 0).unwrap();
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].dims(), &[2, 3]);
        let refs: Vec<&Tensor> = parts.iter().collect();
        assert_eq!(concat(&refs, 0).unwrap(), a);
    }

    #[test]
    fn split_rejects_indivisible() {
        let a = t(vec![0.0; 10], &[5, 2]);
        assert!(split(&a, 3, 0).is_err());
        assert!(split(&a, 0, 0).is_err());
    }

    #[test]
    fn slice_middle() {
        let a = t((0..12).map(|x| x as f32).collect(), &[3, 4]);
        let s = slice(&a, &[1, 1], &[3, 3]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_f32().unwrap(), &[5., 6., 9., 10.]);
    }

    #[test]
    fn slice_full_is_identity() {
        let a = t((0..6).map(|x| x as f32).collect(), &[2, 3]);
        let s = slice(&a, &[0, 0], &[2, 3]).unwrap();
        assert_eq!(s, a);
    }

    #[test]
    fn slice_bounds_checked() {
        let a = t(vec![0.0; 6], &[2, 3]);
        assert!(slice(&a, &[0, 0], &[2, 4]).is_err());
        assert!(slice(&a, &[2, 0], &[1, 3]).is_err());
        assert!(slice(&a, &[0], &[2]).is_err());
    }

    #[test]
    fn slice_empty_result() {
        let a = t(vec![0.0; 6], &[2, 3]);
        let s = slice(&a, &[1, 1], &[1, 3]).unwrap();
        assert_eq!(s.dims(), &[0, 2]);
        assert_eq!(s.volume(), 0);
    }

    #[test]
    fn transpose_2d() {
        let a = t(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let at = transpose(&a, &[1, 0]).unwrap();
        assert_eq!(at.dims(), &[3, 2]);
        assert_eq!(at.as_f32().unwrap(), &[1., 4., 2., 5., 3., 6.]);
    }

    #[test]
    fn transpose_validates_perm() {
        let a = t(vec![0.0; 6], &[2, 3]);
        assert!(transpose(&a, &[0, 0]).is_err());
        assert!(transpose(&a, &[0, 2]).is_err());
        assert!(transpose(&a, &[0]).is_err());
    }

    #[test]
    fn take_embedding_lookup() {
        let table = t(vec![1., 1., 2., 2., 3., 3.], &[3, 2]);
        let idx = Tensor::from_vec_i64(vec![2, 0], &[2]).unwrap();
        let e = take(&table, &idx).unwrap();
        assert_eq!(e.dims(), &[2, 2]);
        assert_eq!(e.as_f32().unwrap(), &[3., 3., 1., 1.]);
        let bad = Tensor::from_vec_i64(vec![3], &[1]).unwrap();
        assert!(take(&table, &bad).is_err());
    }

    #[test]
    fn expand_and_squeeze() {
        let a = t(vec![1., 2.], &[2]);
        let e = expand_dims(&a, 0).unwrap();
        assert_eq!(e.dims(), &[1, 2]);
        let s = squeeze(&e, 0).unwrap();
        assert_eq!(s.dims(), &[2]);
        assert!(squeeze(&a, 0).is_err());
        assert!(expand_dims(&a, 5).is_err());
    }

    #[test]
    fn stack_makes_batch() {
        let a = t(vec![1., 2.], &[2]);
        let b = t(vec![3., 4.], &[2]);
        let s = stack(&[&a, &b]).unwrap();
        assert_eq!(s.dims(), &[2, 2]);
        assert_eq!(s.as_f32().unwrap(), &[1., 2., 3., 4.]);
    }

    proptest! {
        #[test]
        fn transpose_involution(
            rows in 1usize..6, cols in 1usize..6, seed in 0u64..50,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let v: Vec<f32> = (0..rows * cols).map(|_| rng.gen()).collect();
            let a = t(v, &[rows, cols]);
            let tt = transpose(&transpose(&a, &[1, 0]).unwrap(), &[1, 0]).unwrap();
            prop_assert_eq!(tt, a);
        }

        #[test]
        fn concat_split_inverse(
            parts in 1usize..5, piece in 1usize..4, cols in 1usize..4,
        ) {
            let rows = parts * piece;
            let a = t((0..rows * cols).map(|x| x as f32).collect(), &[rows, cols]);
            let pieces = split(&a, parts, 0).unwrap();
            let refs: Vec<&Tensor> = pieces.iter().collect();
            prop_assert_eq!(concat(&refs, 0).unwrap(), a);
        }

        #[test]
        fn slice_volume_matches(
            rows in 2usize..6, cols in 2usize..6,
        ) {
            let a = Tensor::ones_f32(&[rows, cols]);
            let s = slice(&a, &[1, 1], &[rows, cols]).unwrap();
            prop_assert_eq!(s.volume(), (rows - 1) * (cols - 1));
        }
    }
}
