//! Elementwise unary and binary kernels with NumPy-style broadcasting.

use crate::shape::broadcast_shapes;
use crate::{dest, DType, Data, Result, Tensor, TensorError};
use std::borrow::Cow;

/// Broadcast-aware strides: stride is zero along broadcast dimensions so the
/// same element is re-read.
fn broadcast_strides(shape: &[usize], out_shape: &[usize]) -> Vec<usize> {
    let mut strides = vec![0usize; out_shape.len()];
    let offset = out_shape.len() - shape.len();
    let natural = crate::Shape::new(shape).strides();
    for (i, &d) in shape.iter().enumerate() {
        strides[offset + i] = if d == 1 { 0 } else { natural[i] };
    }
    strides
}

/// Apply `f` elementwise over broadcast inputs, writing every element of
/// `out` (of `out_shape`'s volume).
fn binary_map<T: Copy, V>(
    a: &[T],
    a_shape: &[usize],
    b: &[T],
    b_shape: &[usize],
    out_shape: &[usize],
    out: &mut [V],
    f: impl Fn(T, T) -> V,
) {
    // Fast path: identical shapes.
    if a_shape == b_shape {
        for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
            *o = f(x, y);
        }
        return;
    }
    // Fast path: scalar on either side.
    if a.len() == 1 {
        let x = a[0];
        for (o, &y) in out.iter_mut().zip(b) {
            *o = f(x, y);
        }
        return;
    }
    if b.len() == 1 {
        let y = b[0];
        for (o, &x) in out.iter_mut().zip(a) {
            *o = f(x, y);
        }
        return;
    }
    // General path: odometer over the output index space.
    let sa = broadcast_strides(a_shape, out_shape);
    let sb = broadcast_strides(b_shape, out_shape);
    let rank = out_shape.len();
    let mut idx = vec![0usize; rank];
    let mut off_a = 0usize;
    let mut off_b = 0usize;
    for o in out.iter_mut() {
        *o = f(a[off_a], b[off_b]);
        // Advance odometer and offsets together.
        for d in (0..rank).rev() {
            idx[d] += 1;
            off_a += sa[d];
            off_b += sb[d];
            if idx[d] < out_shape[d] {
                break;
            }
            off_a -= sa[d] * out_shape[d];
            off_b -= sb[d] * out_shape[d];
            idx[d] = 0;
        }
    }
}

/// The broadcast output dims of `a ∘ b`, borrowed from `a` when the
/// shapes already agree (the common case allocates nothing).
fn out_dims<'a>(a: &'a Tensor, b: &Tensor) -> Result<Cow<'a, [usize]>> {
    if a.dims() == b.dims() {
        Ok(Cow::Borrowed(a.dims()))
    } else {
        broadcast_shapes(a.dims(), b.dims()).map(Cow::Owned)
    }
}

/// Dispatch a binary arithmetic op over matching dtypes, writing output 0
/// of `outs` (see [`crate::dest`]).
fn binary_arith(
    op: &str,
    a: &Tensor,
    b: &Tensor,
    outs: &mut Vec<Tensor>,
    ff: impl Fn(f32, f32) -> f32,
    fi: impl Fn(i64, i64) -> i64,
    fi32: impl Fn(i32, i32) -> i32,
) -> Result<()> {
    let shape = out_dims(a, b)?;
    if a.dtype() != b.dtype() || a.dtype() == DType::Bool {
        return Err(TensorError::dtype(op, a.dtype(), b.dtype()));
    }
    let out = dest::slot(op, outs, 0, a.dtype(), &shape)?;
    let (ad, bd) = (a.dims(), b.dims());
    match (a.data(), b.data(), out.data_mut()) {
        (Data::F32(x), Data::F32(y), Data::F32(o)) => binary_map(x, ad, y, bd, &shape, o, ff),
        (Data::I64(x), Data::I64(y), Data::I64(o)) => binary_map(x, ad, y, bd, &shape, o, fi),
        (Data::I32(x), Data::I32(y), Data::I32(o)) => binary_map(x, ad, y, bd, &shape, o, fi32),
        _ => unreachable!("dtypes checked equal and the slot checked against them"),
    }
    Ok(())
}

/// Dispatch a binary comparison over matching dtypes, producing bool in
/// output 0 of `outs`.
fn binary_cmp(
    op: &str,
    a: &Tensor,
    b: &Tensor,
    outs: &mut Vec<Tensor>,
    ff: impl Fn(f32, f32) -> bool,
    fi: impl Fn(i64, i64) -> bool,
) -> Result<()> {
    let shape = out_dims(a, b)?;
    if a.dtype() != b.dtype() || !matches!(a.dtype(), DType::F32 | DType::I64) {
        return Err(TensorError::dtype(op, a.dtype(), b.dtype()));
    }
    let out = dest::slot(op, outs, 0, DType::Bool, &shape)?;
    let (ad, bd) = (a.dims(), b.dims());
    match (a.data(), b.data(), out.data_mut()) {
        (Data::F32(x), Data::F32(y), Data::Bool(o)) => binary_map(x, ad, y, bd, &shape, o, ff),
        (Data::I64(x), Data::I64(y), Data::Bool(o)) => binary_map(x, ad, y, bd, &shape, o, fi),
        _ => unreachable!("dtypes checked above and the slot checked bool"),
    }
    Ok(())
}

/// Define a binary kernel `$name` (fresh output) and `$into`
/// (destination-passing) from the same body.
macro_rules! binary_kernel {
    ($(#[$doc:meta])* $name:ident, $into:ident, |$a:ident, $b:ident, $outs:ident| $body:expr) => {
        $(#[$doc])*
        pub fn $name(a: &Tensor, b: &Tensor) -> Result<Tensor> {
            dest::fresh(|outs| $into(a, b, outs))
        }

        #[doc = concat!("[`", stringify!($name), "`] writing output 0 of `outs` (see [`crate::dest`]).")]
        pub fn $into($a: &Tensor, $b: &Tensor, $outs: &mut Vec<Tensor>) -> Result<()> {
            $body
        }
    };
}

binary_kernel!(
    /// Elementwise addition with broadcasting.
    add, add_into, |a, b, outs| binary_arith("add", a, b, outs, |x, y| x + y, |x, y| x + y, |x, y| x + y)
);
binary_kernel!(
    /// Elementwise subtraction with broadcasting.
    sub, sub_into, |a, b, outs| binary_arith("sub", a, b, outs, |x, y| x - y, |x, y| x - y, |x, y| x - y)
);
binary_kernel!(
    /// Elementwise multiplication with broadcasting.
    mul, mul_into, |a, b, outs| binary_arith("mul", a, b, outs, |x, y| x * y, |x, y| x * y, |x, y| x * y)
);
binary_kernel!(
    /// Elementwise division with broadcasting. Integer division truncates.
    div, div_into, |a, b, outs| binary_arith("div", a, b, outs, |x, y| x / y, |x, y| x / y, |x, y| x / y)
);
binary_kernel!(
    /// Elementwise maximum with broadcasting.
    maximum, maximum_into, |a, b, outs| binary_arith(
        "maximum",
        a,
        b,
        outs,
        |x, y| x.max(y),
        |x, y| x.max(y),
        |x, y| x.max(y),
    )
);
binary_kernel!(
    /// Elementwise minimum with broadcasting.
    minimum, minimum_into, |a, b, outs| binary_arith(
        "minimum",
        a,
        b,
        outs,
        |x, y| x.min(y),
        |x, y| x.min(y),
        |x, y| x.min(y),
    )
);
binary_kernel!(
    /// Elementwise power (f32 only semantics for integers via repeated floats).
    power, power_into, |a, b, outs| binary_arith(
        "power",
        a,
        b,
        outs,
        |x, y| x.powf(y),
        |x, y| (x as f64).powf(y as f64) as i64,
        |x, y| (x as f64).powf(y as f64) as i32,
    )
);
binary_kernel!(
    /// Elementwise equality comparison producing a bool tensor.
    equal, equal_into, |a, b, outs| binary_cmp("equal", a, b, outs, |x, y| x == y, |x, y| x == y)
);
binary_kernel!(
    /// Elementwise `<` comparison producing a bool tensor.
    less, less_into, |a, b, outs| binary_cmp("less", a, b, outs, |x, y| x < y, |x, y| x < y)
);
binary_kernel!(
    /// Elementwise `>` comparison producing a bool tensor.
    greater, greater_into, |a, b, outs| binary_cmp("greater", a, b, outs, |x, y| x > y, |x, y| x > y)
);
binary_kernel!(
    /// Elementwise logical AND of two bool tensors.
    logical_and, logical_and_into, |a, b, outs| {
        let shape = out_dims(a, b)?;
        let (x, y) = match (a.data(), b.data()) {
            (Data::Bool(x), Data::Bool(y)) => (x, y),
            _ => return Err(TensorError::dtype("logical_and", a.dtype(), b.dtype())),
        };
        let out = dest::slot("logical_and", outs, 0, DType::Bool, &shape)?;
        let Data::Bool(o) = out.data_mut() else {
            unreachable!("the slot checked bool")
        };
        binary_map(x, a.dims(), y, b.dims(), &shape, o, |p, q| p && q);
        Ok(())
    }
);

/// Define a unary kernel `$name` (fresh output) and `$into`
/// (destination-passing) from the same body.
macro_rules! unary_kernel {
    ($(#[$doc:meta])* $name:ident, $into:ident, |$a:ident, $outs:ident| $body:expr) => {
        $(#[$doc])*
        pub fn $name(a: &Tensor) -> Result<Tensor> {
            dest::fresh(|outs| $into(a, outs))
        }

        #[doc = concat!("[`", stringify!($name), "`] writing output 0 of `outs` (see [`crate::dest`]).")]
        pub fn $into($a: &Tensor, $outs: &mut Vec<Tensor>) -> Result<()> {
            $body
        }
    };
}

unary_kernel!(
    /// Elementwise logical NOT of a bool tensor.
    logical_not, logical_not_into, |a, outs| {
        let v = a.as_bool()?;
        let Data::Bool(o) = dest::slot("logical_not", outs, 0, DType::Bool, a.dims())?.data_mut() else {
            unreachable!("the slot checked bool")
        };
        for (o, &b) in o.iter_mut().zip(v) {
            *o = !b;
        }
        Ok(())
    }
);

/// Apply a unary op over an f32 tensor through the shared
/// [`vecmath`](nimble_simd::vecmath) row primitive, into output 0 of
/// `outs`: vectorized on the active SIMD backend, the original scalar
/// formulas under `NIMBLE_SIMD=scalar`.
fn unary_f32(
    name: &str,
    a: &Tensor,
    op: nimble_simd::vecmath::UnaryOp,
    outs: &mut Vec<Tensor>,
) -> Result<()> {
    match a.data() {
        Data::F32(v) => {
            let out = dest::slot_f32(name, outs, 0, a.dims())?;
            out.copy_from_slice(v);
            nimble_simd::vecmath::unary_slice(nimble_simd::active(), op, out);
            Ok(())
        }
        other => Err(TensorError::dtype(name, DType::F32, other.dtype())),
    }
}

unary_kernel!(
    /// Elementwise negation.
    neg, neg_into, |a, outs| {
        let out = match a.data() {
            Data::F32(_) => return unary_f32("neg", a, nimble_simd::vecmath::UnaryOp::Neg, outs),
            Data::I64(_) | Data::I32(_) => dest::slot("neg", outs, 0, a.dtype(), a.dims())?,
            other => return Err(TensorError::dtype("neg", DType::F32, other.dtype())),
        };
        match (a.data(), out.data_mut()) {
            (Data::I64(v), Data::I64(o)) => o.iter_mut().zip(v).for_each(|(o, &x)| *o = -x),
            (Data::I32(v), Data::I32(o)) => o.iter_mut().zip(v).for_each(|(o, &x)| *o = -x),
            _ => unreachable!("the slot checked the input dtype"),
        }
        Ok(())
    }
);
unary_kernel!(
    /// Elementwise square root (f32).
    sqrt, sqrt_into, |a, outs| unary_f32("sqrt", a, nimble_simd::vecmath::UnaryOp::Sqrt, outs)
);
unary_kernel!(
    /// Elementwise hyperbolic tangent (f32).
    tanh, tanh_into, |a, outs| unary_f32("tanh", a, nimble_simd::vecmath::UnaryOp::Tanh, outs)
);
unary_kernel!(
    /// Elementwise logistic sigmoid (f32).
    sigmoid, sigmoid_into, |a, outs| unary_f32("sigmoid", a, nimble_simd::vecmath::UnaryOp::Sigmoid, outs)
);
unary_kernel!(
    /// Elementwise rectified linear unit (f32).
    relu, relu_into, |a, outs| unary_f32("relu", a, nimble_simd::vecmath::UnaryOp::Relu, outs)
);
unary_kernel!(
    /// Elementwise GELU activation using the tanh approximation (f32), as used
    /// in BERT's feed-forward blocks.
    gelu, gelu_into, |a, outs| unary_f32("gelu", a, nimble_simd::vecmath::UnaryOp::Gelu, outs)
);

/// Ternary select: `out[i] = if cond[i] { a[i] } else { b[i] }`, with `cond`
/// broadcast against `a`/`b`.
pub fn where_select(cond: &Tensor, a: &Tensor, b: &Tensor) -> Result<Tensor> {
    let ab_shape = broadcast_shapes(a.dims(), b.dims())?;
    let out_shape = broadcast_shapes(cond.dims(), &ab_shape)?;
    let c = cond.as_bool()?;
    let (x, y) = match (a.data(), b.data()) {
        (Data::F32(x), Data::F32(y)) => (x, y),
        _ => return Err(TensorError::dtype("where", a.dtype(), b.dtype())),
    };
    let sc = broadcast_strides(cond.dims(), &out_shape);
    let sa = broadcast_strides(a.dims(), &out_shape);
    let sb = broadcast_strides(b.dims(), &out_shape);
    let rank = out_shape.len();
    let volume: usize = out_shape.iter().product();
    let mut idx = vec![0usize; rank];
    let (mut oc, mut oa, mut ob) = (0usize, 0usize, 0usize);
    let mut out = Vec::with_capacity(volume);
    for _ in 0..volume {
        out.push(if c[oc] { x[oa] } else { y[ob] });
        for d in (0..rank).rev() {
            idx[d] += 1;
            oc += sc[d];
            oa += sa[d];
            ob += sb[d];
            if idx[d] < out_shape[d] {
                break;
            }
            oc -= sc[d] * out_shape[d];
            oa -= sa[d] * out_shape[d];
            ob -= sb[d] * out_shape[d];
            idx[d] = 0;
        }
    }
    Tensor::new(Data::F32(out), &out_shape)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(v: Vec<f32>, s: &[usize]) -> Tensor {
        Tensor::from_vec_f32(v, s).unwrap()
    }

    #[test]
    fn add_same_shape() {
        let c = add(&t(vec![1.0, 2.0], &[2]), &t(vec![3.0, 4.0], &[2])).unwrap();
        assert_eq!(c.as_f32().unwrap(), &[4.0, 6.0]);
    }

    #[test]
    fn add_broadcast_row() {
        // (2,3) + (3,) broadcasts the row.
        let a = t(vec![1., 2., 3., 4., 5., 6.], &[2, 3]);
        let b = t(vec![10., 20., 30.], &[3]);
        let c = add(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_f32().unwrap(), &[11., 22., 33., 14., 25., 36.]);
    }

    #[test]
    fn add_broadcast_col() {
        // (2,1) + (1,3) -> (2,3): the paper's `(5,1) x (Any,)` example family.
        let a = t(vec![1., 2.], &[2, 1]);
        let b = t(vec![10., 20., 30.], &[1, 3]);
        let c = add(&a, &b).unwrap();
        assert_eq!(c.dims(), &[2, 3]);
        assert_eq!(c.as_f32().unwrap(), &[11., 21., 31., 12., 22., 32.]);
    }

    #[test]
    fn add_scalar() {
        let a = t(vec![1., 2., 3.], &[3]);
        let c = add(&a, &Tensor::scalar_f32(10.0)).unwrap();
        assert_eq!(c.as_f32().unwrap(), &[11., 12., 13.]);
    }

    #[test]
    fn i64_arith() {
        let a = Tensor::from_vec_i64(vec![10, 20], &[2]).unwrap();
        let b = Tensor::from_vec_i64(vec![3, 4], &[2]).unwrap();
        assert_eq!(mul(&a, &b).unwrap().as_i64().unwrap(), &[30, 80]);
        assert_eq!(sub(&a, &b).unwrap().as_i64().unwrap(), &[7, 16]);
        assert_eq!(div(&a, &b).unwrap().as_i64().unwrap(), &[3, 5]);
    }

    #[test]
    fn mixed_dtype_rejected() {
        let a = t(vec![1.0], &[1]);
        let b = Tensor::from_vec_i64(vec![1], &[1]).unwrap();
        assert!(add(&a, &b).is_err());
    }

    #[test]
    fn incompatible_shapes_rejected() {
        assert!(add(&t(vec![1., 2.], &[2]), &t(vec![1., 2., 3.], &[3])).is_err());
    }

    #[test]
    fn comparisons() {
        let a = t(vec![1., 5.], &[2]);
        let b = t(vec![3., 3.], &[2]);
        assert_eq!(less(&a, &b).unwrap().as_bool().unwrap(), &[true, false]);
        assert_eq!(greater(&a, &b).unwrap().as_bool().unwrap(), &[false, true]);
        assert_eq!(equal(&a, &a).unwrap().as_bool().unwrap(), &[true, true]);
    }

    #[test]
    fn logic_ops() {
        let a = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let b = Tensor::from_vec_bool(vec![true, true], &[2]).unwrap();
        assert_eq!(
            logical_and(&a, &b).unwrap().as_bool().unwrap(),
            &[true, false]
        );
        assert_eq!(logical_not(&a).unwrap().as_bool().unwrap(), &[false, true]);
    }

    #[test]
    fn activations() {
        let a = t(vec![-1.0, 0.0, 1.0], &[3]);
        let r = relu(&a).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[0.0, 0.0, 1.0]);
        let s = sigmoid(&a).unwrap();
        assert!((s.as_f32().unwrap()[1] - 0.5).abs() < 1e-6);
        let th = tanh(&a).unwrap();
        assert!((th.as_f32().unwrap()[2] - 0.761_594_2).abs() < 1e-5);
        let g = gelu(&a).unwrap();
        assert!(g.as_f32().unwrap()[0] < 0.0 && g.as_f32().unwrap()[0] > -0.2);
        assert_eq!(g.as_f32().unwrap()[1], 0.0);
    }

    #[test]
    fn where_select_broadcasts() {
        let c = Tensor::from_vec_bool(vec![true, false], &[2]).unwrap();
        let a = t(vec![1.0], &[1]);
        let b = t(vec![9.0], &[1]);
        let r = where_select(&c, &a, &b).unwrap();
        assert_eq!(r.as_f32().unwrap(), &[1.0, 9.0]);
    }

    proptest! {
        #[test]
        fn add_commutes(v in proptest::collection::vec(-100f32..100.0, 1..64)) {
            let n = v.len();
            let a = t(v.clone(), &[n]);
            let b = t(v.iter().rev().cloned().collect(), &[n]);
            let ab = add(&a, &b).unwrap();
            let ba = add(&b, &a).unwrap();
            prop_assert_eq!(ab.as_f32().unwrap(), ba.as_f32().unwrap());
        }

        #[test]
        fn relu_is_idempotent(v in proptest::collection::vec(-10f32..10.0, 1..64)) {
            let n = v.len();
            let a = t(v, &[n]);
            let r1 = relu(&a).unwrap();
            let r2 = relu(&r1).unwrap();
            prop_assert_eq!(r1.as_f32().unwrap(), r2.as_f32().unwrap());
        }

        #[test]
        fn sigmoid_bounded(v in proptest::collection::vec(-50f32..50.0, 1..64)) {
            let n = v.len();
            let s = sigmoid(&t(v, &[n])).unwrap();
            prop_assert!(s.as_f32().unwrap().iter().all(|&x| (0.0..=1.0).contains(&x)));
        }

        #[test]
        fn broadcast_matches_manual(
            rows in 1usize..5, cols in 1usize..5,
            seed in 0u64..1000,
        ) {
            use rand::{Rng, SeedableRng};
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let a: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let b: Vec<f32> = (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
            let out = add(
                &t(a.clone(), &[rows, cols]),
                &t(b.clone(), &[cols]),
            ).unwrap();
            let got = out.as_f32().unwrap();
            for r in 0..rows {
                for c in 0..cols {
                    prop_assert!((got[r * cols + c] - (a[r * cols + c] + b[c])).abs() < 1e-6);
                }
            }
        }
    }
}
