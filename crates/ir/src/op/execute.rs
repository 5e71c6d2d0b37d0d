//! Reference kernel bindings: each registry entry's `execute` maps to the
//! `nimble-tensor` kernel library.

use crate::attrs::Attrs;
use crate::{IrError, Result};
use nimble_tensor::{kernels, DType, Tensor};

fn arg<'a>(inputs: &'a [Tensor], i: usize, op: &str) -> Result<&'a Tensor> {
    inputs
        .get(i)
        .ok_or_else(|| IrError(format!("{op}: missing input {i}")))
}

/// A binary op's fresh-output `$name` and destination-passing `$into`
/// entries, both over the kernel library's `$into`.
macro_rules! binary {
    ($name:ident, $into:ident) => {
        pub(super) fn $name(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
            let mut outs = Vec::with_capacity(1);
            $into(inputs, attrs, &mut outs)?;
            Ok(outs)
        }

        pub(super) fn $into(
            inputs: &[Tensor],
            _attrs: &Attrs,
            outs: &mut Vec<Tensor>,
        ) -> Result<()> {
            let a = arg(inputs, 0, stringify!($name))?;
            let b = arg(inputs, 1, stringify!($name))?;
            Ok(kernels::$into(a, b, outs)?)
        }
    };
}

/// The unary counterpart of `binary!`.
macro_rules! unary {
    ($name:ident, $into:ident) => {
        pub(super) fn $name(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
            let mut outs = Vec::with_capacity(1);
            $into(inputs, attrs, &mut outs)?;
            Ok(outs)
        }

        pub(super) fn $into(
            inputs: &[Tensor],
            _attrs: &Attrs,
            outs: &mut Vec<Tensor>,
        ) -> Result<()> {
            let a = arg(inputs, 0, stringify!($name))?;
            Ok(kernels::$into(a, outs)?)
        }
    };
}

binary!(add, add_into);
binary!(sub, sub_into);
binary!(mul, mul_into);
binary!(div, div_into);
binary!(maximum, maximum_into);
binary!(minimum, minimum_into);
binary!(power, power_into);
binary!(equal, equal_into);
binary!(less, less_into);
binary!(greater, greater_into);
binary!(logical_and, logical_and_into);
unary!(logical_not, logical_not_into);
unary!(neg, neg_into);
unary!(sqrt, sqrt_into);
unary!(tanh, tanh_into);
unary!(sigmoid, sigmoid_into);
unary!(relu, relu_into);
unary!(gelu, gelu_into);
unary!(softmax, softmax_into);

pub(super) fn where_select(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::where_select(
        arg(inputs, 0, "where")?,
        arg(inputs, 1, "where")?,
        arg(inputs, 2, "where")?,
    )?])
}

pub(super) fn dense(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let mut outs = Vec::with_capacity(1);
    dense_into(inputs, attrs, &mut outs)?;
    Ok(outs)
}

pub(super) fn dense_into(inputs: &[Tensor], _attrs: &Attrs, outs: &mut Vec<Tensor>) -> Result<()> {
    let bias = inputs.get(2);
    Ok(kernels::dense_with_epilogue_into(
        arg(inputs, 0, "dense")?,
        arg(inputs, 1, "dense")?,
        bias,
        &[],
        outs,
    )?)
}

pub(super) fn matmul(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let mut outs = Vec::with_capacity(1);
    matmul_into(inputs, attrs, &mut outs)?;
    Ok(outs)
}

pub(super) fn matmul_into(inputs: &[Tensor], _attrs: &Attrs, outs: &mut Vec<Tensor>) -> Result<()> {
    Ok(kernels::matmul_into(
        arg(inputs, 0, "matmul")?,
        arg(inputs, 1, "matmul")?,
        outs,
    )?)
}

pub(super) fn batch_matmul(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let mut outs = Vec::with_capacity(1);
    batch_matmul_into(inputs, attrs, &mut outs)?;
    Ok(outs)
}

pub(super) fn batch_matmul_into(
    inputs: &[Tensor],
    _attrs: &Attrs,
    outs: &mut Vec<Tensor>,
) -> Result<()> {
    Ok(kernels::batch_matmul_into(
        arg(inputs, 0, "batch_matmul")?,
        arg(inputs, 1, "batch_matmul")?,
        outs,
    )?)
}

pub(super) fn concat(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let refs: Vec<&Tensor> = inputs.iter().collect();
    Ok(vec![kernels::concat(
        &refs,
        attrs.int_or("axis", 0) as usize,
    )?])
}

pub(super) fn split(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let mut outs = Vec::new();
    split_into(inputs, attrs, &mut outs)?;
    Ok(outs)
}

pub(super) fn split_into(inputs: &[Tensor], attrs: &Attrs, outs: &mut Vec<Tensor>) -> Result<()> {
    let parts = attrs
        .int("parts")
        .ok_or_else(|| IrError("split: parts attr required".into()))? as usize;
    Ok(kernels::split_into(
        arg(inputs, 0, "split")?,
        parts,
        attrs.int_or("axis", 0) as usize,
        outs,
    )?)
}

pub(super) fn slice(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let begin: Vec<usize> = attrs
        .int_vec("begin")
        .ok_or_else(|| IrError("slice: begin attr required".into()))?
        .iter()
        .map(|&v| v as usize)
        .collect();
    let end: Vec<usize> = attrs
        .int_vec("end")
        .ok_or_else(|| IrError("slice: end attr required".into()))?
        .iter()
        .map(|&v| v as usize)
        .collect();
    Ok(vec![kernels::slice(
        arg(inputs, 0, "slice")?,
        &begin,
        &end,
    )?])
}

pub(super) fn transpose(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let perm: Vec<usize> = attrs
        .int_vec("perm")
        .ok_or_else(|| IrError("transpose: perm attr required".into()))?
        .iter()
        .map(|&v| v as usize)
        .collect();
    Ok(vec![kernels::transpose(
        arg(inputs, 0, "transpose")?,
        &perm,
    )?])
}

pub(super) fn reshape(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let a = arg(inputs, 0, "reshape")?;
    let spec = attrs
        .int_vec("newshape")
        .ok_or_else(|| IrError("reshape: newshape attr required".into()))?;
    // Resolve -1 / -2 against the concrete input shape.
    let mut dims: Vec<usize> = Vec::with_capacity(spec.len());
    let mut infer_at = None;
    for (i, &d) in spec.iter().enumerate() {
        match d {
            -1 => {
                infer_at = Some(i);
                dims.push(1);
            }
            -2 => dims.push(
                *a.dims()
                    .get(i)
                    .ok_or_else(|| IrError("reshape: -2 without input dim".into()))?,
            ),
            d if d >= 0 => dims.push(d as usize),
            _ => return Err(IrError(format!("reshape: invalid dim {d}"))),
        }
    }
    if let Some(i) = infer_at {
        let known: usize = dims
            .iter()
            .enumerate()
            .filter(|&(j, _)| j != i)
            .map(|(_, &d)| d)
            .product();
        if known == 0 || a.volume() % known != 0 {
            return Err(IrError("reshape: volume mismatch".into()));
        }
        dims[i] = a.volume() / known;
    }
    Ok(vec![a.reshaped(&dims)?])
}

pub(super) fn take(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::take(
        arg(inputs, 0, "take")?,
        arg(inputs, 1, "take")?,
    )?])
}

pub(super) fn expand_dims(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::expand_dims(
        arg(inputs, 0, "expand_dims")?,
        attrs.int_or("axis", 0) as usize,
    )?])
}

pub(super) fn squeeze(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::squeeze(
        arg(inputs, 0, "squeeze")?,
        attrs.int_or("axis", 0) as usize,
    )?])
}

pub(super) fn cast(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let to = attrs
        .dtype("to")
        .ok_or_else(|| IrError("cast: to attr required".into()))?;
    Ok(vec![kernels::cast(arg(inputs, 0, "cast")?, to)?])
}

pub(super) fn one_hot(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let depth = attrs
        .int("depth")
        .ok_or_else(|| IrError("one_hot: depth attr required".into()))? as usize;
    Ok(vec![kernels::one_hot(arg(inputs, 0, "one_hot")?, depth)?])
}

pub(super) fn zeros(_inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let shape: Vec<usize> = attrs
        .int_vec("shape")
        .ok_or_else(|| IrError("zeros: shape attr required".into()))?
        .iter()
        .map(|&v| v as usize)
        .collect();
    let dt = attrs.dtype("dtype").unwrap_or(DType::F32);
    Ok(vec![Tensor::zeros(dt, &shape)])
}

pub(super) fn layer_norm(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let mut outs = Vec::with_capacity(1);
    layer_norm_into(inputs, attrs, &mut outs)?;
    Ok(outs)
}

pub(super) fn layer_norm_into(
    inputs: &[Tensor],
    attrs: &Attrs,
    outs: &mut Vec<Tensor>,
) -> Result<()> {
    let eps = attrs.float("eps").unwrap_or(1e-5) as f32;
    Ok(kernels::layer_norm_into(
        arg(inputs, 0, "layer_norm")?,
        arg(inputs, 1, "layer_norm")?,
        arg(inputs, 2, "layer_norm")?,
        eps,
        outs,
    )?)
}

fn reduce_args(attrs: &Attrs) -> (usize, bool) {
    (
        attrs.int_or("axis", 0) as usize,
        attrs.boolean("keepdims").unwrap_or(false),
    )
}

pub(super) fn sum(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let (axis, keep) = reduce_args(attrs);
    Ok(vec![kernels::sum_axis(arg(inputs, 0, "sum")?, axis, keep)?])
}

pub(super) fn max(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let (axis, keep) = reduce_args(attrs);
    Ok(vec![kernels::max_axis(arg(inputs, 0, "max")?, axis, keep)?])
}

pub(super) fn mean(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let (axis, keep) = reduce_args(attrs);
    Ok(vec![kernels::mean_axis(
        arg(inputs, 0, "mean")?,
        axis,
        keep,
    )?])
}

pub(super) fn argmax(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let (axis, _) = reduce_args(attrs);
    Ok(vec![kernels::argmax(arg(inputs, 0, "argmax")?, axis)?])
}

// ---- dynamic-shape operators and their shape functions ----

pub(super) fn arange(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::arange(
        arg(inputs, 0, "arange")?,
        arg(inputs, 1, "arange")?,
        arg(inputs, 2, "arange")?,
    )?])
}

/// Data-dependent shape function for `arange` — needs the input *values*.
pub(super) fn arange_shape(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Vec<usize>>> {
    let s = arg(inputs, 0, "arange")?.scalar_value_f32()?;
    let e = arg(inputs, 1, "arange")?.scalar_value_f32()?;
    let st = arg(inputs, 2, "arange")?.scalar_value_f32()?;
    if st == 0.0 {
        return Err(IrError("arange: zero step".into()));
    }
    Ok(vec![vec![(((e - s) / st).ceil()).max(0.0) as usize]])
}

pub(super) fn unique(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::unique(arg(inputs, 0, "unique")?)?])
}

/// Data-dependent shape function for `unique`.
pub(super) fn unique_shape(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Vec<usize>>> {
    // Computing the shape requires running the dedup itself — this is why
    // data-dependent shape functions cannot be fused past (Section 4.2).
    let out = kernels::unique(arg(inputs, 0, "unique")?)?;
    Ok(vec![out.dims().to_vec()])
}

pub(super) fn boolean_mask(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::boolean_mask(
        arg(inputs, 0, "boolean_mask")?,
        arg(inputs, 1, "boolean_mask")?,
    )?])
}

/// Data-dependent shape function for `boolean_mask` — counts the mask.
pub(super) fn boolean_mask_shape(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Vec<usize>>> {
    let a = arg(inputs, 0, "boolean_mask")?;
    let m = arg(inputs, 1, "boolean_mask")?;
    let rows = m.as_bool()?.iter().filter(|&&b| b).count();
    let mut s = vec![rows];
    s.extend_from_slice(&a.dims()[1..]);
    Ok(vec![s])
}

pub(super) fn nms(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let thresh = attrs.float("iou_threshold").unwrap_or(0.5) as f32;
    let out = kernels::nms(arg(inputs, 0, "nms")?, thresh)?;
    // Slice the upper-bound buffer down to the precise output shape, as
    // Section 4.2 prescribes for upper-bound operators.
    Ok(vec![kernels::slice(&out.boxes, &[0, 0], &[out.count, 5])?])
}

/// Upper-bound shape function for `nms`: at most all boxes survive.
pub(super) fn nms_bound(in_shapes: &[Vec<usize>], _attrs: &Attrs) -> Result<Vec<Vec<usize>>> {
    let s = in_shapes
        .first()
        .ok_or_else(|| IrError("nms: missing input shape".into()))?;
    Ok(vec![s.clone()])
}

// ---- vision ----

pub(super) fn conv2d(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::conv2d(
        arg(inputs, 0, "conv2d")?,
        arg(inputs, 1, "conv2d")?,
        attrs.int_or("stride", 1) as usize,
        attrs.int_or("padding", 0) as usize,
    )?])
}

pub(super) fn max_pool2d(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::max_pool2d(
        arg(inputs, 0, "max_pool2d")?,
        attrs.int_or("kernel", 2) as usize,
        attrs.int_or("stride", 2) as usize,
    )?])
}

pub(super) fn avg_pool2d(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::avg_pool2d(
        arg(inputs, 0, "avg_pool2d")?,
        attrs.int_or("kernel", 2) as usize,
        attrs.int_or("stride", 2) as usize,
    )?])
}

pub(super) fn global_avg_pool(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![kernels::global_avg_pool(arg(
        inputs,
        0,
        "global_avg_pool",
    )?)?])
}

pub(super) fn batch_norm(inputs: &[Tensor], attrs: &Attrs) -> Result<Vec<Tensor>> {
    let eps = attrs.float("eps").unwrap_or(1e-5) as f32;
    Ok(vec![kernels::batch_norm(
        arg(inputs, 0, "batch_norm")?,
        arg(inputs, 1, "batch_norm")?,
        arg(inputs, 2, "batch_norm")?,
        arg(inputs, 3, "batch_norm")?,
        arg(inputs, 4, "batch_norm")?,
        eps,
    )?])
}

// ---- runtime-support ops ----

pub(super) fn shape_of(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![arg(inputs, 0, "shape_of")?.shape_tensor()])
}

/// `device_copy` at the registry level is the identity; the VM performs the
/// actual cross-device transfer when interpreting the `DeviceCopy`
/// instruction.
pub(super) fn device_copy(inputs: &[Tensor], _attrs: &Attrs) -> Result<Vec<Tensor>> {
    Ok(vec![arg(inputs, 0, "device_copy")?.clone()])
}

#[cfg(test)]
mod tests {
    use super::super::lookup;
    use crate::attrs::{AttrValue, Attrs};
    use nimble_tensor::Tensor;

    fn run(op: &str, inputs: &[Tensor], attrs: &Attrs) -> Vec<Tensor> {
        (lookup(op).unwrap().execute)(inputs, attrs).unwrap()
    }

    #[test]
    fn add_through_registry() {
        let a = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec_f32(vec![3.0, 4.0], &[2]).unwrap();
        let out = run("add", &[a, b], &Attrs::new());
        assert_eq!(out[0].as_f32().unwrap(), &[4.0, 6.0]);
    }

    #[test]
    fn reshape_with_inference() {
        let a = Tensor::from_vec_f32((0..6).map(|v| v as f32).collect(), &[6]).unwrap();
        let attrs = Attrs::new().with("newshape", AttrValue::IntVec(vec![2, -1]));
        let out = run("reshape", &[a], &attrs);
        assert_eq!(out[0].dims(), &[2, 3]);
    }

    #[test]
    fn split_multiple_outputs() {
        let a = Tensor::from_vec_f32((0..8).map(|v| v as f32).collect(), &[4, 2]).unwrap();
        let attrs = Attrs::new()
            .with("parts", AttrValue::Int(2))
            .with("axis", AttrValue::Int(0));
        let out = run("split", &[a], &attrs);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].dims(), &[2, 2]);
    }

    #[test]
    fn nms_execute_returns_precise_shape() {
        let boxes = Tensor::from_vec_f32(
            vec![
                0.9, 0.0, 0.0, 10.0, 10.0, 0.8, 1.0, 1.0, 11.0, 11.0, 0.7, 100.0, 100.0, 110.0,
                110.0,
            ],
            &[3, 5],
        )
        .unwrap();
        let attrs = Attrs::new().with("iou_threshold", AttrValue::Float(0.5));
        let out = run("nms", std::slice::from_ref(&boxes), &attrs);
        // Precise shape (2 kept), not the upper bound (3).
        assert_eq!(out[0].dims(), &[2, 5]);
        // But the upper-bound shape function reports the worst case.
        let op = lookup("nms").unwrap();
        match op.shape_fn {
            crate::op::ShapeFnKind::UpperBound(f) => {
                let bound = f(&[vec![3, 5]], &attrs).unwrap();
                assert_eq!(bound, vec![vec![3, 5]]);
            }
            _ => panic!("nms must be upper-bound"),
        }
    }

    #[test]
    fn data_dependent_shape_fns() {
        let op = lookup("unique").unwrap();
        match op.shape_fn {
            crate::op::ShapeFnKind::DataDependent(f) => {
                let x = Tensor::from_vec_i64(vec![5, 5, 2], &[3]).unwrap();
                assert_eq!(f(&[x], &Attrs::new()).unwrap(), vec![vec![2]]);
            }
            _ => panic!("unique must be data-dependent"),
        }
        let op = lookup("arange").unwrap();
        match op.shape_fn {
            crate::op::ShapeFnKind::DataDependent(f) => {
                let shapes = f(
                    &[
                        Tensor::scalar_f32(0.0),
                        Tensor::scalar_f32(10.0),
                        Tensor::scalar_f32(2.0),
                    ],
                    &Attrs::new(),
                )
                .unwrap();
                assert_eq!(shapes, vec![vec![5]]);
            }
            _ => panic!("arange must be data-dependent"),
        }
    }

    #[test]
    fn shape_of_execute() {
        let a = Tensor::zeros(nimble_tensor::DType::F32, &[4, 7]);
        let out = run("shape_of", &[a], &Attrs::new());
        assert_eq!(out[0].as_i64().unwrap(), &[4, 7]);
    }
}
