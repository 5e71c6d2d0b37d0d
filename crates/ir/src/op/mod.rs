//! The operator registry: type relations, shape functions, fusion patterns
//! and reference kernel implementations for every primitive operator.
//!
//! Each operator carries the four pieces of metadata the paper's compiler
//! needs:
//!
//! 1. a **type relation** (Section 4.1) used by type inference to propagate
//!    shapes — including `Any` — bidirectionally;
//! 2. a **shape function** (Section 4.2) in one of three modes, executed at
//!    run time to size allocations;
//! 3. a **fusion pattern** used by the fusion pass (and its dynamic-aware
//!    fusion policy);
//! 4. a reference **kernel** that computes the operator on CPU tensors.

pub mod relations;

mod execute;

use crate::attrs::Attrs;
use crate::types::Type;
use crate::{IrError, Result};
use nimble_tensor::{DType, Tensor};
use std::collections::HashMap;
use std::sync::OnceLock;

/// Fusion pattern of an operator, following the TVM taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FusePattern {
    /// Pure elementwise map (same-shape in/out).
    Elemwise,
    /// Elementwise with broadcasting.
    Broadcast,
    /// Bijective data movement (transpose, reshape, concat…).
    Injective,
    /// Axis-collapsing computation (softmax, sums, pooling).
    Reduction,
    /// Compute-heavy anchor that can absorb following elementwise ops
    /// (dense, conv2d).
    OutEwiseFusable,
    /// Never fused.
    Opaque,
}

/// Type signature of a type-relation function.
pub type RelFn = fn(&[Type], &Attrs) -> Result<Type>;
/// Kernel implementation: input tensors → output tensors.
pub type ExecFn = fn(&[Tensor], &Attrs) -> Result<Vec<Tensor>>;
/// Destination-passing kernel implementation: writes the outputs in
/// `outs` in place, or pushes fresh ones when `outs` is empty
/// (`nimble_tensor::dest`).
pub type IntoFn = fn(&[Tensor], &Attrs, &mut Vec<Tensor>) -> Result<()>;
/// Data-dependent shape function: input *values* → output shapes.
pub type DataShapeFn = fn(&[Tensor], &Attrs) -> Result<Vec<Vec<usize>>>;
/// Upper-bound shape function: input shapes → upper-bound output shapes.
pub type BoundShapeFn = fn(&[Vec<usize>], &Attrs) -> Result<Vec<Vec<usize>>>;

/// The shape-function mode of an operator (paper Section 4.2).
#[derive(Clone, Copy)]
pub enum ShapeFnKind {
    /// Output shapes depend only on input shapes; derived automatically
    /// from the type relation applied to fully static inputs.
    DataIndependent,
    /// Output shapes require the input *values* (`arange`, `unique`).
    DataDependent(DataShapeFn),
    /// Computing the exact output shape is as costly as the op itself
    /// (`nms`); a cheap upper bound is used for allocation and the kernel
    /// reports the precise shape.
    UpperBound(BoundShapeFn),
}

impl std::fmt::Debug for ShapeFnKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShapeFnKind::DataIndependent => write!(f, "DataIndependent"),
            ShapeFnKind::DataDependent(_) => write!(f, "DataDependent"),
            ShapeFnKind::UpperBound(_) => write!(f, "UpperBound"),
        }
    }
}

/// Registry entry for one primitive operator.
pub struct OpDef {
    /// Operator name as it appears in `Call` expressions.
    pub name: &'static str,
    /// Type relation.
    pub rel: RelFn,
    /// Shape-function mode.
    pub shape_fn: ShapeFnKind,
    /// Fusion pattern.
    pub pattern: FusePattern,
    /// Reference kernel.
    pub execute: ExecFn,
    /// Destination-passing form of `execute`, for the ops whose kernels
    /// write planned outputs in place; see [`OpDef::execute_into`].
    pub into: Option<IntoFn>,
}

impl std::fmt::Debug for OpDef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OpDef")
            .field("name", &self.name)
            .field("shape_fn", &self.shape_fn)
            .field("pattern", &self.pattern)
            .finish()
    }
}

impl OpDef {
    /// Run the kernel into `outs`: planned tensors (one per output) are
    /// overwritten in place, an empty `outs` receives fresh outputs.
    ///
    /// Ops with a destination-passing kernel write in place; every other
    /// op computes fresh results and this one adapter copies them into the
    /// planned tensors after checking dims and dtype, except that a view
    /// of an input (`reshape`, `expand_dims`, `squeeze`) replaces its
    /// planned tensor without a copy. An upper-bound op
    /// (`nms`) reports its precise, smaller shape, so its results replace
    /// the bound-sized planned tensors instead.
    ///
    /// # Errors
    /// Propagates kernel failures and planned-output mismatches.
    pub fn execute_into(
        &self,
        inputs: &[Tensor],
        attrs: &Attrs,
        outs: &mut Vec<Tensor>,
    ) -> Result<()> {
        if let Some(into) = self.into {
            return into(inputs, attrs, outs);
        }
        let results = (self.execute)(inputs, attrs)?;
        if matches!(self.shape_fn, ShapeFnKind::UpperBound(_)) {
            *outs = results;
            return Ok(());
        }
        Ok(nimble_tensor::dest::deliver(
            self.name, inputs, results, outs,
        )?)
    }

    /// True when fusing *through* this op's output is forbidden because its
    /// shape function needs intermediate values — the explicit fusion
    /// policy of Section 4.2.
    pub fn is_fusion_barrier(&self) -> bool {
        !matches!(self.shape_fn, ShapeFnKind::DataIndependent)
    }

    /// Run the data-independent shape function: apply the type relation to
    /// fully static input types and read the static output shapes back.
    ///
    /// # Errors
    /// Fails for non-data-independent ops, or when the relation rejects the
    /// shapes (this is where the paper's deferred/gradual type checks
    /// surface at run time).
    pub fn infer_shapes(
        &self,
        in_shapes: &[Vec<usize>],
        in_dtypes: &[DType],
        attrs: &Attrs,
    ) -> Result<Vec<Vec<usize>>> {
        if !matches!(self.shape_fn, ShapeFnKind::DataIndependent) {
            return Err(IrError(format!(
                "{} does not have a data-independent shape function",
                self.name
            )));
        }
        let types: Vec<Type> = in_shapes
            .iter()
            .zip(in_dtypes.iter())
            .map(|(s, &dt)| {
                Type::Tensor(crate::types::TensorType::new(
                    &s.iter().map(|&d| d as u64).collect::<Vec<_>>(),
                    dt,
                ))
            })
            .collect();
        let out = (self.rel)(&types, attrs)?;
        flatten_static_shapes(&out)
    }
}

/// Extract concrete output shapes from a (tuple of) static tensor type(s).
fn flatten_static_shapes(ty: &Type) -> Result<Vec<Vec<usize>>> {
    match ty {
        Type::Tensor(t) => {
            let s = t
                .static_shape()
                .ok_or_else(|| IrError(format!("shape function produced dynamic type {t}")))?;
            Ok(vec![s])
        }
        Type::Tuple(ts) => {
            let mut out = Vec::with_capacity(ts.len());
            for t in ts {
                out.extend(flatten_static_shapes(t)?);
            }
            Ok(out)
        }
        other => Err(IrError(format!("shape function produced {other}"))),
    }
}

macro_rules! ops {
    ($($name:literal => ($rel:expr, $shape:expr, $pattern:expr, $exec:expr $(, $into:expr)?)),+ $(,)?) => {{
        let mut m: HashMap<&'static str, OpDef> = HashMap::new();
        $(
            m.insert($name, OpDef {
                name: $name,
                rel: $rel,
                shape_fn: $shape,
                pattern: $pattern,
                execute: $exec,
                into: None $(.or(Some($into)))?,
            });
        )+
        m
    }};
}

fn build_registry() -> HashMap<&'static str, OpDef> {
    use execute as ex;
    use relations as rel;
    use FusePattern::*;
    use ShapeFnKind::*;
    ops! {
        // ---- elementwise / broadcast arithmetic ----
        "add"         => (rel::broadcast, DataIndependent, Broadcast, ex::add, ex::add_into),
        "sub"         => (rel::broadcast, DataIndependent, Broadcast, ex::sub, ex::sub_into),
        "mul"         => (rel::broadcast, DataIndependent, Broadcast, ex::mul, ex::mul_into),
        "div"         => (rel::broadcast, DataIndependent, Broadcast, ex::div, ex::div_into),
        "maximum"     => (rel::broadcast, DataIndependent, Broadcast, ex::maximum, ex::maximum_into),
        "minimum"     => (rel::broadcast, DataIndependent, Broadcast, ex::minimum, ex::minimum_into),
        "power"       => (rel::broadcast, DataIndependent, Broadcast, ex::power, ex::power_into),
        "equal"       => (rel::broadcast_bool, DataIndependent, Broadcast, ex::equal, ex::equal_into),
        "less"        => (rel::broadcast_bool, DataIndependent, Broadcast, ex::less, ex::less_into),
        "greater"     => (rel::broadcast_bool, DataIndependent, Broadcast, ex::greater, ex::greater_into),
        "logical_and" => (rel::broadcast, DataIndependent, Broadcast, ex::logical_and, ex::logical_and_into),
        "logical_not" => (rel::identity, DataIndependent, Elemwise, ex::logical_not, ex::logical_not_into),
        "where"       => (rel::where_rel, DataIndependent, Broadcast, ex::where_select),
        // ---- elementwise unary ----
        "neg"     => (rel::identity, DataIndependent, Elemwise, ex::neg, ex::neg_into),
        "sqrt"    => (rel::identity, DataIndependent, Elemwise, ex::sqrt, ex::sqrt_into),
        "tanh"    => (rel::identity, DataIndependent, Elemwise, ex::tanh, ex::tanh_into),
        "sigmoid" => (rel::identity, DataIndependent, Elemwise, ex::sigmoid, ex::sigmoid_into),
        "relu"    => (rel::identity, DataIndependent, Elemwise, ex::relu, ex::relu_into),
        "gelu"    => (rel::identity, DataIndependent, Elemwise, ex::gelu, ex::gelu_into),
        // ---- linear algebra ----
        "dense"        => (rel::dense, DataIndependent, OutEwiseFusable, ex::dense, ex::dense_into),
        "matmul"       => (rel::matmul, DataIndependent, OutEwiseFusable, ex::matmul, ex::matmul_into),
        "batch_matmul" => (rel::batch_matmul, DataIndependent, OutEwiseFusable, ex::batch_matmul, ex::batch_matmul_into),
        // ---- data movement ----
        "concat"      => (rel::concat, DataIndependent, Injective, ex::concat),
        "split"       => (rel::split, DataIndependent, Injective, ex::split, ex::split_into),
        "slice"       => (rel::slice, DataIndependent, Injective, ex::slice),
        "transpose"   => (rel::transpose, DataIndependent, Injective, ex::transpose),
        "reshape"     => (rel::reshape, DataIndependent, Injective, ex::reshape),
        "take"        => (rel::take, DataIndependent, Injective, ex::take),
        "expand_dims" => (rel::expand_dims, DataIndependent, Injective, ex::expand_dims),
        "squeeze"     => (rel::squeeze, DataIndependent, Injective, ex::squeeze),
        "cast"        => (rel::cast, DataIndependent, Elemwise, ex::cast),
        "one_hot"     => (rel::one_hot, DataIndependent, Injective, ex::one_hot),
        "zeros"       => (rel::zeros, DataIndependent, Opaque, ex::zeros),
        // ---- reductions / normalization ----
        "softmax"    => (rel::identity, DataIndependent, Reduction, ex::softmax, ex::softmax_into),
        "layer_norm" => (rel::layer_norm, DataIndependent, Reduction, ex::layer_norm, ex::layer_norm_into),
        "sum"        => (rel::reduce, DataIndependent, Reduction, ex::sum),
        "max"        => (rel::reduce, DataIndependent, Reduction, ex::max),
        "mean"       => (rel::reduce, DataIndependent, Reduction, ex::mean),
        "argmax"     => (rel::argmax, DataIndependent, Reduction, ex::argmax),
        // ---- dynamic-output-shape operators ----
        "arange"       => (rel::arange, DataDependent(ex::arange_shape), Opaque, ex::arange),
        "unique"       => (rel::unique, DataDependent(ex::unique_shape), Opaque, ex::unique),
        "boolean_mask" => (rel::boolean_mask, DataDependent(ex::boolean_mask_shape), Opaque, ex::boolean_mask),
        "nms"          => (rel::nms, UpperBound(ex::nms_bound), Opaque, ex::nms),
        // ---- vision ----
        "conv2d"          => (rel::conv2d, DataIndependent, OutEwiseFusable, ex::conv2d),
        "max_pool2d"      => (rel::pool2d, DataIndependent, Reduction, ex::max_pool2d),
        "avg_pool2d"      => (rel::pool2d, DataIndependent, Reduction, ex::avg_pool2d),
        "global_avg_pool" => (rel::global_avg_pool, DataIndependent, Reduction, ex::global_avg_pool),
        "batch_norm"      => (rel::batch_norm, DataIndependent, Broadcast, ex::batch_norm),
        // ---- runtime-support ops inserted by passes (Section 4.4) ----
        "shape_of"    => (rel::shape_of, DataIndependent, Opaque, ex::shape_of),
        "device_copy" => (rel::identity, DataIndependent, Opaque, ex::device_copy),
    }
}

static REGISTRY: OnceLock<HashMap<&'static str, OpDef>> = OnceLock::new();

/// The global operator registry.
pub fn registry() -> &'static HashMap<&'static str, OpDef> {
    REGISTRY.get_or_init(build_registry)
}

/// Look up an operator by name.
///
/// # Errors
/// Fails when the operator is not registered.
pub fn lookup(name: &str) -> Result<&'static OpDef> {
    registry()
        .get(name)
        .ok_or_else(|| IrError(format!("unknown operator {name}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrs::AttrValue;

    #[test]
    fn registry_has_core_ops() {
        for op in [
            "add", "dense", "concat", "arange", "unique", "nms", "conv2d", "shape_of", "softmax",
            "take", "where",
        ] {
            assert!(lookup(op).is_ok(), "missing op {op}");
        }
        assert!(lookup("nonexistent_op").is_err());
        assert!(
            registry().len() >= 40,
            "registry has {} ops",
            registry().len()
        );
    }

    #[test]
    fn fusion_barriers_match_shape_fn_modes() {
        assert!(!lookup("add").unwrap().is_fusion_barrier());
        assert!(!lookup("dense").unwrap().is_fusion_barrier());
        assert!(lookup("arange").unwrap().is_fusion_barrier());
        assert!(lookup("unique").unwrap().is_fusion_barrier());
        assert!(lookup("nms").unwrap().is_fusion_barrier());
    }

    #[test]
    fn data_independent_shape_fn_from_relation() {
        let op = lookup("add").unwrap();
        let out = op
            .infer_shapes(
                &[vec![2, 3], vec![3]],
                &[DType::F32, DType::F32],
                &Attrs::new(),
            )
            .unwrap();
        assert_eq!(out, vec![vec![2, 3]]);
        // Runtime-deferred check: incompatible concrete shapes now fail.
        assert!(op
            .infer_shapes(
                &[vec![2], vec![3]],
                &[DType::F32, DType::F32],
                &Attrs::new()
            )
            .is_err());
    }

    #[test]
    fn split_shape_fn_multiple_outputs() {
        let op = lookup("split").unwrap();
        let out = op
            .infer_shapes(
                &[vec![4, 6]],
                &[DType::F32],
                &Attrs::new()
                    .with("parts", AttrValue::Int(2))
                    .with("axis", AttrValue::Int(1)),
            )
            .unwrap();
        assert_eq!(out, vec![vec![4, 3], vec![4, 3]]);
    }

    #[test]
    fn data_dependent_rejects_shape_only_query() {
        let op = lookup("arange").unwrap();
        assert!(op
            .infer_shapes(&[vec![], vec![], vec![]], &[DType::F32; 3], &Attrs::new())
            .is_err());
    }
}
