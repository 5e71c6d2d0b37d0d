//! Compiled kernels: the executable payload behind `InvokePacked`.
//!
//! A [`Kernel`] is a named closure from input tensors to output tensors,
//! in destination-passing style: [`Kernel::invoke_into`] writes planned
//! outputs in place (the VM's `invoke_mut` convention, paper §4.3) and
//! [`Kernel::invoke`] is a thin wrapper that lets the same closure allocate
//! fresh outputs. Three kinds are produced:
//!
//! * **plain operator kernels** — a thin closure over the registry's
//!   reference implementation;
//! * **symbolic operator kernels** — for dense ops with a dynamic row
//!   dimension, the residue-dispatch kernel set of [`crate::symbolic`]
//!   (Section 4.5);
//! * **fused primitive kernels** — compiled from the fused function bodies
//!   produced by the fusion pass; a fast path applies trailing unary
//!   elementwise ops in place, in a single pass, and elementwise groups
//!   (optionally behind a `dense` anchor) run as one tiled sweep (the
//!   `sweep` module), so fusion eliminates both intermediate allocations
//!   *and* memory traffic.

use crate::sweep::{Src, Sweep};
use crate::symbolic::{DispatchLevel, SymbolicDense};
use nimble_ir::attrs::Attrs;
use nimble_ir::expr::{Expr, ExprKind, Function};
use nimble_ir::op;
use nimble_tensor::Tensor;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// Kernel execution failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelError(pub String);

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel error: {}", self.0)
    }
}

impl std::error::Error for KernelError {}

impl From<nimble_tensor::TensorError> for KernelError {
    fn from(e: nimble_tensor::TensorError) -> Self {
        KernelError(e.to_string())
    }
}

impl From<nimble_ir::IrError> for KernelError {
    fn from(e: nimble_ir::IrError) -> Self {
        KernelError(e.to_string())
    }
}

type KernelFn = dyn Fn(&[Tensor], &mut Vec<Tensor>) -> Result<(), KernelError> + Send + Sync;

/// Where a dense-anchored kernel finds one of its GEMM operands at invoke
/// time: a positional kernel input, or a constant folded into the kernel
/// at compile time (fused primitive functions bake constants in).
#[derive(Clone)]
pub enum ArgSrc {
    /// Positional index into the kernel's input slice.
    Input(usize),
    /// Compile-time constant captured by the fused closure.
    Const(Tensor),
}

impl ArgSrc {
    /// Resolve against a concrete input slice. `Input` past the end
    /// resolves to `None` (the optional-bias case for plain `dense`).
    pub fn resolve<'a>(&'a self, inputs: &'a [Tensor]) -> Option<&'a Tensor> {
        match self {
            ArgSrc::Input(i) => inputs.get(*i),
            ArgSrc::Const(t) => Some(t),
        }
    }
}

impl fmt::Debug for ArgSrc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgSrc::Input(i) => write!(f, "Input({i})"),
            ArgSrc::Const(t) => write!(f, "Const{:?}", t.dims()),
        }
    }
}

/// Shape-specialization metadata: attached to kernels whose hot loop is a
/// single dense GEMM (the symbolic `dense` kernel and the fused
/// dense+unary-epilogue fast path), describing where the GEMM operands
/// live and which scalar epilogue follows. The runtime specializer uses
/// this to build a shape-concretized replacement kernel that computes the
/// same `gemm_packed` + [`nimble_tensor::kernels::gemm::Epilogue`]
/// pipeline with a tuned schedule — bitwise-identical by the schedule
/// invariance of the packed GEMM.
#[derive(Clone, Debug)]
pub struct DenseSpec {
    /// Activation operand `[m.., k]`.
    pub x: ArgSrc,
    /// Weight operand `[n, k]` (transposed-weight dense layout).
    pub w: ArgSrc,
    /// Optional bias `[n]`. `Some(Input(i))` with fewer than `i + 1`
    /// runtime inputs means "no bias on this call".
    pub bias: Option<ArgSrc>,
    /// Epilogue chain applied after the bias add, in order; vectorizable
    /// ops run through the active SIMD backend's vecmath kernels.
    pub unary: Vec<nimble_tensor::UnaryOp>,
}

/// A compiled, invocable kernel.
#[derive(Clone)]
pub struct Kernel {
    name: Arc<str>,
    f: Arc<KernelFn>,
    /// Set when the kernel is a specializable dense anchor.
    spec: Option<Arc<DenseSpec>>,
}

impl fmt::Debug for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Kernel({})", self.name)
    }
}

impl Kernel {
    /// Wrap a destination-passing closure as a kernel; the closure's
    /// output contract is [`Kernel::invoke_into`]'s.
    pub fn new(
        name: &str,
        f: impl Fn(&[Tensor], &mut Vec<Tensor>) -> Result<(), KernelError> + Send + Sync + 'static,
    ) -> Kernel {
        Kernel {
            name: name.into(),
            f: Arc::new(f),
            spec: None,
        }
    }

    /// Attach shape-specialization metadata (builder style).
    fn with_spec(mut self, spec: DenseSpec) -> Kernel {
        self.spec = Some(Arc::new(spec));
        self
    }

    /// Shape-specialization metadata, when this kernel is a dense anchor
    /// the runtime specializer knows how to concretize.
    pub fn dense_spec(&self) -> Option<&Arc<DenseSpec>> {
        self.spec.as_ref()
    }

    /// The kernel's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Execute the kernel into `outputs`: either one planned tensor per
    /// output, which the kernel checks against the dims and dtype it
    /// computes and then overwrites in full, or an empty vector, which
    /// receives freshly allocated outputs (see `nimble_tensor::dest`).
    ///
    /// # Errors
    /// Propagates shape/dtype failures from the underlying computation —
    /// these are the run-time residue of the gradual type checks deferred
    /// by Section 4.1 — and planned outputs that do not match.
    pub fn invoke_into(
        &self,
        inputs: &[Tensor],
        outputs: &mut Vec<Tensor>,
    ) -> Result<(), KernelError> {
        (self.f)(inputs, outputs)
    }

    /// Execute the kernel with fresh outputs — for callers without a
    /// memory plan (verification, the static runtime, tests).
    ///
    /// # Errors
    /// As [`Kernel::invoke_into`].
    pub fn invoke(&self, inputs: &[Tensor]) -> Result<Vec<Tensor>, KernelError> {
        let mut outputs = Vec::new();
        self.invoke_into(inputs, &mut outputs)?;
        Ok(outputs)
    }

    /// Compile a plain operator call into a kernel.
    ///
    /// When `symbolic` is set and the operator is `dense`, the
    /// residue-dispatch symbolic kernel set is used instead of the static
    /// reference kernel.
    ///
    /// # Errors
    /// Fails for unknown operators.
    pub fn from_op(name: &str, attrs: &Attrs, symbolic: bool) -> Result<Kernel, KernelError> {
        if symbolic && name == "dense" {
            return Ok(Kernel::dense_symbolic(DispatchLevel::Dispatch8));
        }
        let def = op::lookup(name)?;
        let attrs = attrs.clone();
        Ok(Kernel::new(name, move |inputs, outs| {
            def.execute_into(inputs, &attrs, outs)
                .map_err(KernelError::from)
        }))
    }

    /// The symbolic dense kernel set with its runtime dispatch function.
    pub fn dense_symbolic(level: DispatchLevel) -> Kernel {
        Kernel::new(
            &format!("dense.symbolic[{}]", level.label()),
            move |inputs, outs| {
                let x = inputs
                    .first()
                    .ok_or_else(|| KernelError("dense: missing input".into()))?;
                let w = inputs
                    .get(1)
                    .ok_or_else(|| KernelError("dense: missing weight".into()))?;
                let d = SymbolicDense::new(w.clone(), inputs.get(2).cloned(), level)?;
                Ok(d.run_into(x, outs)?)
            },
        )
        .with_spec(DenseSpec {
            x: ArgSrc::Input(0),
            w: ArgSrc::Input(1),
            bias: Some(ArgSrc::Input(2)),
            unary: Vec::new(),
        })
    }

    /// Compile a fused primitive function into a single kernel.
    ///
    /// The body is compiled once into a positional step list. A group of
    /// elementwise members, optionally behind a leading `dense`, runs as
    /// one tiled sweep (the `sweep` module); any other group, or operand
    /// shapes the sweep declines, runs as a flat loop over the registry's
    /// function pointers with a `Vec` value environment, no name lookups.
    ///
    /// # Errors
    /// Fails when the body is not a let-chain of operator calls over
    /// parameters, constants, and prior members.
    pub fn from_primitive(func: &Function) -> Result<Kernel, KernelError> {
        // Try the fast path: anchor op followed by pure unary elementwise
        // f32 ops on the running value.
        if let Some(k) = compile_unary_chain(func)? {
            return Ok(k);
        }
        // General path: precompile to positional steps.
        struct Step {
            def: &'static nimble_ir::op::OpDef,
            attrs: Attrs,
            args: Vec<Src>,
        }
        let mut pos_of_param: HashMap<u32, usize> = HashMap::new();
        for (i, p) in func.params.iter().enumerate() {
            pos_of_param.insert(p.id, i);
        }
        let mut pos_of_member: HashMap<u32, usize> = HashMap::new();
        let mut steps: Vec<Step> = Vec::new();
        let mut cur = func.body.clone();
        loop {
            match cur.kind() {
                ExprKind::Let { var, value, body } => {
                    let (name, args, attrs) = value.as_op_call().ok_or_else(|| {
                        KernelError("primitive body must contain only op calls".into())
                    })?;
                    let def = op::lookup(name)?;
                    let srcs = args
                        .iter()
                        .map(|a| match a.kind() {
                            ExprKind::Var(v) => pos_of_param
                                .get(&v.id)
                                .map(|&i| Src::Param(i))
                                .or_else(|| pos_of_member.get(&v.id).map(|&i| Src::Member(i)))
                                .ok_or_else(|| KernelError(format!("unbound {v} in primitive"))),
                            ExprKind::Constant(t) => Ok(Src::Const(t.clone())),
                            other => Err(KernelError(format!(
                                "unsupported primitive argument {other:?}"
                            ))),
                        })
                        .collect::<Result<Vec<_>, _>>()?;
                    pos_of_member.insert(var.id, steps.len());
                    steps.push(Step {
                        def,
                        attrs: attrs.clone(),
                        args: srcs,
                    });
                    cur = body.clone();
                }
                ExprKind::Var(v) => {
                    let result_pos = *pos_of_member
                        .get(&v.id)
                        .ok_or_else(|| KernelError(format!("unbound result {v} in primitive")))?;
                    if result_pos != steps.len() - 1 {
                        return Err(KernelError(
                            "primitive result must be the last member".into(),
                        ));
                    }
                    break;
                }
                other => {
                    return Err(KernelError(format!(
                        "unsupported primitive result {other:?}"
                    )))
                }
            }
        }
        let name = format!(
            "fused({})",
            steps
                .iter()
                .map(|s| s.def.name)
                .collect::<Vec<_>>()
                .join("+")
        );
        let num_params = func.params.len();
        let sweep = Sweep::compile(steps.iter().map(|s| (s.def.name, &s.args[..])));
        Ok(Kernel::new(&name, move |inputs, outs| {
            if inputs.len() != num_params {
                return Err(KernelError(format!(
                    "primitive arity mismatch: {} vs {num_params}",
                    inputs.len()
                )));
            }
            // One tiled sweep when the group and its operand shapes allow
            // it — the loop fusion a compiled kernel performs.
            if let Some(sweep) = &sweep {
                if sweep.run_into(inputs, outs)? {
                    return Ok(());
                }
            }
            // Fallback: member-at-a-time interpretation; the last member
            // writes the kernel's output.
            let mut members: Vec<Tensor> = Vec::with_capacity(steps.len());
            let mut scratch: Vec<Tensor> = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                scratch.clear();
                for src in &step.args {
                    scratch.push(match src {
                        Src::Param(i) => inputs[*i].clone(),
                        Src::Member(i) => members[*i].clone(),
                        Src::Const(t) => t.clone(),
                    });
                }
                if i + 1 == steps.len() {
                    return Ok(step.def.execute_into(&scratch, &step.attrs, outs)?);
                }
                let out = (step.def.execute)(&scratch, &step.attrs)?
                    .into_iter()
                    .next()
                    .ok_or_else(|| KernelError(format!("{} produced no output", step.def.name)))?;
                members.push(out);
            }
            unreachable!("a primitive has at least one member")
        }))
    }
}

/// Interpret a flat ANF body (op calls only) over a tensor environment.
pub fn eval_flat_body(
    body: &Expr,
    env: &mut HashMap<u32, Tensor>,
) -> Result<Vec<Tensor>, KernelError> {
    let mut cur = body.clone();
    loop {
        match cur.kind() {
            ExprKind::Let { var, value, body } => {
                let (name, args, attrs) = value.as_op_call().ok_or_else(|| {
                    KernelError("primitive body must contain only op calls".into())
                })?;
                let def = op::lookup(name)?;
                let inputs: Vec<Tensor> = args
                    .iter()
                    .map(|a| match a.kind() {
                        ExprKind::Var(v) => env
                            .get(&v.id)
                            .cloned()
                            .ok_or_else(|| KernelError(format!("unbound {v} in primitive"))),
                        ExprKind::Constant(t) => Ok(t.clone()),
                        other => Err(KernelError(format!(
                            "unsupported primitive argument {other:?}"
                        ))),
                    })
                    .collect::<Result<_, _>>()?;
                let outs = (def.execute)(&inputs, attrs)?;
                // Multi-output members not supported inside primitives (the
                // fusion pass never creates them).
                let out = outs
                    .into_iter()
                    .next()
                    .ok_or_else(|| KernelError(format!("{name} produced no output")))?;
                env.insert(var.id, out);
                cur = body.clone();
            }
            ExprKind::Var(v) => {
                return Ok(vec![env
                    .get(&v.id)
                    .cloned()
                    .ok_or_else(|| KernelError(format!("unbound result {v}")))?]);
            }
            other => {
                return Err(KernelError(format!(
                    "unsupported primitive result {other:?}"
                )))
            }
        }
    }
}

/// Unary elementwise f32 ops that can be applied in place.
fn unary_inplace(name: &str) -> Option<nimble_tensor::UnaryOp> {
    // `exp` is deliberately excluded: the IR has no bare-exp elementwise op.
    nimble_tensor::UnaryOp::from_name(name)
}

/// Fast path: `anchor(args…)` followed only by unary elementwise members
/// on the running value → run the anchor once, then one in-place sweep
/// applying the composed scalar function.
fn compile_unary_chain(func: &Function) -> Result<Option<Kernel>, KernelError> {
    let mut cur = func.body.clone();
    let mut members: Vec<(String, Vec<Expr>, Attrs)> = Vec::new();
    let mut member_vars: Vec<u32> = Vec::new();
    while let ExprKind::Let { var, value, body } = cur.kind() {
        let Some((name, args, attrs)) = value.as_op_call() else {
            return Ok(None);
        };
        members.push((name.to_string(), args.to_vec(), attrs.clone()));
        member_vars.push(var.id);
        cur = body.clone();
    }
    // Result must be the last member.
    let ExprKind::Var(res) = cur.kind() else {
        return Ok(None);
    };
    if member_vars.last() != Some(&res.id) || members.len() < 2 {
        return Ok(None);
    }
    // Members after the first must be unary-inplace on the previous value.
    let mut fns: Vec<nimble_tensor::UnaryOp> = Vec::new();
    for (i, (name, args, _)) in members.iter().enumerate().skip(1) {
        let Some(f) = unary_inplace(name) else {
            return Ok(None);
        };
        let ok = args.len() == 1
            && matches!(args[0].kind(), ExprKind::Var(v) if v.id == member_vars[i - 1]);
        if !ok {
            return Ok(None);
        }
        fns.push(f);
    }
    // Anchor executes through the registry; its args may reference params
    // and constants only.
    let (anchor_name, anchor_args, anchor_attrs) = members[0].clone();
    let def = op::lookup(&anchor_name)?;
    let param_ids: Vec<u32> = func.params.iter().map(|p| p.id).collect();
    let mut arg_sources: Vec<Result<usize, Tensor>> = Vec::new(); // Ok(param idx) | Err(constant)
    for a in &anchor_args {
        match a.kind() {
            ExprKind::Var(v) => match param_ids.iter().position(|&id| id == v.id) {
                Some(idx) => arg_sources.push(Ok(idx)),
                None => return Ok(None),
            },
            ExprKind::Constant(t) => arg_sources.push(Err(t.clone())),
            _ => return Ok(None),
        }
    }
    let chain_label = members[1..]
        .iter()
        .map(|(n, _, _)| n.as_str())
        .collect::<Vec<_>>()
        .join("+");
    let to_src = |s: &Result<usize, Tensor>| match s {
        Ok(i) => ArgSrc::Input(*i),
        Err(c) => ArgSrc::Const(c.clone()),
    };
    if anchor_name == "dense" && (arg_sources.len() == 2 || arg_sources.len() == 3) {
        // Deeper fusion for the hottest anchor: the bias add and the whole
        // unary chain run inside the GEMM's write-out pass, so the output
        // is touched exactly once (no post-anchor sweep at all).
        let name = format!("fused(dense+{chain_label} epilogue)");
        let spec = DenseSpec {
            x: to_src(&arg_sources[0]),
            w: to_src(&arg_sources[1]),
            bias: arg_sources.get(2).map(to_src),
            unary: fns,
        };
        let ops = spec.clone();
        return Ok(Some(
            Kernel::new(&name, move |inputs, outs| {
                let missing = || KernelError("missing primitive input".into());
                let x = ops.x.resolve(inputs).ok_or_else(missing)?;
                let w = ops.w.resolve(inputs).ok_or_else(missing)?;
                let bias = match &ops.bias {
                    Some(b) => Some(b.resolve(inputs).ok_or_else(missing)?),
                    None => None,
                };
                Ok(nimble_tensor::kernels::dense_with_epilogue_into(
                    x, w, bias, &ops.unary, outs,
                )?)
            })
            .with_spec(spec),
        ));
    }
    let name = format!("fused({anchor_name}+{chain_label} inplace)");
    // The anchor usually reads the kernel's inputs in order; then they
    // pass straight through instead of being gathered per call.
    let in_order = arg_sources
        .iter()
        .enumerate()
        .all(|(i, s)| matches!(s, Ok(j) if *j == i));
    let sources: Vec<ArgSrc> = arg_sources.iter().map(to_src).collect();
    Ok(Some(Kernel::new(&name, move |inputs, outs| {
        if in_order && inputs.len() == sources.len() {
            def.execute_into(inputs, &anchor_attrs, outs)?;
        } else {
            let gathered: Vec<Tensor> = sources
                .iter()
                .map(|src| {
                    src.resolve(inputs)
                        .cloned()
                        .ok_or_else(|| KernelError("missing primitive input".into()))
                })
                .collect::<Result<_, _>>()?;
            def.execute_into(&gathered, &anchor_attrs, outs)?;
        }
        // One in-place sweep applying the whole unary chain, vectorized on
        // the active backend through the shared epilogue-row primitive.
        let out = outs
            .first_mut()
            .ok_or_else(|| KernelError("anchor produced no output".into()))?;
        let buf = out.as_f32_mut()?;
        nimble_simd::vecmath::epilogue_row(nimble_simd::active(), buf, None, &fns);
        Ok(())
    })))
}

#[cfg(test)]
mod tests {
    use super::*;
    use nimble_ir::attrs::AttrValue;
    use nimble_ir::types::Type;
    use nimble_ir::Var;

    #[test]
    fn op_kernel_roundtrip() {
        let k = Kernel::from_op("add", &Attrs::new(), false).unwrap();
        let a = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let b = Tensor::from_vec_f32(vec![3.0, 4.0], &[2]).unwrap();
        let out = k.invoke(&[a, b]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[4.0, 6.0]);
        assert!(Kernel::from_op("not_an_op", &Attrs::new(), false).is_err());
    }

    #[test]
    fn op_kernel_attrs_captured() {
        let attrs = Attrs::new().with("axis", AttrValue::Int(1));
        let k = Kernel::from_op("sum", &attrs, false).unwrap();
        let a = Tensor::from_vec_f32(vec![1., 2., 3., 4.], &[2, 2]).unwrap();
        let out = k.invoke(&[a]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[3.0, 7.0]);
    }

    #[test]
    fn symbolic_dense_selected_for_dynamic() {
        let k = Kernel::from_op("dense", &Attrs::new(), true).unwrap();
        assert!(k.name().starts_with("dense.symbolic"));
        let x = Tensor::ones_f32(&[3, 4]);
        let w = Tensor::ones_f32(&[2, 4]);
        let out = k.invoke(&[x, w]).unwrap();
        assert_eq!(out[0].dims(), &[3, 2]);
        assert!(out[0].as_f32().unwrap().iter().all(|&v| v == 4.0));
    }

    fn chain_func() -> Function {
        // fn(x, w) { let d = dense(x, w); let t = tanh(d); let s =
        // sigmoid(t); s }
        let x = Var::fresh("x", Type::Unknown);
        let w = Var::fresh("w", Type::Unknown);
        let d = Var::fresh("d", Type::Unknown);
        let t = Var::fresh("t", Type::Unknown);
        let s = Var::fresh("s", Type::Unknown);
        let body = Expr::let_(
            d.clone(),
            Expr::call_op("dense", vec![x.to_expr(), w.to_expr()], Attrs::new()),
            Expr::let_(
                t.clone(),
                Expr::call_op("tanh", vec![d.to_expr()], Attrs::new()),
                Expr::let_(
                    s.clone(),
                    Expr::call_op("sigmoid", vec![t.to_expr()], Attrs::new()),
                    s.to_expr(),
                ),
            ),
        );
        Function::new(vec![x, w], body, Type::Unknown)
    }

    #[test]
    fn fused_chain_uses_fast_path_and_matches_reference() {
        let f = chain_func();
        let k = Kernel::from_primitive(&f).unwrap();
        // A dense anchor fuses the chain into the GEMM epilogue.
        assert!(k.name().contains("epilogue"), "name: {}", k.name());
        let x = Tensor::from_vec_f32(vec![0.5, -0.5, 1.0, 2.0], &[2, 2]).unwrap();
        let w = Tensor::from_vec_f32(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let out = k.invoke(&[x.clone(), w.clone()]).unwrap();
        // Reference: sigmoid(tanh(dense(x, w)))
        let d = nimble_tensor::kernels::dense(&x, &w, None).unwrap();
        let t = nimble_tensor::kernels::tanh(&d).unwrap();
        let s = nimble_tensor::kernels::sigmoid(&t).unwrap();
        for (a, b) in out[0].as_f32().unwrap().iter().zip(s.as_f32().unwrap()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn general_primitive_interpretation() {
        // A fused group the fast path rejects (binary second member):
        // fn(a, b) { let s = add(a, b); let m = mul(s, b); m }
        let a = Var::fresh("a", Type::Unknown);
        let b = Var::fresh("b", Type::Unknown);
        let s = Var::fresh("s", Type::Unknown);
        let m = Var::fresh("m", Type::Unknown);
        let body = Expr::let_(
            s.clone(),
            Expr::call_op("add", vec![a.to_expr(), b.to_expr()], Attrs::new()),
            Expr::let_(
                m.clone(),
                Expr::call_op("mul", vec![s.to_expr(), b.to_expr()], Attrs::new()),
                m.to_expr(),
            ),
        );
        let f = Function::new(vec![a, b], body, Type::Unknown);
        let k = Kernel::from_primitive(&f).unwrap();
        assert!(k.name().starts_with("fused("));
        let av = Tensor::from_vec_f32(vec![1.0, 2.0], &[2]).unwrap();
        let bv = Tensor::from_vec_f32(vec![3.0, 4.0], &[2]).unwrap();
        let out = k.invoke(&[av, bv]).unwrap();
        assert_eq!(out[0].as_f32().unwrap(), &[12.0, 24.0]);
    }

    #[test]
    fn primitive_arity_checked() {
        let f = chain_func();
        let k = Kernel::from_primitive(&f).unwrap();
        // Fast-path kernels check indices at gather time.
        assert!(k.invoke(&[Tensor::ones_f32(&[2, 2])]).is_err());
    }
}
