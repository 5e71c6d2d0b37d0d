//! Tiled single-sweep evaluator for fused elementwise groups.
//!
//! A fused group whose members are all elementwise — optionally behind one
//! leading `dense` anchor — runs as one sweep over the output in tiles of
//! [`TILE`] elements. Each member writes its tile into a stack buffer that
//! later members read, and the last member writes straight into the
//! output — the planned tensor the VM passes in, or a fresh one — so no
//! intermediate tensor is ever built.
//!
//! **Bitwise identity with member-at-a-time interpretation.** The sweep
//! computes every element with the exact operation the registry kernels
//! use for it:
//!
//! * binary members run the same IEEE expression per element (`x + y`,
//!   `x.max(y)`, …) as the broadcasting kernels in
//!   `nimble_tensor::kernels::elementwise`;
//! * unary members run [`vecmath::unary_slice`] over the tile — the
//!   standalone kernels call it over the whole tensor, and its lanes are
//!   independent, so tiling the slice changes no bit;
//! * a `dense` anchor is computed by
//!   [`nimble_tensor::kernels::dense_write`], the registry's own dense
//!   kernel, straight into the output, and the sweep then runs in place
//!   over it.
//!
//! Operands may differ only by leading 1s (a `[n]` bias against a `[1, n]`
//! row) or be single-element scalars; then a flat index addresses the same
//! element in every operand. Any other shape mix, a non-`f32` operand or a
//! rank above [`MAX_RANK`] makes [`Sweep::run_into`] decline, and the
//! caller interprets the group member by member.

use crate::kernel::KernelError;
use nimble_simd::vecmath::{self, UnaryOp};
use nimble_tensor::Tensor;

/// Elements per tile. A multiple of every backend's vector width, so
/// tiles never split a vector.
const TILE: usize = 64;
/// Most members a sweep holds: one stack tile each (8 KiB in total).
const MAX_MEMBERS: usize = 32;
/// Highest operand rank the sweep resolves shapes for on the stack.
const MAX_RANK: usize = 8;

/// Where a fused member finds one of its operands.
#[derive(Clone)]
pub(crate) enum Src {
    /// Positional kernel input.
    Param(usize),
    /// An earlier member's output.
    Member(usize),
    /// Compile-time constant folded into the kernel.
    Const(Tensor),
}

#[derive(Clone, Copy)]
enum Bin {
    Add,
    Sub,
    Mul,
    Div,
    Maximum,
    Minimum,
}

#[derive(Clone, Copy)]
enum Op {
    /// `dense(x, w[, bias])`; only ever member 0.
    Dense,
    Unary(UnaryOp),
    Binary(Bin),
}

impl Op {
    fn of(name: &str, arity: usize) -> Option<Op> {
        let bin = match name {
            "add" => Bin::Add,
            "sub" => Bin::Sub,
            "mul" => Bin::Mul,
            "div" => Bin::Div,
            "maximum" => Bin::Maximum,
            "minimum" => Bin::Minimum,
            "dense" if arity == 2 || arity == 3 => return Some(Op::Dense),
            _ if arity == 1 => return UnaryOp::from_name(name).map(Op::Unary),
            _ => return None,
        };
        (arity == 2).then_some(Op::Binary(bin))
    }
}

/// A compiled sweep plan for one fused group.
pub(crate) struct Sweep {
    members: Vec<(Op, Vec<Src>)>,
}

/// One operand of one member, resolved for the current call.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Slice(&'a [f32]),
    Scalar(f32),
    Member(usize),
}

/// One operand restricted to the current tile.
#[derive(Clone, Copy)]
enum Lane<'a> {
    Slice(&'a [f32]),
    Scalar(f32),
}

impl Sweep {
    /// Plan a sweep over `members` (op name and operands, in order), or
    /// `None` when the group does not qualify: a member that is neither
    /// elementwise nor a leading `dense`, too many members, or a member
    /// whose value nothing reads (its shape would not bound the output).
    pub(crate) fn compile<'a>(
        members: impl Iterator<Item = (&'a str, &'a [Src])>,
    ) -> Option<Sweep> {
        let mut plan = Vec::new();
        for (i, (name, args)) in members.enumerate() {
            let op = Op::of(name, args.len())?;
            if matches!(op, Op::Dense) && i != 0 {
                return None;
            }
            plan.push((op, args.to_vec()));
        }
        if plan.is_empty() || plan.len() > MAX_MEMBERS {
            return None;
        }
        let read = |i: usize| {
            plan[i + 1..]
                .iter()
                .any(|(_, args)| args.iter().any(|a| matches!(a, Src::Member(j) if *j == i)))
        };
        (0..plan.len() - 1)
            .all(read)
            .then_some(Sweep { members: plan })
    }

    /// Evaluate the group over `inputs` in one tiled sweep into output 0
    /// of `outs` (see `nimble_tensor::dest`). `Ok(false)` means the operand
    /// shapes or dtypes are outside what the sweep handles — `outs` is then
    /// untouched and the caller must interpret the group member by member.
    ///
    /// # Errors
    /// Propagates the `dense` anchor's shape and dtype errors, which are
    /// the registry kernel's own, and a planned output of the wrong dims.
    pub(crate) fn run_into(
        &self,
        inputs: &[Tensor],
        outs: &mut Vec<Tensor>,
    ) -> Result<bool, KernelError> {
        let leaf = |src| leaf(src, inputs);
        // The anchor's operands and output dims, built on the stack.
        let anchor = match &self.members[0] {
            (Op::Dense, args) => {
                let (Some(x), Some(w)) = (leaf(&args[0]), leaf(&args[1])) else {
                    return Ok(false);
                };
                if x.rank() == 0 || x.rank() > MAX_RANK || w.rank() != 2 {
                    return Ok(false);
                }
                Some((x, w, args.get(2).and_then(leaf)))
            }
            _ => None,
        };
        let anchored = anchor.is_some();
        let mut dense_dims = [0usize; MAX_RANK];
        let mut dense_rank = 0;
        if let Some((x, w, _)) = anchor {
            dense_rank = x.rank();
            dense_dims[..dense_rank - 1].copy_from_slice(&x.dims()[..dense_rank - 1]);
            dense_dims[dense_rank - 1] = w.dims()[0];
        }
        // Shape admission: every non-scalar operand has the same dims once
        // leading 1s are stripped. The anchor's output never counts as a
        // scalar, because the sweep runs in place over it.
        let mut core: Option<&[usize]> = anchored.then(|| strip_ones(&dense_dims[..dense_rank]));
        let mut rank = dense_rank;
        let mut operands = [[Operand::Scalar(0.0); 2]; MAX_MEMBERS];
        for (slots, (op, args)) in operands.iter_mut().zip(&self.members) {
            if matches!(op, Op::Dense) {
                continue;
            }
            for (slot, src) in slots.iter_mut().zip(args) {
                let Some(t) = leaf(src) else {
                    if let Src::Member(j) = src {
                        *slot = Operand::Member(*j);
                    }
                    continue;
                };
                let Ok(v) = t.as_f32() else {
                    return Ok(false);
                };
                rank = rank.max(t.rank());
                if v.len() == 1 {
                    *slot = Operand::Scalar(v[0]);
                    continue;
                }
                let c = strip_ones(t.dims());
                match core {
                    None => core = Some(c),
                    Some(k) if k == c => {}
                    Some(_) => return Ok(false),
                }
                *slot = Operand::Slice(v);
            }
        }
        let core = core.unwrap_or(&[]);
        if rank > MAX_RANK {
            return Ok(false);
        }
        let mut out_dims = [1usize; MAX_RANK];
        out_dims[rank - core.len()..rank].copy_from_slice(core);
        let out_dims = &out_dims[..rank];
        let len: usize = core.iter().product();

        let buf = nimble_tensor::dest::slot_f32("fused sweep", outs, 0, out_dims)?;
        if let Some((x, w, bias)) = anchor {
            nimble_tensor::kernels::dense_write(x, w, bias, &[], buf)?;
        }
        let isa = nimble_simd::active();
        let last = self.members.len() - 1;
        let mut tiles = [[0.0f32; TILE]; MAX_MEMBERS];
        let mut i0 = 0;
        while i0 < len {
            let t = TILE.min(len - i0);
            if anchored {
                tiles[0][..t].copy_from_slice(&buf[i0..i0 + t]);
            }
            for (mi, (op, _)) in self.members.iter().enumerate().skip(anchored as usize) {
                let (done, rest) = tiles.split_at_mut(mi);
                let lane = |o| lane(o, done, i0..i0 + t);
                let dst = if mi == last {
                    &mut buf[i0..i0 + t]
                } else {
                    &mut rest[0][..t]
                };
                let [a, b] = operands[mi];
                match *op {
                    Op::Unary(u) => {
                        match lane(a) {
                            Lane::Slice(s) => dst.copy_from_slice(s),
                            Lane::Scalar(c) => dst.fill(c),
                        }
                        vecmath::unary_slice(isa, u, dst);
                    }
                    Op::Binary(bin) => bin.apply(dst, lane(a), lane(b)),
                    Op::Dense => unreachable!("dense is only ever member 0"),
                }
            }
            i0 += t;
        }
        Ok(true)
    }
}

/// The tensor behind a leaf operand; `None` for a member.
fn leaf<'a>(src: &'a Src, inputs: &'a [Tensor]) -> Option<&'a Tensor> {
    match src {
        Src::Param(i) => Some(&inputs[*i]),
        Src::Const(t) => Some(t),
        Src::Member(_) => None,
    }
}

/// An operand's elements in the tile `range`; `done` holds the tiles of
/// the members computed so far.
fn lane<'a>(o: Operand<'a>, done: &'a [[f32; TILE]], range: std::ops::Range<usize>) -> Lane<'a> {
    match o {
        Operand::Slice(s) => Lane::Slice(&s[range]),
        Operand::Scalar(c) => Lane::Scalar(c),
        Operand::Member(j) => Lane::Slice(&done[j][..range.len()]),
    }
}

/// `dims` without its leading 1s.
fn strip_ones(dims: &[usize]) -> &[usize] {
    let lead = dims.iter().take_while(|&&d| d == 1).count();
    &dims[lead..]
}

impl Bin {
    /// `dst[i] = a[i] ∘ b[i]`, with the registry kernels' expressions.
    fn apply(self, dst: &mut [f32], a: Lane, b: Lane) {
        match self {
            Bin::Add => zip_with(dst, a, b, |x, y| x + y),
            Bin::Sub => zip_with(dst, a, b, |x, y| x - y),
            Bin::Mul => zip_with(dst, a, b, |x, y| x * y),
            Bin::Div => zip_with(dst, a, b, |x, y| x / y),
            Bin::Maximum => zip_with(dst, a, b, |x, y| x.max(y)),
            Bin::Minimum => zip_with(dst, a, b, |x, y| x.min(y)),
        }
    }
}

#[inline(always)]
fn zip_with(dst: &mut [f32], a: Lane, b: Lane, f: impl Fn(f32, f32) -> f32) {
    match (a, b) {
        (Lane::Slice(a), Lane::Slice(b)) => {
            for ((d, &x), &y) in dst.iter_mut().zip(a).zip(b) {
                *d = f(x, y);
            }
        }
        (Lane::Slice(a), Lane::Scalar(y)) => {
            for (d, &x) in dst.iter_mut().zip(a) {
                *d = f(x, y);
            }
        }
        (Lane::Scalar(x), Lane::Slice(b)) => {
            for (d, &y) in dst.iter_mut().zip(b) {
                *d = f(x, y);
            }
        }
        (Lane::Scalar(x), Lane::Scalar(y)) => dst.fill(f(x, y)),
    }
}

#[cfg(test)]
mod tests {
    //! The sweep against member-at-a-time interpretation through the op
    //! registry — the path fused groups took before the sweep existed and
    //! still take when it declines. Outputs must agree bit for bit,
    //! shapes included, under whatever SIMD backend is active.

    use super::*;
    use nimble_ir::attrs::Attrs;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};

    const BINARY: [&str; 6] = ["add", "sub", "mul", "div", "maximum", "minimum"];
    const UNARY: [&str; 6] = ["tanh", "sigmoid", "relu", "gelu", "neg", "sqrt"];
    const SPECIAL: [f32; 7] = [
        f32::NAN,
        0.0,
        -0.0,
        f32::INFINITY,
        f32::NEG_INFINITY,
        1.0e-41,
        -1.0,
    ];

    /// Registry reference: run each member's op on materialized tensors.
    fn interpret(members: &[(&str, Vec<Src>)], inputs: &[Tensor]) -> Tensor {
        let mut vals: Vec<Tensor> = Vec::new();
        for (name, args) in members {
            let args: Vec<Tensor> = args
                .iter()
                .map(|a| match a {
                    Src::Param(i) => inputs[*i].clone(),
                    Src::Member(j) => vals[*j].clone(),
                    Src::Const(t) => t.clone(),
                })
                .collect();
            let def = nimble_ir::op::lookup(name).unwrap();
            vals.push((def.execute)(&args, &Attrs::new()).unwrap().remove(0));
        }
        vals.pop().unwrap()
    }

    fn swept(members: &[(&str, Vec<Src>)], inputs: &[Tensor]) -> Tensor {
        let sweep = Sweep::compile(members.iter().map(|(n, a)| (*n, &a[..])))
            .expect("group qualifies for the sweep");
        let mut outs = Vec::new();
        assert!(
            sweep.run_into(inputs, &mut outs).unwrap(),
            "shapes qualify for the sweep"
        );
        outs.pop().unwrap()
    }

    fn assert_bitwise(got: &Tensor, want: &Tensor, what: &str) {
        assert_eq!(got.dims(), want.dims(), "{what}: dims");
        for (i, (g, w)) in got
            .as_f32()
            .unwrap()
            .iter()
            .zip(want.as_f32().unwrap())
            .enumerate()
        {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: elem {i}: {g:e} vs {w:e}");
        }
    }

    fn values(rng: &mut StdRng, len: usize, special: f64) -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_bool(special) {
                    *SPECIAL.choose(rng).unwrap()
                } else {
                    rng.gen_range(-4.0f32..4.0)
                }
            })
            .collect()
    }

    /// A random leaf: a full operand whose dims are `core` behind 0-2
    /// leading 1s, or a scalar of rank 0-2.
    fn leaf_tensor(rng: &mut StdRng, core: &[usize], scalar: bool) -> Tensor {
        let lead = rng.gen_range(0usize..3);
        let mut dims = vec![1usize; lead];
        if !scalar {
            dims.extend_from_slice(core);
        }
        let len: usize = dims.iter().product();
        Tensor::from_vec_f32(values(rng, len, 0.1), &dims).unwrap()
    }

    /// A random group over `core`-shaped data. Member `i > first` reads
    /// member `i - 1`, so every member feeds the result; other operands
    /// are params, constants or earlier members.
    fn random_group(
        rng: &mut StdRng,
        core: &[usize],
        anchor: Option<(usize, usize)>,
    ) -> (Vec<(&'static str, Vec<Src>)>, Vec<Tensor>) {
        let mut inputs = Vec::new();
        let mut members: Vec<(&'static str, Vec<Src>)> = Vec::new();
        if let Some((m, k)) = anchor {
            let n = *core.last().unwrap();
            inputs.push(Tensor::from_vec_f32(values(rng, m * k, 0.05), &[m, k]).unwrap());
            let w = Tensor::from_vec_f32(values(rng, n * k, 0.0), &[n, k]).unwrap();
            let mut args = vec![Src::Param(0), Src::Const(w)];
            if rng.gen_bool(0.5) {
                args.push(Src::Const(
                    Tensor::from_vec_f32(values(rng, n, 0.0), &[n]).unwrap(),
                ));
            }
            members.push(("dense", args));
        }
        let count = rng.gen_range(1usize..7);
        for _ in 0..count {
            let mut operand = |rng: &mut StdRng, members: &[(&str, Vec<Src>)]| {
                let pick = rng.gen_range(0usize..4);
                if pick == 0 && !members.is_empty() {
                    return Src::Member(rng.gen_range(0..members.len()));
                }
                let scalar = rng.gen_bool(0.25);
                let t = leaf_tensor(rng, core, scalar);
                if pick == 1 {
                    return Src::Const(t);
                }
                inputs.push(t);
                Src::Param(inputs.len() - 1)
            };
            let first = match members.len() {
                0 => operand(rng, &members),
                n => Src::Member(n - 1),
            };
            if rng.gen_bool(0.5) {
                members.push((UNARY.choose(rng).unwrap(), vec![first]));
            } else {
                let other = operand(rng, &members);
                let mut args = vec![first, other];
                if rng.gen_bool(0.5) {
                    args.swap(0, 1);
                }
                members.push((BINARY.choose(rng).unwrap(), args));
            }
        }
        (members, inputs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Random elementwise groups over lengths that cross the vector
        /// widths and the tile size, with scalars, leading-1 broadcasts
        /// and IEEE special values among the operands.
        #[test]
        fn sweep_matches_registry(seed in 0u64..1_000_000, len in 1usize..300) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (members, inputs) = random_group(&mut rng, &[len], None);
            let want = interpret(&members, &inputs);
            assert_bitwise(&swept(&members, &inputs), &want, &format!("seed {seed} len {len}"));
        }

        /// The same behind a `dense` anchor, with and without a bias; the
        /// anchor's `[1, n]` row meets `[n]` operands.
        #[test]
        fn dense_anchored_sweep_matches_registry(
            seed in 0u64..1_000_000,
            n in 1usize..300,
            k in 1usize..40,
            rows in 1usize..3,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let core: Vec<usize> = if rows == 1 { vec![n] } else { vec![rows, n] };
            let (members, inputs) = random_group(&mut rng, &core, Some((rows, k)));
            let want = interpret(&members, &inputs);
            assert_bitwise(
                &swept(&members, &inputs),
                &want,
                &format!("seed {seed} rows {rows} n {n} k {k}"),
            );
        }
    }

    #[test]
    fn every_op_on_every_special_value() {
        // Every pair of special values meets every binary op (and every
        // special value every unary op), at a length that leaves a ragged
        // final tile.
        let xs: Vec<f32> = SPECIAL.iter().flat_map(|&a| SPECIAL.map(|_| a)).collect();
        let ys: Vec<f32> = SPECIAL.iter().flat_map(|_| SPECIAL).collect();
        let len = xs.len() * 2 + 3;
        let pad = |v: &[f32]| -> Tensor {
            let mut v: Vec<f32> = v.iter().chain(v).copied().collect();
            v.extend([0.5, -2.5, 7.0]);
            Tensor::from_vec_f32(v, &[1, len]).unwrap()
        };
        let inputs = [pad(&xs), pad(&ys)];
        for name in BINARY {
            let members = [(name, vec![Src::Param(0), Src::Param(1)])];
            assert_bitwise(
                &swept(&members, &inputs),
                &interpret(&members, &inputs),
                name,
            );
            let scalar = Src::Const(Tensor::from_vec_f32(vec![-0.0], &[]).unwrap());
            let members = [(name, vec![scalar, Src::Param(1)])];
            assert_bitwise(
                &swept(&members, &inputs),
                &interpret(&members, &inputs),
                name,
            );
        }
        for name in UNARY {
            let members = [(name, vec![Src::Param(0)])];
            assert_bitwise(
                &swept(&members, &inputs),
                &interpret(&members, &inputs),
                name,
            );
        }
    }

    #[test]
    fn declines_what_it_cannot_sweep() {
        // A `dense` after the first member, or a member nothing reads, is
        // not a sweep.
        let late_dense = [
            ("relu", vec![Src::Param(0)]),
            ("dense", vec![Src::Member(0), Src::Param(1)]),
        ];
        assert!(Sweep::compile(late_dense.iter().map(|(n, a)| (*n, &a[..]))).is_none());
        let dead = [("relu", vec![Src::Param(0)]), ("tanh", vec![Src::Param(0)])];
        assert!(Sweep::compile(dead.iter().map(|(n, a)| (*n, &a[..]))).is_none());
        // Operands that broadcast along a non-leading axis, or are not
        // f32, fall back to the registry.
        let add = [("add", vec![Src::Param(0), Src::Param(1)])];
        let sweep = Sweep::compile(add.iter().map(|(n, a)| (*n, &a[..]))).unwrap();
        let row = Tensor::ones_f32(&[3]);
        let mut outs = Vec::new();
        assert!(!sweep
            .run_into(&[Tensor::ones_f32(&[2, 3]), row.clone()], &mut outs)
            .unwrap());
        let ints = Tensor::from_vec_i64(vec![1, 2, 3], &[3]).unwrap();
        assert!(!sweep.run_into(&[ints.clone(), ints], &mut outs).unwrap());
        assert!(outs.is_empty(), "a declined sweep leaves the outputs alone");
        assert!(sweep.run_into(&[row.clone(), row], &mut outs).unwrap());
    }
}
