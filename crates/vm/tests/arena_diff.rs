//! Differential test for the session storage arena: random dynamic-shape
//! programs executed arena-on and arena-off must produce bitwise-identical
//! outputs. Kernels write their outputs straight into arena buffers, and
//! the arena poisons every buffer it hands out (NaN for `f32`), so a
//! kernel that read its output before writing all of it would change a
//! result and fail the comparison — the last test proves the comparison
//! catches exactly that.
//!
//! The programs come from the same recipe family as the root compiler
//! fuzzer: chains of elementwise ops (optionally anchored by a dense)
//! over inputs with a *dynamic* leading dimension, so the planner emits
//! shape functions and `AllocTensorReg` — the dynamic-allocation path the
//! arena exists to amortize. Each program is run several times over
//! several batch sizes through one persistent arena session, which is
//! exactly the serving pattern (warm arena, shapes varying per request).

use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::{Attrs, DType, Expr, Module};
use nimble_tensor::Tensor;
use nimble_vm::{Object, Session, StorageArena, VirtualMachine};
use proptest::prelude::*;
use std::sync::Arc;

const UNARY: [&str; 5] = ["tanh", "sigmoid", "relu", "neg", "gelu"];
const BINARY: [&str; 5] = ["add", "sub", "mul", "maximum", "minimum"];
const COLS: usize = 4;

#[derive(Debug, Clone)]
struct Recipe {
    steps: Vec<(u8, u8, u8)>,
    dense_at: Option<u8>,
}

fn arb_recipe() -> impl Strategy<Value = Recipe> {
    (
        proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10),
        proptest::option::of(any::<u8>()),
    )
        .prop_map(|(steps, dense_at)| Recipe { steps, dense_at })
}

/// Build a module with two dynamic-row inputs from a recipe.
fn build(recipe: &Recipe) -> Module {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(17);
    let mut fb = FunctionBuilder::new("main");
    let p0 = fb.param(
        "a",
        TensorType::with_any(&[None, Some(COLS as u64)], DType::F32),
    );
    let p1 = fb.param(
        "b",
        TensorType::with_any(&[None, Some(COLS as u64)], DType::F32),
    );
    let mut exprs: Vec<Expr> = vec![p0, p1];
    for (i, &(opk, a, b)) in recipe.steps.iter().enumerate() {
        let ai = a as usize % exprs.len();
        let e = if opk % 2 == 0 {
            let name = UNARY[opk as usize % UNARY.len()];
            Expr::call_op(name, vec![exprs[ai].clone()], Attrs::new())
        } else {
            let bi = b as usize % exprs.len();
            let name = BINARY[opk as usize % BINARY.len()];
            Expr::call_op(
                name,
                vec![exprs[ai].clone(), exprs[bi].clone()],
                Attrs::new(),
            )
        };
        if recipe.dense_at.map(|d| d as usize % recipe.steps.len()) == Some(i) {
            let w = Tensor::rand_f32(&mut rng, &[COLS, COLS], 0.3);
            exprs.push(Expr::call_op(
                "dense",
                vec![e, Expr::constant(w)],
                Attrs::new(),
            ));
        } else {
            exprs.push(e);
        }
    }
    let result = exprs.last().unwrap().clone();
    let mut module = Module::new();
    module.add_function("main", fb.finish(result));
    module
}

fn inputs(rows: usize, seed: u64) -> Vec<Object> {
    use rand::SeedableRng;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    vec![
        Object::tensor(Tensor::rand_f32(&mut rng, &[rows, COLS], 1.0)),
        Object::tensor(Tensor::rand_f32(&mut rng, &[rows, COLS], 1.0)),
    ]
}

fn bits_of(obj: &Object) -> Vec<u32> {
    let t = obj.wait_tensor().unwrap();
    let mut bits: Vec<u32> = t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect();
    // Shape is part of the identity too.
    bits.extend(t.dims().iter().map(|&d| d as u32));
    bits
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Arena-on and arena-off agree bit for bit, across repeated runs and
    /// varying dynamic batch sizes, with poisoning active on every
    /// recycled block.
    #[test]
    fn arena_outputs_bitwise_identical(recipe in arb_recipe()) {
        let module = build(&recipe);
        let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        // Poison explicitly on (not just in debug builds): a kernel reading
        // an element of its planned output before writing it would see NaN
        // and diverge.
        let arena = Arc::new(StorageArena::with_poison(true));
        let mut on = Session::with_lane_and_arena(0, Some(Arc::clone(&arena)));
        let mut off = Session::without_arena();
        // Repeats per shape make the second pass land on recycled buffers;
        // the shape sweep exercises cross-shape recycling within classes.
        for rows in [3usize, 1, 5, 3, 8, 5, 1] {
            for rep in 0..2u64 {
                let seed = rows as u64 * 10 + rep;
                let a = vm.run_in(&mut on, "main", inputs(rows, seed)).unwrap();
                let b = vm.run_in(&mut off, "main", inputs(rows, seed)).unwrap();
                prop_assert_eq!(bits_of(&a), bits_of(&b));
            }
        }
        // The program ran 14 times through one arena: allocation reuse
        // must have happened (this is the point of the arena).
        let stats = arena.stats();
        prop_assert!(
            stats.hits > 0,
            "no arena reuse after 14 runs: {:?}",
            stats
        );
        prop_assert!(stats.recycled_bytes > 0);
    }
}

/// A program whose one kernel is `relu(x)`, for the wrong-kernel test.
fn relu_module() -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param(
        "x",
        TensorType::with_any(&[None, Some(COLS as u64)], DType::F32),
    );
    let y = Expr::call_op("relu", vec![x], Attrs::new());
    let mut module = Module::new();
    module.add_function("main", fb.finish(y));
    module
}

/// Swaps every compute kernel for one that *accumulates* into its output
/// (`out += relu(x)`) instead of overwriting it — a destination-passing
/// bug that fresh zeroed outputs hide.
struct Accumulate;

impl nimble_vm::DispatchHook for Accumulate {
    fn intercept(
        &self,
        _kernel: u32,
        _inputs: &[Tensor],
    ) -> Option<nimble_codegen::kernel::Kernel> {
        Some(nimble_codegen::kernel::Kernel::new(
            "accumulate",
            |inputs, outs| {
                let x = inputs[0].as_f32()?;
                let out = nimble_tensor::dest::slot_f32("accumulate", outs, 0, inputs[0].dims())?;
                for (o, &v) in out.iter_mut().zip(x) {
                    *o += v.max(0.0);
                }
                Ok(())
            },
        ))
    }
}

/// The poison makes the differential comparison a real detector: with the
/// accumulating kernel installed, arena-off (fresh zeroed outputs) still
/// computes `relu(x)`, while arena-on reads the NaN-poisoned buffer and
/// disagrees.
#[test]
fn accumulating_kernel_fails_the_arena_comparison() {
    let (exe, _) = compile(&relu_module(), &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let mut on = Session::with_lane_and_arena(0, Some(Arc::new(StorageArena::with_poison(true))));
    let mut off = Session::without_arena();
    let x = || inputs(3, 7).swap_remove(0);
    let want = bits_of(&vm.run_in(&mut off, "main", vec![x()]).unwrap());
    vm.set_dispatch_hook(Some(Arc::new(Accumulate)));
    let wrong_off = bits_of(&vm.run_in(&mut off, "main", vec![x()]).unwrap());
    let wrong_on = bits_of(&vm.run_in(&mut on, "main", vec![x()]).unwrap());
    assert_eq!(
        wrong_off, want,
        "arena-off hides the bug: outputs start zeroed"
    );
    assert_ne!(
        wrong_on, wrong_off,
        "the arena comparison must catch the bug"
    );
    vm.set_dispatch_hook(None);
    assert_eq!(
        bits_of(&vm.run_in(&mut on, "main", vec![x()]).unwrap()),
        want
    );
}

/// Buffers handed out by the arena are poisoned with the NaN pattern, and
/// a dropped tensor's buffer is what the next same-class request gets.
#[test]
fn recycled_buffers_are_poisoned() {
    let arena = Arc::new(StorageArena::with_poison(true));
    let take = |nbytes: usize, len: usize| {
        let home: Arc<dyn nimble_tensor::Recycle> = arena.clone();
        let (data, _) = arena.acquire(DType::F32, nbytes, len);
        Tensor::from_parts(data, nimble_tensor::Shape::new(&[len]), Some(home)).unwrap()
    };
    let mut first = take(256, 64);
    first.as_f32_mut().unwrap().fill(1.5);
    let addr = first.as_f32().unwrap().as_ptr();
    drop(first);
    let second = take(200, 50);
    assert_eq!(
        second.as_f32().unwrap().as_ptr(),
        addr,
        "same-class request must recycle"
    );
    assert_eq!(arena.stats().hits, 1);
    assert!(second
        .as_f32()
        .unwrap()
        .iter()
        .all(|v| v.to_bits() == nimble_vm::arena::POISON_F32_BITS));
}
