//! Property tests for the session storage arena.
//!
//! 1. Under random alloc/kill sequences, no two live tensors ever share
//!    an arena buffer (a double-pop or double-park bug would hand one
//!    buffer to two owners).
//! 2. `live_bytes` accounting is exact: at every step the arena's gauge
//!    equals the summed capacity of the live tensors' buffers, and it
//!    returns to zero once every tensor is gone; trimming then frees every
//!    parked buffer (the leak check).
//! 3. The same holds at the VM level: after running programs through an
//!    arena session and dropping every result and the session, the arena
//!    holds no live bytes and trims to zero.

use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::{Attrs, DType, Module};
use nimble_tensor::{Recycle, Shape, Tensor};
use nimble_vm::arena::size_class;
use nimble_vm::{Object, Session, StorageArena, VirtualMachine};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::Arc;

/// One step of a random allocation workload: allocate a tensor of `size`
/// bytes, or kill the live tensor at `victim` (modulo the live count).
#[derive(Debug, Clone)]
enum Step {
    Alloc(usize),
    Kill(usize),
}

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        prop_oneof![
            (1usize..300_000).prop_map(Step::Alloc),
            (0usize..64).prop_map(Step::Kill),
        ],
        1..120,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn no_aliasing_and_exact_live_accounting(steps in arb_steps()) {
        let arena = Arc::new(StorageArena::with_poison(true));
        let mut live: Vec<(usize, Tensor)> = Vec::new();
        for step in steps {
            match step {
                Step::Alloc(size) => {
                    let len = size.div_ceil(4);
                    let home: Arc<dyn Recycle> = arena.clone();
                    let (data, _) = arena.acquire(DType::F32, size, len);
                    live.push((size, Tensor::from_parts(data, Shape::new(&[len]), Some(home)).unwrap()));
                }
                Step::Kill(victim) => {
                    if !live.is_empty() {
                        live.swap_remove(victim % live.len());
                    }
                }
            }
            // No two live tensors share a buffer.
            let mut addrs = HashSet::new();
            for (_, t) in &live {
                let addr = t.as_f32().unwrap().as_ptr() as usize;
                prop_assert!(addrs.insert(addr), "two live tensors alias {addr:#x}");
            }
            // The live gauge matches the summed class capacity exactly.
            let expected: u64 = live
                .iter()
                .map(|(size, _)| size_class(size.div_ceil(4) * 4) as u64)
                .sum();
            prop_assert_eq!(arena.live_bytes(), expected);
        }
        // Kill everything: the arena must read zero live bytes…
        live.clear();
        prop_assert_eq!(arena.live_bytes(), 0);
        // …and trimming must free every parked buffer.
        let retained = arena.retained_bytes();
        prop_assert_eq!(arena.trim(), retained);
        prop_assert_eq!(arena.stats().retained_blocks, 0);
    }
}

fn dynamic_chain_module() -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::with_any(&[None, Some(4)], DType::F32));
    let a = nimble_ir::Expr::call_op("tanh", vec![x], Attrs::new());
    let b = nimble_ir::Expr::call_op("relu", vec![a.clone()], Attrs::new());
    let c = nimble_ir::Expr::call_op("add", vec![a, b], Attrs::new());
    let mut m = Module::new();
    m.add_function("main", fb.finish(c));
    m
}

#[test]
fn session_drop_returns_live_bytes_to_zero() {
    let (exe, _) = compile(&dynamic_chain_module(), &CompileOptions::default()).unwrap();
    let devices = Arc::new(DeviceSet::cpu_only());
    let vm = VirtualMachine::new(exe, Arc::clone(&devices)).unwrap();
    let arena = Arc::new(StorageArena::with_poison(true));
    {
        let mut session = Session::with_lane_and_arena(0, Some(Arc::clone(&arena)));
        let mut results = Vec::new();
        for rows in [2usize, 6, 2, 6, 3] {
            let x = Object::tensor(Tensor::ones_f32(&[rows, 4]));
            results.push(vm.run_in(&mut session, "main", vec![x]).unwrap());
        }
        // Results (arena buffers escaped to the caller) are still alive.
        assert!(arena.live_bytes() > 0);
        drop(results);
        drop(session);
    }
    // Every tensor is gone: nothing is live through the arena.
    assert_eq!(arena.live_bytes(), 0, "leaked buffer: {:?}", arena.stats());
    // Trim frees the recycled buffers.
    arena.trim();
    assert_eq!(arena.retained_bytes(), 0);
    assert_eq!(arena.stats().retained_blocks, 0);
}
