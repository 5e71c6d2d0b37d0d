//! Arena/runtime consistency tests at the compiler level.
//!
//! 1. The memory planner's report agrees with what the interpreter
//!    actually allocates: for loop-free programs, planned storage count
//!    (`storages` + `dynamic_allocs`) is an upper bound on the arena
//!    allocations one request performs — and therefore on the distinct
//!    arena blocks it touches. A planner that under-reported (claimed
//!    more coalescing than lowering delivers) would fail this.
//! 2. The engine's deadline-expiry path releases storage it never ran:
//!    flooding an engine with already-expired requests leaves the worker
//!    arenas at their idle baseline (zero live bytes), and trimming
//!    leaves no retained bytes.

use nimble_core::{compile, CompileOptions, Engine, EngineConfig};
use nimble_device::DeviceSet;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::{Attrs, DType, Expr, Module};
use nimble_tensor::Tensor;
use nimble_vm::{Object, Session, StorageArena, VirtualMachine};
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

const UNARY: [&str; 5] = ["tanh", "sigmoid", "relu", "neg", "gelu"];
const BINARY: [&str; 5] = ["add", "sub", "mul", "maximum", "minimum"];
const COLS: usize = 4;

/// A loop-free elementwise chain over two inputs (recipe as in the
/// compiler fuzzer, minus recursion — so every planned alloc executes
/// exactly once per request). `dynamic` picks dynamic-row inputs (the
/// `AllocTensorReg` path) vs fully static shapes (the coalesced
/// `AllocStorage` path).
fn build(steps: &[(u8, u8, u8)], rows: usize, dynamic: bool) -> Module {
    let mut fb = FunctionBuilder::new("main");
    let ty = if dynamic {
        TensorType::with_any(&[None, Some(COLS as u64)], DType::F32)
    } else {
        TensorType::new(&[rows as u64, COLS as u64], DType::F32)
    };
    let p0 = fb.param("a", ty.clone());
    let p1 = fb.param("b", ty);
    let mut exprs: Vec<Expr> = vec![p0, p1];
    for &(opk, a, b) in steps {
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
        exprs.push(e);
    }
    let result = exprs.last().unwrap().clone();
    let mut module = Module::new();
    module.add_function("main", fb.finish(result));
    module
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn planned_storage_bounds_runtime_arena_blocks(
        steps in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..10),
        rows in 1usize..6,
        dynamic in any::<bool>(),
    ) {
        let module = build(&steps, rows, dynamic);
        for coalesce in [true, false] {
            let opts = CompileOptions { coalesce, ..CompileOptions::default() };
            let (exe, report) = compile(&module, &opts).unwrap();
            let planned = report.memplan.storages + report.memplan.dynamic_allocs;
            let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
            let arena = Arc::new(StorageArena::new());
            let mut session = Session::with_lane_and_arena(0, Some(Arc::clone(&arena)));
            let args = || vec![
                Object::tensor(Tensor::ones_f32(&[rows, COLS])),
                Object::tensor(Tensor::ones_f32(&[rows, COLS])),
            ];
            // Warm-up request, then measure one steady-state request.
            vm.run_in(&mut session, "main", args()).unwrap();
            let before = arena.stats();
            let result = vm.run_in(&mut session, "main", args()).unwrap();
            let after = arena.stats();
            drop(result);
            // Arena allocations in one request ≥ distinct blocks touched,
            // so the planner's storage count bounding allocations bounds
            // blocks too.
            let allocs = (after.hits + after.misses) - (before.hits + before.misses);
            prop_assert!(
                planned as u64 >= allocs,
                "coalesce={coalesce} dynamic={dynamic}: planner reported \
                 {planned} storages but one request performed {allocs} \
                 arena allocations"
            );
        }
    }
}

/// Dynamic two-op chain used by the expiry test: completed requests
/// exercise `AllocTensorReg` through the worker arenas.
fn dynamic_module() -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param("x", TensorType::with_any(&[None, Some(4)], DType::F32));
    let a = Expr::call_op("tanh", vec![x], Attrs::new());
    let b = Expr::call_op("relu", vec![a], Attrs::new());
    let mut m = Module::new();
    m.add_function("main", fb.finish(b));
    m
}

#[test]
fn expired_requests_release_storage_to_idle_baseline() {
    let devices = Arc::new(DeviceSet::cpu_only());
    let (exe, _) = compile(&dynamic_module(), &CompileOptions::default()).unwrap();
    let vm = Arc::new(VirtualMachine::new(exe, Arc::clone(&devices)).unwrap());
    let engine = Engine::new(
        Arc::clone(&vm),
        EngineConfig {
            workers: 2,
            queue_capacity: 256,
            max_batch: 4,
        },
    )
    .unwrap();
    let arg = |rows: usize| vec![Object::tensor(Tensor::ones_f32(&[rows, 4]))];

    // Warm the arenas with real traffic and establish the idle baseline.
    let warm: Vec<_> = (0..16)
        .map(|i| engine.submit("main", arg(1 + i % 5)))
        .collect();
    for t in warm {
        t.wait().unwrap().result.unwrap();
    }
    let idle = engine.arena_stats();
    assert_eq!(idle.live_bytes, 0, "warmup left storage live: {idle:?}");

    // Flood with requests whose deadline has already passed: none may
    // execute, and none may strand the storage carried by their argument
    // tensors or allocated on their behalf.
    let past = Instant::now() - Duration::from_millis(1);
    let flood: Vec<_> = (0..200)
        .map(|i| engine.submit_with_deadline("main", arg(1 + i % 7), past))
        .collect();
    let mut expired = 0;
    for t in flood {
        match t.wait() {
            Err(nimble_core::EngineError::Expired) => expired += 1,
            other => panic!("expected Expired, got {other:?}"),
        }
    }
    assert_eq!(expired, 200);

    // The moment every Expired reply has been observed, memory is already
    // back at the idle baseline — the worker drops an expired request's
    // payload *before* replying.
    let stats = engine.arena_stats();
    assert_eq!(
        stats.live_bytes, 0,
        "expired requests leaked storage: {stats:?}"
    );
    assert_eq!(
        stats.hits + stats.misses,
        idle.hits + idle.misses,
        "expired requests must not allocate"
    );

    // Shutdown trims the arenas: every recycled buffer is freed.
    engine.shutdown();
    let final_stats = engine.arena_stats();
    assert_eq!(final_stats.retained_bytes, 0);
    assert_eq!(final_stats.retained_blocks, 0);
    assert_eq!(final_stats.live_bytes, 0, "buffers live after shutdown");
}
