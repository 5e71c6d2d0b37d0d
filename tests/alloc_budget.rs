//! Allocation budget of the VM's hot path: LSTM (32/32) and Tree-LSTM
//! (64/64) requests through one held session, after warm-up.
//!
//! Planned storage is the tensor data — kernels write into arena buffers
//! and register copies do not allocate — so a warm request allocates only
//! what the program builds per step (list cells, argument frames, shape
//! tensors) and never a fresh element buffer. The test counts the heap
//! allocations made on the running thread with its own counting global
//! allocator and asserts, per model:
//!
//! * allocations per token (Tree-LSTM: per node) stay at or below a
//!   ceiling — the value measured when the budget was set, plus 25%;
//! * the session arena misses nothing (every planned buffer is recycled).

use nimble::compiler::{compile, CompileOptions};
use nimble::device::DeviceSet;
use nimble::models::data::list_object;
use nimble::models::{LstmConfig, LstmModel, TreeLstmConfig, TreeLstmModel};
use nimble::tensor::Tensor;
use nimble::vm::{Object, Session, StorageArena, VirtualMachine};
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Counts allocations made by the current thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// One request: VM arguments, work units, reference output.
struct Request {
    args: Vec<Object>,
    tokens: u64,
    want: Tensor,
}

/// Run `requests` twice through one held arena session — a warm-up pass,
/// then a counted pass — and return (allocations per token, arena
/// misses in the counted pass).
fn measure(module: &nimble::ir::Module, requests: &[Request]) -> (f64, u64) {
    let (exe, _) = compile(module, &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let arena = Arc::new(StorageArena::new());
    let mut session = Session::with_lane_and_arena(0, Some(Arc::clone(&arena)));
    let mut counted = 0u64;
    let mut tokens = 0u64;
    for pass in 0..2 {
        if pass == 1 {
            arena.reset_stats();
        }
        for req in requests {
            let args = req.args.clone();
            let before = allocs();
            let out = vm.run_in(&mut session, "main", args).unwrap();
            let got = out.wait_tensor().unwrap();
            drop(out);
            let after = allocs();
            if pass == 1 {
                counted += after - before;
                tokens += req.tokens;
            }
            assert_eq!(got.dims(), req.want.dims());
            for (a, b) in got.as_f32().unwrap().iter().zip(req.want.as_f32().unwrap()) {
                assert!((a - b).abs() < 1e-4, "output differs from the reference");
            }
        }
    }
    (counted as f64 / tokens as f64, arena.stats().misses)
}

/// Allocations per LSTM token measured when the budget was set: 15.1.
const LSTM_CEILING: f64 = 15.1 * 1.25;
/// Allocations per Tree-LSTM node measured when the budget was set: 15.5.
const TREE_CEILING: f64 = 15.5 * 1.25;

#[test]
fn lstm_allocations_per_token_within_budget() {
    let model = LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let requests: Vec<Request> = [5usize, 26, 13, 40, 26, 8]
        .iter()
        .map(|&len| {
            let tokens = model.random_tokens(&mut rng, len);
            Request {
                args: vec![list_object(&tokens)],
                tokens: len as u64,
                want: model.reference(&tokens),
            }
        })
        .collect();
    let (per_token, misses) = measure(&model.module(), &requests);
    println!("LSTM 32/32: {per_token:.2} allocations per token, {misses} arena misses");
    assert!(
        per_token <= LSTM_CEILING,
        "{per_token:.2} allocations per token exceeds the budget {LSTM_CEILING:.2}"
    );
    assert_eq!(
        misses, 0,
        "a warm session must recycle every planned buffer"
    );
}

#[test]
fn tree_lstm_allocations_per_node_within_budget() {
    let model = TreeLstmModel::new(TreeLstmConfig {
        input: 64,
        hidden: 64,
        classes: 5,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let requests: Vec<Request> = [2usize, 17, 9, 30, 17, 5]
        .iter()
        .map(|&leaves| {
            let tree = model.random_tree(&mut rng, leaves);
            Request {
                args: vec![tree.to_object()],
                tokens: tree.num_nodes() as u64,
                want: model.reference(&tree),
            }
        })
        .collect();
    let (per_node, misses) = measure(&model.module(), &requests);
    println!("Tree-LSTM 64/64: {per_node:.2} allocations per node, {misses} arena misses");
    assert!(
        per_node <= TREE_CEILING,
        "{per_node:.2} allocations per node exceeds the budget {TREE_CEILING:.2}"
    );
    assert_eq!(
        misses, 0,
        "a warm session must recycle every planned buffer"
    );
}
