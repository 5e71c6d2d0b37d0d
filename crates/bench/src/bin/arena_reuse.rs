//! Session storage arena: allocation reuse across dynamic-shape requests.
//!
//! Runs the LSTM (dynamic sequence length) and BERT (dynamic batch) models
//! through one persistent VM session twice — arena **off** (every planned
//! tensor from `AllocTensor`/`AllocTensorReg` gets a freshly allocated
//! element buffer) and arena **on** (the session's size-classed free lists
//! recycle the element buffers kernels write into) — and reports, after a
//! warm-up pass:
//!
//! * element-buffer allocations per request — the real tensor-data
//!   allocations: every planned tensor with the arena off, the arena's
//!   misses with it on;
//! * arena hit rate and recycled bytes;
//! * requests/sec for the measured passes.
//!
//! Outputs are compared bitwise between the two modes, so the speedup is
//! proven not to change a single bit of any result.
//!
//! The default (smoke) effort asserts the invariants — identical bits,
//! nonzero reuse, and a ≥5x reduction in element-buffer allocations per
//! request on the LSTM — and is wired into CI; `--full` runs the larger
//! mix recorded in EXPERIMENTS.md.

use nimble_bench::harness::Effort;
use nimble_bench::workload::mrpc_lengths;
use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_models::data::list_object;
use nimble_models::{BertConfig, BertModel, LstmConfig, LstmModel};
use nimble_vm::{Object, Session, StorageArena, VirtualMachine};
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

struct Workload {
    name: &'static str,
    /// Argument sets, one per request; the same sets are replayed in both
    /// modes so outputs can be compared bit for bit.
    requests: Vec<Vec<Object>>,
    exe: nimble_vm::Executable,
}

fn lstm_workload(effort: Effort) -> Workload {
    let model = LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    let requests = mrpc_lengths(effort.samples, 3)
        .iter()
        .map(|&len| vec![list_object(&model.random_tokens(&mut rng, len.min(24)))])
        .collect();
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).expect("compile lstm");
    Workload {
        name: "LSTM",
        requests,
        exe,
    }
}

fn bert_workload(effort: Effort) -> Workload {
    let model = BertModel::new(BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: 42,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let requests = mrpc_lengths(effort.samples, 5)
        .iter()
        .map(|&len| {
            let (tok, pos) = model.inputs(&model.random_tokens(&mut rng, len));
            vec![Object::tensor(tok), Object::tensor(pos)]
        })
        .collect();
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).expect("compile bert");
    Workload {
        name: "BERT",
        requests,
        exe,
    }
}

fn bits_of(obj: &Object) -> Vec<u32> {
    let t = obj.wait_tensor().expect("tensor result");
    let mut bits: Vec<u32> = t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect();
    bits.extend(t.dims().iter().map(|&d| d as u32));
    bits
}

struct ModeResult {
    /// Fresh element-buffer allocations per request, after warm-up.
    buffers_per_req: f64,
    req_per_s: f64,
    hit_rate: f64,
    recycled_bytes: u64,
    /// Bitwise identity of every output from the final measured pass.
    bits: Vec<Vec<u32>>,
}

/// Replay the workload through one persistent session: a warm-up pass,
/// then `iters` measured passes. Counters are read as deltas around the
/// measured passes only, so cold-start allocation is excluded in both
/// modes alike.
fn run_mode(wl: &Workload, arena: Option<Arc<StorageArena>>, iters: usize) -> ModeResult {
    let devices = Arc::new(DeviceSet::cpu_only());
    let vm = VirtualMachine::new(wl.exe.clone(), Arc::clone(&devices)).expect("load");
    let arena_on = arena.is_some();
    let mut session = Session::with_lane_and_arena(0, arena);
    for req in &wl.requests {
        vm.run_in(&mut session, "main", req.clone())
            .expect("warmup");
    }
    let t0 = vm.profile_report().planned_tensors();
    let a0 = session.arena_stats();
    let mut bits = Vec::new();
    let start = Instant::now();
    for it in 0..iters {
        for req in &wl.requests {
            let out = vm.run_in(&mut session, "main", req.clone()).expect("run");
            if it + 1 == iters {
                bits.push(bits_of(&out));
            }
        }
    }
    let wall = start.elapsed();
    let a1 = session.arena_stats();
    let nreq = (wl.requests.len() * iters) as f64;
    let total = (a1.hits + a1.misses) - (a0.hits + a0.misses);
    // Without an arena every planned tensor is a fresh buffer; with one,
    // only its misses are.
    let fresh = if arena_on {
        a1.misses - a0.misses
    } else {
        vm.profile_report().planned_tensors() - t0
    };
    ModeResult {
        buffers_per_req: fresh as f64 / nreq,
        req_per_s: nreq / wall.as_secs_f64(),
        hit_rate: if total == 0 {
            0.0
        } else {
            (a1.hits - a0.hits) as f64 / total as f64
        },
        recycled_bytes: a1.recycled_bytes - a0.recycled_bytes,
        bits,
    }
}

fn main() {
    let effort = Effort::from_args();
    let full = effort == Effort::full();
    println!(
        "arena_reuse: dynamic-shape allocation recycling ({} effort)",
        if full { "full" } else { "smoke" }
    );

    for wl in [lstm_workload(effort), bert_workload(effort)] {
        let off = run_mode(&wl, None, effort.iters);
        let on = run_mode(
            &wl,
            Some(Arc::new(StorageArena::with_poison(true))),
            effort.iters,
        );
        assert_eq!(
            off.bits, on.bits,
            "{}: arena-on outputs differ from arena-off",
            wl.name
        );
        let reduction = if on.buffers_per_req == 0.0 {
            f64::INFINITY
        } else {
            off.buffers_per_req / on.buffers_per_req
        };
        let reduction_label = if reduction.is_infinite() {
            format!("{:.0}x -> 0", off.buffers_per_req)
        } else {
            format!("{reduction:.1}x")
        };
        println!(
            "  {:>4}: off {:>6.1} buffer-allocs/req {:>7.1} req/s | \
             on {:>5.1} buffer-allocs/req {:>7.1} req/s | \
             hit-rate {:>5.1}% recycled {:>6} KiB | reduction {} | bits identical",
            wl.name,
            off.buffers_per_req,
            off.req_per_s,
            on.buffers_per_req,
            on.req_per_s,
            on.hit_rate * 100.0,
            on.recycled_bytes / 1024,
            reduction_label,
        );
        assert!(
            on.hit_rate > 0.0,
            "{}: no arena reuse after warm-up",
            wl.name
        );
        if wl.name == "LSTM" {
            assert!(
                reduction >= 5.0,
                "{}: expected >=5x fewer element-buffer allocations per request, got {:.1}x",
                wl.name,
                reduction
            );
        }
    }
    println!("  ok: outputs bitwise-identical across modes; recycling active after warm-up");
}
