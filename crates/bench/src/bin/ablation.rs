//! Ablation study over the design choices DESIGN.md calls out: operator
//! fusion, storage coalescing, arena buffer recycling, and symbolic
//! dispatch.
//! Each row disables exactly one mechanism and reports end-to-end BERT
//! latency. Pass `--full` for reporting-quality effort.

use nimble_bench::harness::{measure, render_table, Effort};
use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_models::{BertConfig, BertModel};
use nimble_vm::{Object, Session, StorageArena, VirtualMachine};
use rand::SeedableRng;
use std::sync::Arc;

fn main() {
    let effort = Effort::from_args();
    let model = BertModel::new(BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: 42,
    });
    let module = model.module();
    let mut rng = rand::rngs::StdRng::seed_from_u64(47);
    let ids = model.random_tokens(&mut rng, 27);
    let (tok, pos) = model.inputs(&ids);

    let mut rows: Vec<(String, Vec<f64>)> = Vec::new();
    let configs: Vec<(&str, CompileOptions, bool)> = vec![
        ("full pipeline", CompileOptions::default(), true),
        (
            "no fusion",
            CompileOptions {
                fuse: false,
                ..CompileOptions::default()
            },
            true,
        ),
        (
            "no coalescing",
            CompileOptions {
                coalesce: false,
                ..CompileOptions::default()
            },
            true,
        ),
        ("no arena", CompileOptions::default(), false),
        (
            "no optimizations",
            CompileOptions {
                fuse: false,
                coalesce: false,
                optimize: false,
                ..CompileOptions::default()
            },
            false,
        ),
    ];
    for (name, opts, arena_on) in configs {
        let (exe, report) = compile(&module, &opts).expect("compile");
        let devices = Arc::new(DeviceSet::cpu_only());
        let vm = VirtualMachine::new(exe, devices).expect("vm");
        let arena = arena_on.then(|| Arc::new(StorageArena::new()));
        let mut session = Session::with_lane_and_arena(0, arena);
        let d = measure(effort.warmup, effort.iters, || {
            std::hint::black_box(
                vm.run_in(
                    &mut session,
                    "main",
                    vec![Object::tensor(tok.clone()), Object::tensor(pos.clone())],
                )
                .expect("run"),
            );
        });
        rows.push((
            name.to_string(),
            vec![
                d.as_secs_f64() * 1e3,
                report.instructions as f64,
                report.kernels as f64,
            ],
        ));
    }
    println!(
        "{}",
        render_table(
            "Ablation: BERT (seq 27) end-to-end latency",
            &[
                "config".into(),
                "ms".into(),
                "instrs".into(),
                "kernels".into()
            ],
            &rows,
        )
    );
}
