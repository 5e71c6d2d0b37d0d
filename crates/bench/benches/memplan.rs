//! Criterion bench behind the memory-planning study: a held session with
//! and without a storage arena recycling its element buffers.

use criterion::{criterion_group, criterion_main, Criterion};
use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_models::{BertConfig, BertModel};
use nimble_vm::{Object, Session, StorageArena, VirtualMachine};
use rand::SeedableRng;
use std::sync::Arc;

fn bench(c: &mut Criterion) {
    let model = BertModel::new(BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: 42,
    });
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    let ids = model.random_tokens(&mut rng, 26);
    let (tok, pos) = model.inputs(&ids);
    let mut group = c.benchmark_group("memplan");
    group.sample_size(10);
    for arena_on in [true, false] {
        let devices = Arc::new(DeviceSet::cpu_only());
        let vm = VirtualMachine::new(exe.clone(), devices).unwrap();
        let arena = arena_on.then(|| Arc::new(StorageArena::new()));
        let mut session = Session::with_lane_and_arena(0, arena);
        let name = if arena_on { "arena" } else { "no_arena" };
        group.bench_function(name, |b| {
            b.iter(|| {
                vm.run_in(
                    &mut session,
                    "main",
                    vec![Object::tensor(tok.clone()), Object::tensor(pos.clone())],
                )
                .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
