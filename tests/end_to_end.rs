//! Cross-crate integration tests: the full pipeline (model builders →
//! passes → lowering → VM) against pure-kernel references, across
//! compilation options and devices.

use nimble::compiler::{compile, CompileOptions, StaticGraph};
use nimble::device::DeviceSet;
use nimble::models::data::list_object;
use nimble::models::{
    cv, BertConfig, BertModel, LstmConfig, LstmModel, TreeLstmConfig, TreeLstmModel,
};
use nimble::tensor::Tensor;
use nimble::vm::{Executable, Object, VirtualMachine};
use rand::SeedableRng;
use std::sync::Arc;

fn assert_close(a: &Tensor, b: &Tensor, tol: f32, what: &str) {
    assert_eq!(a.dims(), b.dims(), "{what}: shapes differ");
    for (x, y) in a.as_f32().unwrap().iter().zip(b.as_f32().unwrap()) {
        assert!((x - y).abs() < tol, "{what}: {x} vs {y}");
    }
}

fn tiny_lstm() -> LstmModel {
    LstmModel::new(LstmConfig {
        input: 6,
        hidden: 10,
        layers: 2,
        seed: 3,
    })
}

#[test]
fn lstm_pipeline_matches_reference_under_all_options() {
    let model = tiny_lstm();
    let module = model.module();
    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let tokens = model.random_tokens(&mut rng, 6);
    let want = model.reference(&tokens);
    for (fuse, coalesce, optimize) in [
        (true, true, true),
        (false, true, true),
        (true, false, true),
        (true, true, false),
        (false, false, false),
    ] {
        let opts = CompileOptions {
            fuse,
            coalesce,
            optimize,
            ..CompileOptions::default()
        };
        let (exe, _) = compile(&module, &opts).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        let got = vm
            .run("main", vec![list_object(&tokens)])
            .unwrap()
            .wait_tensor()
            .unwrap();
        assert_close(
            &got,
            &want,
            1e-4,
            &format!("fuse={fuse} coalesce={coalesce} optimize={optimize}"),
        );
    }
}

#[test]
fn gpu_and_cpu_targets_agree() {
    let model = tiny_lstm();
    let module = model.module();
    let mut rng = rand::rngs::StdRng::seed_from_u64(6);
    let tokens = model.random_tokens(&mut rng, 4);

    let (cpu_exe, _) = compile(&module, &CompileOptions::default()).unwrap();
    let cpu_vm = VirtualMachine::new(cpu_exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let cpu_out = cpu_vm
        .run("main", vec![list_object(&tokens)])
        .unwrap()
        .wait_tensor()
        .unwrap();

    let (gpu_exe, report) = compile(&module, &CompileOptions::gpu()).unwrap();
    assert!(report.placement.device_values > 0);
    let devices = Arc::new(DeviceSet::with_gpu());
    let gpu_vm = VirtualMachine::new(gpu_exe, Arc::clone(&devices)).unwrap();
    let gpu_out = gpu_vm
        .run("main", vec![list_object(&tokens)])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_close(&cpu_out, &gpu_out, 1e-5, "cpu vs gpu");
    assert!(
        devices.gpu().launch_count() > 0,
        "kernels ran on the stream"
    );
}

#[test]
fn executable_round_trips_through_bytes_for_every_model() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);

    // LSTM.
    let lstm = tiny_lstm();
    let (exe, _) = compile(&lstm.module(), &CompileOptions::default()).unwrap();
    let loaded = Executable::load(&exe.save()).unwrap();
    assert_eq!(loaded.num_instructions(), exe.num_instructions());
    let tokens = lstm.random_tokens(&mut rng, 3);
    let vm = VirtualMachine::new(loaded, Arc::new(DeviceSet::cpu_only())).unwrap();
    let got = vm
        .run("main", vec![list_object(&tokens)])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_close(&got, &lstm.reference(&tokens), 1e-4, "lstm round trip");

    // BERT.
    let bert = BertModel::new(BertConfig {
        layers: 1,
        hidden: 8,
        heads: 2,
        ffn: 16,
        vocab: 30,
        max_pos: 32,
        seed: 5,
    });
    let (exe, _) = compile(&bert.module(), &CompileOptions::default()).unwrap();
    let loaded = Executable::load(&exe.save()).unwrap();
    let ids = bert.random_tokens(&mut rng, 5);
    let (tok, pos) = bert.inputs(&ids);
    let vm = VirtualMachine::new(loaded, Arc::new(DeviceSet::cpu_only())).unwrap();
    let got = vm
        .run("main", vec![Object::tensor(tok), Object::tensor(pos)])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_close(&got, &bert.reference(&ids), 1e-3, "bert round trip");
}

#[test]
fn tree_lstm_many_structures_one_executable() {
    let model = TreeLstmModel::new(TreeLstmConfig {
        input: 5,
        hidden: 7,
        classes: 3,
        seed: 11,
    });
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(13);
    for leaves in 1..=16 {
        let tree = model.random_tree(&mut rng, leaves);
        let got = vm
            .run("main", vec![tree.to_object()])
            .unwrap()
            .wait_tensor()
            .unwrap();
        assert_close(
            &got,
            &model.reference(&tree),
            1e-4,
            &format!("{leaves} leaves"),
        );
    }
}

#[test]
fn static_runtime_and_vm_agree_on_cv_models() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(19);
    let img = Tensor::rand_f32(&mut rng, &[1, 3, 32, 32], 1.0);
    for (name, module) in cv::all_models(3) {
        let graph = StaticGraph::compile(&module, true).unwrap();
        let (exe, _) = compile(&module, &CompileOptions::default()).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        let a = vm
            .run("main", vec![Object::tensor(img.clone())])
            .unwrap()
            .wait_tensor()
            .unwrap();
        let b = graph.run(std::slice::from_ref(&img)).unwrap();
        assert_close(&a, &b, 1e-3, name);
    }
}

#[test]
fn profiler_accounts_for_instructions() {
    let model = tiny_lstm();
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    vm.set_profiling(true);
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let tokens = model.random_tokens(&mut rng, 5);
    vm.run("main", vec![list_object(&tokens)]).unwrap();
    let report = vm.profile_report();
    assert!(report.instructions > 50);
    assert!(report.kernel_invocations >= 5);
    assert!(report.kernel_ns > 0);
}

#[test]
fn bench_systems_cross_validate() {
    // The frameworks used as baselines compute the same functions as
    // Nimble — the precondition for every latency table.
    let model = TreeLstmModel::new(TreeLstmConfig {
        input: 4,
        hidden: 6,
        classes: 2,
        seed: 29,
    });
    let mut rng = rand::rngs::StdRng::seed_from_u64(31);
    let tree = model.random_tree(&mut rng, 9);
    let want = model.reference(&tree);
    let eager = nimble::frameworks::eager::tree_lstm_forward(&model, &tree);
    assert_close(&eager, &want, 1e-4, "eager");
    let fold = nimble::frameworks::fold::tree_lstm_forward(&model, &tree);
    assert_close(&fold, &want, 1e-4, "fold");
}

#[test]
fn profiler_buckets_fit_in_wall_time_on_recursion() {
    // The Tree-LSTM recurses once per tree level. A call instruction that
    // recorded its callee's time again would count the deep levels once
    // per enclosing call and push the buckets past the wall time.
    let model = TreeLstmModel::new(TreeLstmConfig {
        input: 8,
        hidden: 8,
        classes: 3,
        seed: 37,
    });
    let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    vm.set_profiling(true);
    let mut session = vm.session();
    let mut rng = rand::rngs::StdRng::seed_from_u64(41);
    for leaves in [2, 9, 24] {
        let tree = model.random_tree(&mut rng, leaves);
        let start = std::time::Instant::now();
        vm.run_in(&mut session, "main", vec![tree.to_object()])
            .unwrap();
        let wall_ns = start.elapsed().as_nanos() as u64;
        let r = session.last_report();
        let buckets = r.kernel_ns + r.shape_func_ns + r.other_ns;
        assert!(r.counts.iter().sum::<u64>() > 0);
        assert!(
            buckets <= wall_ns,
            "{leaves} leaves: kernel {} + shape func {} + other {} = {buckets} ns > wall {wall_ns} ns",
            r.kernel_ns,
            r.shape_func_ns,
            r.other_ns
        );
    }
}

/// Malformed inputs reach kernels that write planned outputs: every one
/// must come back as an error naming the failing kernel — never a
/// slice-length panic — and the same session must then serve a valid
/// request bitwise-identically to a fresh session.
#[test]
fn malformed_inputs_fail_and_the_session_keeps_serving() {
    use nimble::models::data::TreeNode;
    use nimble::vm::Session;

    /// The same tree shape with every leaf replaced by `leaf`.
    fn with_leaves(tree: &TreeNode, leaf: &Tensor) -> TreeNode {
        match tree {
            TreeNode::Leaf(_) => TreeNode::Leaf(leaf.clone()),
            TreeNode::Node(l, r) => TreeNode::Node(
                Box::new(with_leaves(l, leaf)),
                Box::new(with_leaves(r, leaf)),
            ),
        }
    }
    fn bits(obj: &Object) -> Vec<u32> {
        let t = obj.wait_tensor().unwrap();
        let mut bits: Vec<u32> = t.as_f32().unwrap().iter().map(|v| v.to_bits()).collect();
        bits.extend(t.dims().iter().map(|&d| d as u32));
        bits
    }
    fn check(module: &nimble::ir::Module, bad: Vec<(&str, Object)>, good: Object) {
        let (exe, _) = compile(module, &CompileOptions::default()).unwrap();
        let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
        let want = bits(&vm.run("main", vec![good.clone()]).unwrap());
        let mut session = Session::new();
        for (what, input) in bad {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                vm.run_in(&mut session, "main", vec![input])
            }));
            match result {
                Ok(Err(e)) => println!("{what}: {e}"),
                Ok(Ok(_)) => panic!("{what}: malformed input accepted"),
                Err(_) => panic!("{what}: the VM panicked"),
            }
        }
        let again = vm.run_in(&mut session, "main", vec![good]).unwrap();
        assert_eq!(
            bits(&again),
            want,
            "the session must serve bitwise-correctly"
        );
    }

    let mut rng = rand::rngs::StdRng::seed_from_u64(5);
    let lstm = LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed: 42,
    });
    let tokens = lstm.random_tokens(&mut rng, 6);
    let list_of = |t: Tensor| list_object(&vec![t; 6]);
    check(
        &lstm.module(),
        vec![
            ("lstm rank-3", list_of(Tensor::ones_f32(&[1, 1, 32]))),
            ("lstm inner dim", list_of(Tensor::ones_f32(&[1, 31]))),
            (
                "lstm i64",
                list_of(Tensor::zeros(nimble::tensor::DType::I64, &[1, 32])),
            ),
        ],
        list_object(&tokens),
    );

    let tree_model = TreeLstmModel::new(TreeLstmConfig {
        input: 64,
        hidden: 64,
        classes: 5,
        seed: 42,
    });
    let tree = tree_model.random_tree(&mut rng, 7);
    check(
        &tree_model.module(),
        vec![
            (
                "tree rank-3",
                with_leaves(&tree, &Tensor::ones_f32(&[1, 1, 64])).to_object(),
            ),
            (
                "tree inner dim",
                with_leaves(&tree, &Tensor::ones_f32(&[1, 63])).to_object(),
            ),
            (
                "tree i64",
                with_leaves(&tree, &Tensor::zeros(nimble::tensor::DType::I64, &[1, 64]))
                    .to_object(),
            ),
        ],
        tree.to_object(),
    );
}
