//! Property-based integration tests: system-level invariants that must
//! hold for arbitrary inputs, checked with proptest.

use nimble::compiler::{compile, CompileOptions};
use nimble::device::DeviceSet;
use nimble::models::data::list_object;
use nimble::models::{LstmConfig, LstmModel, TreeLstmConfig, TreeLstmModel};
use nimble::vm::{Executable, Session, StorageArena, VirtualMachine};
use proptest::prelude::*;
use std::sync::Arc;

fn lstm() -> &'static LstmModel {
    static MODEL: std::sync::OnceLock<LstmModel> = std::sync::OnceLock::new();
    MODEL.get_or_init(|| {
        LstmModel::new(LstmConfig {
            input: 4,
            hidden: 6,
            layers: 1,
            seed: 1,
        })
    })
}

fn lstm_vm() -> VirtualMachine {
    let (exe, _) = compile(&lstm().module(), &CompileOptions::default()).unwrap();
    VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// For any sequence length and seed, the compiled VM computes exactly
    /// what the pure-kernel reference computes.
    #[test]
    fn lstm_vm_equals_reference(len in 0usize..12, seed in 0u64..100) {
        let model = lstm();
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let tokens = model.random_tokens(&mut rng, len);
        let vm = lstm_vm();
        let got = vm
            .run("main", vec![list_object(&tokens)])
            .unwrap()
            .wait_tensor()
            .unwrap();
        let want = model.reference(&tokens);
        prop_assert_eq!(got.dims(), want.dims());
        for (a, b) in got.as_f32().unwrap().iter().zip(want.as_f32().unwrap()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// Executable serialization is a faithful round trip for the compiled
    /// LSTM: identical bytecode, identical results.
    #[test]
    fn executable_serialization_faithful(seed in 0u64..50) {
        let model = lstm();
        let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
        let bytes = exe.save();
        let loaded = Executable::load(&bytes).unwrap();
        prop_assert_eq!(loaded.functions.len(), exe.functions.len());
        for (a, b) in loaded.functions.iter().zip(exe.functions.iter()) {
            prop_assert_eq!(&a.code, &b.code);
        }
        // Re-serialization is byte-identical (canonical encoding).
        prop_assert_eq!(loaded.save(), bytes);
        // And the loaded executable still computes correctly.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let tokens = model.random_tokens(&mut rng, 3);
        let vm = VirtualMachine::new(loaded, Arc::new(DeviceSet::cpu_only())).unwrap();
        let got = vm
            .run("main", vec![list_object(&tokens)])
            .unwrap()
            .wait_tensor()
            .unwrap();
        let want = model.reference(&tokens);
        for (a, b) in got.as_f32().unwrap().iter().zip(want.as_f32().unwrap()) {
            prop_assert!((a - b).abs() < 1e-4);
        }
    }

    /// All four Tree-LSTM execution systems (VM, eager, fold, reference)
    /// agree on arbitrary tree structures.
    #[test]
    fn tree_systems_agree(leaves in 1usize..14, seed in 0u64..50) {
        let model = TreeLstmModel::new(TreeLstmConfig {
            input: 4,
            hidden: 5,
            classes: 3,
            seed: 2,
        });
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let tree = model.random_tree(&mut rng, leaves);
        let want = model.reference(&tree);
        let eager = nimble::frameworks::eager::tree_lstm_forward(&model, &tree);
        let fold = nimble::frameworks::fold::tree_lstm_forward(&model, &tree);
        for got in [eager, fold] {
            for (a, b) in got.as_f32().unwrap().iter().zip(want.as_f32().unwrap()) {
                prop_assert!((a - b).abs() < 1e-4);
            }
        }
    }

    /// Corrupting any prefix of a serialized executable yields an error,
    /// never a panic or a wrong program.
    #[test]
    fn truncated_executables_rejected(cut_ratio in 0.01f64..0.99) {
        let model = lstm();
        let (exe, _) = compile(&model.module(), &CompileOptions::default()).unwrap();
        let bytes = exe.save();
        let cut = ((bytes.len() as f64 * cut_ratio) as usize).min(bytes.len() - 1);
        prop_assert!(Executable::load(&bytes[..cut]).is_err());
    }

    /// The storage arena's buffer pool never leaks accounting: after
    /// dropping every object, live bytes return to zero and every buffer
    /// it allocated is parked for reuse.
    #[test]
    fn pool_accounting_balances(len in 0usize..8, seed in 0u64..50) {
        let model = lstm();
        let vm = lstm_vm();
        let arena = Arc::new(StorageArena::new());
        let mut session = Session::with_lane_and_arena(0, Some(Arc::clone(&arena)));
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
        let tokens = model.random_tokens(&mut rng, len);
        let out = vm.run_in(&mut session, "main", vec![list_object(&tokens)]).unwrap();
        drop(out);
        drop(session);
        drop(vm);
        let stats = arena.stats();
        prop_assert_eq!(stats.live_bytes, 0, "{:?}", stats);
        prop_assert_eq!(stats.retained_blocks, stats.misses, "{:?}", stats);
    }
}
