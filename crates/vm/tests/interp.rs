//! Interpreter tests over hand-assembled bytecode programs, covering each
//! instruction's runtime semantics and the asynchronous GPU path.

use nimble_device::DeviceSet;
use nimble_ir::attrs::{AttrValue, Attrs};
use nimble_tensor::{DType, Tensor};
use nimble_vm::exe::{Executable, KernelDesc, VMFunction};
use nimble_vm::isa::Instruction;
use nimble_vm::object::Object;
use nimble_vm::VirtualMachine;
use std::sync::Arc;

fn add_kernel() -> KernelDesc {
    KernelDesc::Op {
        name: "add".into(),
        attrs: Attrs::new(),
        symbolic: false,
    }
}

/// main(a, b) = a + b via explicit allocation: AllocStorage + AllocTensor +
/// InvokePacked — the paper's Section 4.3 example, executed.
fn add_program(device: u8) -> Executable {
    add_program_sized(device, 40)
}

/// [`add_program`] with a storage of `size` bytes (a coalesced storage is
/// larger than the tensor placed in it).
fn add_program_sized(device: u8, size: u64) -> Executable {
    Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 2,
            num_regs: 5,
            code: vec![
                Instruction::AllocStorage {
                    size,
                    alignment: 64,
                    device,
                    dst: 2,
                },
                Instruction::AllocTensor {
                    storage: 2,
                    offset: 0,
                    shape: vec![10],
                    dtype: DType::F32,
                    dst: 3,
                },
                Instruction::InvokePacked {
                    kernel: 0,
                    args: vec![0, 1, 3],
                    num_outputs: 1,
                    device,
                },
                Instruction::Ret { result: 3 },
            ],
        }],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![add_kernel()],
    }
}

fn v10(x: f32) -> Tensor {
    Tensor::from_vec_f32(vec![x; 10], &[10]).unwrap()
}

#[test]
fn explicit_allocation_add_on_cpu() {
    let exe = add_program(0);
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let arena = Arc::new(nimble_vm::StorageArena::new());
    let mut session = nimble_vm::Session::with_lane_and_arena(0, Some(Arc::clone(&arena)));
    for _ in 0..2 {
        let out = vm
            .run_in(
                &mut session,
                "main",
                vec![Object::tensor(v10(1.0)), Object::tensor(v10(2.0))],
            )
            .unwrap();
        let t = out.wait_tensor().unwrap();
        assert!(t.as_f32().unwrap().iter().all(|&v| v == 3.0));
    }
    // The output buffer was drawn from the arena once, then recycled.
    let stats = arena.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
}

#[test]
fn async_gpu_execution_returns_host_tensor() {
    let exe = add_program(1);
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::with_gpu())).unwrap();
    let out = vm
        .run(
            "main",
            vec![Object::tensor(v10(5.0)), Object::tensor(v10(7.0))],
        )
        .unwrap();
    let t = out.wait_tensor().unwrap();
    assert!(t.as_f32().unwrap().iter().all(|&v| v == 12.0));
    assert_eq!(vm.devices().gpu().launch_count(), 1);
}

#[test]
fn gpu_launch_costs_one_arena_acquire() {
    // The lane job draws the output buffer when it runs, under the size
    // class of the storage (400 bytes -> 512), and `AllocTensor` draws
    // none for a device launch: one acquire per launch.
    let exe = add_program_sized(1, 400);
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::with_gpu())).unwrap();
    let arena = Arc::new(nimble_vm::StorageArena::new());
    let mut session = nimble_vm::Session::with_lane_and_arena(0, Some(Arc::clone(&arena)));
    for _ in 0..2 {
        let out = vm
            .run_in(
                &mut session,
                "main",
                vec![Object::tensor(v10(5.0)), Object::tensor(v10(7.0))],
            )
            .unwrap();
        let t = out.wait_tensor().unwrap();
        assert!(t.as_f32().unwrap().iter().all(|&v| v == 12.0));
    }
    assert_eq!(vm.devices().gpu().launch_count(), 2);
    let stats = arena.stats();
    assert_eq!((stats.misses, stats.hits), (1, 1));
    assert_eq!((stats.retained_blocks, stats.retained_bytes), (1, 512));
    assert_eq!(stats.live_bytes, 0);
    // The device's buffer counters see the same two draws.
    let gpu = vm.devices().pool(nimble_device::DeviceId::Gpu).stats();
    assert_eq!((gpu.allocs, gpu.pool_hits), (2, 1));
    assert_eq!(
        vm.devices()
            .pool(nimble_device::DeviceId::Cpu)
            .stats()
            .allocs,
        0
    );
}

#[test]
fn gpu_bytecode_falls_back_on_cpu_only_set() {
    let exe = add_program(1);
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let out = vm
        .run(
            "main",
            vec![Object::tensor(v10(1.0)), Object::tensor(v10(1.0))],
        )
        .unwrap();
    assert_eq!(out.wait_tensor().unwrap().as_f32().unwrap()[0], 2.0);
}

#[test]
fn control_flow_if_goto() {
    // main(flag) = if flag == 1 { 10 } else { 20 }  (as scalar i64 consts)
    let exe = Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 4,
            code: vec![
                Instruction::LoadConsti { value: 1, dst: 1 },
                Instruction::If {
                    lhs: 0,
                    rhs: 1,
                    true_offset: 1,
                    false_offset: 3,
                },
                Instruction::LoadConsti { value: 10, dst: 2 },
                Instruction::Goto { offset: 2 },
                Instruction::LoadConsti { value: 20, dst: 2 },
                Instruction::Ret { result: 2 },
            ],
        }],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![],
    };
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let t = vm
        .run("main", vec![Object::tensor(Tensor::scalar_bool(true))])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_eq!(t.as_i64().unwrap()[0], 10);
    let t = vm
        .run("main", vec![Object::tensor(Tensor::scalar_bool(false))])
        .unwrap()
        .wait_tensor()
        .unwrap();
    assert_eq!(t.as_i64().unwrap()[0], 20);
}

#[test]
fn adt_alloc_get_tag_get_field() {
    // main() = let x = Cons(42, Nil) in (tag(x), field0(x))
    let exe = Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 0,
            num_regs: 6,
            code: vec![
                Instruction::AllocADT {
                    tag: 0,
                    fields: vec![],
                    dst: 0,
                }, // Nil
                Instruction::LoadConsti { value: 42, dst: 1 },
                Instruction::AllocADT {
                    tag: 1,
                    fields: vec![1, 0],
                    dst: 2,
                }, // Cons(42, Nil)
                Instruction::GetTag { object: 2, dst: 3 },
                Instruction::GetField {
                    object: 2,
                    index: 0,
                    dst: 4,
                },
                Instruction::AllocADT {
                    tag: u32::MAX,
                    fields: vec![3, 4],
                    dst: 5,
                }, // tuple
                Instruction::Ret { result: 5 },
            ],
        }],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![],
    };
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let out = vm.run("main", vec![]).unwrap();
    let adt = out.as_adt().unwrap();
    assert_eq!(adt.fields[0].wait_tensor().unwrap().as_i64().unwrap()[0], 1);
    assert_eq!(
        adt.fields[1].wait_tensor().unwrap().as_i64().unwrap()[0],
        42
    );
}

#[test]
fn closures_capture_and_invoke() {
    // helper(captured, arg) = captured + arg
    // main(x) = (closure capturing x)(x)  = x + x
    let exe = Executable {
        functions: vec![
            VMFunction {
                name: "main".into(),
                num_params: 1,
                num_regs: 3,
                code: vec![
                    Instruction::AllocClosure {
                        func: 1,
                        captures: vec![0],
                        dst: 1,
                    },
                    Instruction::InvokeClosure {
                        closure: 1,
                        args: vec![0],
                        dst: 2,
                    },
                    Instruction::Ret { result: 2 },
                ],
            },
            VMFunction {
                name: "helper".into(),
                num_params: 2,
                num_regs: 4,
                code: vec![
                    Instruction::AllocStorage {
                        size: 4,
                        alignment: 64,
                        device: 0,
                        dst: 2,
                    },
                    Instruction::AllocTensor {
                        storage: 2,
                        offset: 0,
                        shape: vec![],
                        dtype: DType::F32,
                        dst: 3,
                    },
                    Instruction::InvokePacked {
                        kernel: 0,
                        args: vec![0, 1, 3],
                        num_outputs: 1,
                        device: 0,
                    },
                    Instruction::Ret { result: 3 },
                ],
            },
        ],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![add_kernel()],
    };
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let out = vm
        .run("main", vec![Object::tensor(Tensor::scalar_f32(21.0))])
        .unwrap();
    assert_eq!(out.wait_tensor().unwrap().scalar_value_f32().unwrap(), 42.0);
}

#[test]
fn shape_of_and_reshape() {
    // main(x) = reshape(x, shape_of(x) reversed is not expressible —
    // instead reshape to a constant shape loaded from the pool)
    let exe = Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 4,
            code: vec![
                Instruction::ShapeOf { tensor: 0, dst: 1 },
                Instruction::LoadConst { index: 0, dst: 2 },
                Instruction::ReshapeTensor {
                    tensor: 0,
                    shape: 2,
                    dst: 3,
                },
                Instruction::Ret { result: 3 },
            ],
        }],
        constants: vec![Tensor::from_vec_i64(vec![4, 2], &[2]).unwrap()],
        const_devices: vec![0],
        kernels: vec![],
    };
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let out = vm
        .run("main", vec![Object::tensor(Tensor::ones_f32(&[2, 4]))])
        .unwrap();
    assert_eq!(out.wait_tensor().unwrap().dims(), &[4, 2]);
}

#[test]
fn shape_function_sizes_dynamic_allocation() {
    // main(x, y) = concat(x, y) with the output allocated from the shape
    // function's result — the full dynamic path of Section 4.3.
    let concat_attrs = Attrs::new().with("axis", AttrValue::Int(0));
    let exe = Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 2,
            num_regs: 7,
            code: vec![
                Instruction::ShapeOf { tensor: 0, dst: 2 },
                Instruction::ShapeOf { tensor: 1, dst: 3 },
                // invoke_shape_func(concat): the output shape lands in the
                // unplanned register r4, as the compiler lowers it.
                Instruction::InvokePacked {
                    kernel: 1,
                    args: vec![2, 3, 4],
                    num_outputs: 1,
                    device: 0,
                },
                // alloc output from computed shape; run the kernel.
                Instruction::AllocTensorReg {
                    shape: 4,
                    dtype: DType::F32,
                    device: 0,
                    dst: 5,
                },
                Instruction::InvokePacked {
                    kernel: 0,
                    args: vec![0, 1, 5],
                    num_outputs: 1,
                    device: 0,
                },
                Instruction::Ret { result: 5 },
            ],
        }],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![
            KernelDesc::Op {
                name: "concat".into(),
                attrs: concat_attrs.clone(),
                symbolic: false,
            },
            KernelDesc::ShapeFuncOp {
                name: "concat".into(),
                attrs: concat_attrs,
                in_dtypes: vec![DType::F32, DType::F32],
            },
        ],
    };
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let x = Tensor::ones_f32(&[3, 2]);
    let y = Tensor::from_vec_f32(vec![9.0, 9.0], &[1, 2]).unwrap();
    let out = vm
        .run("main", vec![Object::tensor(x), Object::tensor(y)])
        .unwrap();
    let t = out.wait_tensor().unwrap();
    assert_eq!(t.dims(), &[4, 2]);
    assert_eq!(&t.as_f32().unwrap()[6..], &[9.0, 9.0]);
    // The profiler classified the shape function separately.
    assert_eq!(vm.profile_report().kernel_invocations, 1);
}

#[test]
fn fatal_aborts_with_message() {
    let exe = Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 0,
            num_regs: 1,
            code: vec![Instruction::Fatal {
                message: "type constraint violated".into(),
            }],
        }],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![],
    };
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    let err = vm.run("main", vec![]).unwrap_err();
    assert!(err.to_string().contains("type constraint violated"));
}

#[test]
fn device_copy_moves_and_counts() {
    let exe = Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 1,
            num_regs: 3,
            code: vec![
                Instruction::DeviceCopy {
                    src: 0,
                    src_device: 0,
                    dst_device: 1,
                    dst: 1,
                },
                Instruction::DeviceCopy {
                    src: 1,
                    src_device: 1,
                    dst_device: 0,
                    dst: 2,
                },
                Instruction::Ret { result: 2 },
            ],
        }],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![],
    };
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::with_gpu())).unwrap();
    let out = vm.run("main", vec![Object::tensor(v10(3.0))]).unwrap();
    assert_eq!(out.wait_tensor().unwrap().as_f32().unwrap()[0], 3.0);
    let (h2d, d2h, _) = vm.devices().copy_stats().snapshot();
    assert_eq!((h2d, d2h), (1, 1));
}

#[test]
fn run_round_trips_through_serialization() {
    let exe = add_program(0);
    let bytes = exe.save();
    let loaded = Executable::load(&bytes).unwrap();
    let vm = VirtualMachine::new(loaded, Arc::new(DeviceSet::cpu_only())).unwrap();
    let out = vm
        .run(
            "main",
            vec![Object::tensor(v10(4.0)), Object::tensor(v10(6.0))],
        )
        .unwrap();
    assert!(out
        .wait_tensor()
        .unwrap()
        .as_f32()
        .unwrap()
        .iter()
        .all(|&v| v == 10.0));
}

#[test]
fn profiler_separates_kernel_and_other_time() {
    let exe = add_program(0);
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    vm.set_profiling(true);
    vm.run(
        "main",
        vec![Object::tensor(v10(1.0)), Object::tensor(v10(1.0))],
    )
    .unwrap();
    let r = vm.profile_report();
    assert_eq!(r.instructions, 4);
    assert_eq!(r.kernel_invocations, 1);
    assert!(r.kernel_ns > 0);
    assert!(r.other_ns > 0);
}

#[test]
fn recursion_depth_guard() {
    // main() calls itself forever.
    let exe = Executable {
        functions: vec![VMFunction {
            name: "main".into(),
            num_params: 0,
            num_regs: 1,
            code: vec![
                Instruction::Invoke {
                    func: 0,
                    args: vec![],
                    dst: 0,
                },
                Instruction::Ret { result: 0 },
            ],
        }],
        constants: vec![],
        const_devices: vec![],
        kernels: vec![],
    };
    // Debug-build interpreter frames are large; give the guard room to
    // fire before the native stack runs out.
    let handle = std::thread::Builder::new()
        .stack_size(64 << 20)
        .spawn(move || {
            let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
            vm.run("main", vec![]).unwrap_err()
        })
        .unwrap();
    let err = handle.join().unwrap();
    assert!(err.to_string().contains("depth"));
}

#[test]
fn argument_count_checked() {
    let exe = add_program(0);
    let vm = VirtualMachine::new(exe, Arc::new(DeviceSet::cpu_only())).unwrap();
    assert!(vm.run("main", vec![]).is_err());
    assert!(vm.run("missing", vec![]).is_err());
}
