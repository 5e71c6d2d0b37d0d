//! `vm_direct`: one client thread calls `VirtualMachine::run_in` on held
//! sessions in a closed loop, alternating LSTM and Tree-LSTM requests.
//! No router, engine, batcher, device or specializer does any work, so
//! the time is the VM's: dispatch, shape functions and allocation around
//! small kernels (paper Tables 1-2).

use crate::inputs::{self, Request};
use crate::measure::{ms, AllocSnapshot};
use crate::report::{self, device_counters, Counters, Phase};
use crate::trace::SpanLog;
use crate::Outcome;
use nimble_core::{compile, CompileOptions};
use nimble_device::DeviceSet;
use nimble_vm::{Session, VirtualMachine};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Latency limit for `goodput_rps` (each call takes a few ms).
pub const LIMIT: Duration = Duration::from_millis(50);
/// Distinct requests, cycled through by the loop.
const POOL: usize = 1024;
/// Set-up rounds; `setup_s` is their median.
const SETUPS: usize = 25;
/// Requests run once each before timing starts.
const WARMUP: usize = 16;

struct Stack {
    lstm: (VirtualMachine, Session),
    tree: (VirtualMachine, Session),
    devices: Arc<DeviceSet>,
}

impl Stack {
    fn vm_for(&mut self, model: &str) -> &mut (VirtualMachine, Session) {
        if model == "lstm" {
            &mut self.lstm
        } else {
            &mut self.tree
        }
    }

    fn counters(&self) -> Counters {
        let mut arena = self.lstm.1.arena_stats();
        arena.merge(&self.tree.1.arena_stats());
        Counters {
            profile: self.lstm.0.profile_report() + self.tree.0.profile_report(),
            arena,
            device: device_counters(&self.devices),
            ..Counters::default()
        }
    }
}

fn modules() -> [nimble_ir::Module; 2] {
    [inputs::lstm().module(), inputs::tree_lstm().module()]
}

/// Build models, compile, load and warm up, recording `bench.*` spans
/// under one `bench.setup` root.
fn setup(warm: &[Request], log: &mut SpanLog, round: u64, epoch: Instant) -> Result<Stack, String> {
    let ns = |t: Instant| (t - epoch).as_nanos() as u64;
    let start = Instant::now();
    let devices = Arc::new(DeviceSet::cpu_only());
    let mut children = Vec::new();
    let mut load = |module: nimble_ir::Module| -> Result<(VirtualMachine, Session), String> {
        let t0 = Instant::now();
        let (exe, _) = compile(&module, &CompileOptions::default()).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let vm = VirtualMachine::new(exe, Arc::clone(&devices)).map_err(|e| e.to_string())?;
        let session = vm.session();
        children.push(("bench.compile", t0, t1));
        children.push(("bench.register", t1, Instant::now()));
        Ok((vm, session))
    };
    let [lstm, tree] = modules();
    let (lstm, tree) = (load(lstm)?, load(tree)?);
    let mut stack = Stack {
        lstm,
        tree,
        devices,
    };
    let t0 = Instant::now();
    for req in warm {
        let (vm, session) = stack.vm_for(req.model);
        let out = vm
            .run_in(session, "main", req.args.clone())
            .map_err(|e| format!("warm-up {}: {e}", req.model))?;
        if !req.check(&out) {
            return Err(format!(
                "warm-up {}: output differs from reference",
                req.model
            ));
        }
    }
    children.push(("bench.warmup", t0, Instant::now()));
    let root = log.record(round, 0, "bench.setup", ns(start), ns(Instant::now()));
    for (name, a, b) in children {
        log.record(round, root, name, ns(a), ns(b));
    }
    Ok(stack)
}

/// The closed loop, for `seconds`.
fn drive(stack: &mut Stack, pool: &[Request], seconds: Duration, traced: bool) -> Phase {
    let mut phase = Phase {
        spans: SpanLog::with_id_base(1 << 40),
        ..Phase::default()
    };
    let before = AllocSnapshot::now();
    let epoch = Instant::now();
    let ns = |t: Instant| (t - epoch).as_nanos() as u64;
    let mut i = 0;
    while epoch.elapsed() < seconds {
        let req = &pool[i % pool.len()];
        i += 1;
        let (vm, session) = stack.vm_for(req.model);
        let r0 = Instant::now();
        let args = req.args.clone();
        let t0 = Instant::now();
        let out = vm.run_in(session, "main", args);
        let t1 = Instant::now();
        phase.attempted += 1;
        match out {
            Ok(obj) => {
                phase.completed += 1;
                if req.check(&obj) {
                    let latency = t1 - t0;
                    phase.ok += 1;
                    phase.tokens += req.tokens;
                    phase.within_limit += u64::from(latency <= LIMIT);
                    phase.latency_ms.push(ms(latency));
                } else {
                    phase.wrong += 1;
                }
            }
            Err(_) => phase.errors += 1,
        }
        if traced {
            let id = phase.attempted;
            let root = phase
                .spans
                .record(id, 0, "bench.request", ns(r0), ns(Instant::now()));
            phase.spans.record(id, root, "vm.run_in", ns(t0), ns(t1));
        }
    }
    phase.wall_s = epoch.elapsed().as_secs_f64();
    phase.allocs = AllocSnapshot::now().since(before);
    phase
}

/// Run the workload: set up, measure untraced, and when `traced` give
/// the second half of the time to a phase with VM profiling on, reading
/// every layer's counters around it.
pub fn run(seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    let pool = inputs::recurrent_pool(seed, POOL);
    let warm = inputs::recurrent_pool(inputs::WARMUP_SEED, WARMUP);
    let epoch = Instant::now();
    let mut setup_log = SpanLog::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for round in 0..SETUPS {
        // The previous round's stack is dropped before this one starts.
        drop(stack.take());
        let t0 = Instant::now();
        stack = Some(setup(&warm, &mut setup_log, round as u64 + 1, epoch)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let mut stack = stack.expect("at least one set-up round");
    let mut layers = BTreeMap::new();
    report::prepack(&mut layers);

    // A traced run splits its time between an untraced and a traced phase.
    let seconds = if traced { seconds / 2 } else { seconds };
    let plain = drive(&mut stack, &pool, seconds, false);
    let mut outcome = Outcome::new(&plain, setup_s, LIMIT)?;
    if traced {
        for (vm, _) in [&stack.lstm, &stack.tree] {
            vm.set_profiling(true);
        }
        let before = stack.counters();
        let mut phase = drive(&mut stack, &pool, seconds, true);
        stack.counters().per_layer(&before, &phase, &mut layers);
        phase.spans.absorb(setup_log);
        report::compile_layer(&modules(), &CompileOptions::default(), &mut layers)?;
        outcome.add_traced(phase, layers)?;
    }
    Ok(outcome)
}
