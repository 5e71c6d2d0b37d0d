//! `serve_steady` and `serve_overload`: an open loop of seeded Poisson
//! arrivals, a 50/50 LSTM and BERT mix, sent through
//! `Router::submit_with_deadline` to batch-planned registrations. One
//! generator thread sends on schedule; the calling thread collects
//! replies in send order.

use crate::inputs::{self, Request};
use crate::measure::{ms, AllocSnapshot};
use crate::report::{self, device_counters, Counters, Phase};
use crate::schedule::{poisson, Timeline};
use crate::trace::SpanLog;
use crate::Outcome;
use nimble_core::{CompileOptions, EngineConfig};
use nimble_device::DeviceSet;
use nimble_serve::{ModelRegistry, RegistryConfig, Rejected, Router, RouterConfig, ServeTicket};
use nimble_vm::{BatchConfig, BatchPlan};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// One serving workload's committed load and stack shape.
pub struct Spec {
    /// Offered load (requests per second), fixed: never derived from a
    /// measured capacity, or a faster commit would be offered more.
    pub rate: f64,
    /// Latency limit; also each request's deadline, counted from its
    /// due time.
    pub limit: Duration,
    /// Engine admission-queue capacity.
    pub queue: usize,
    /// Simulated-GPU target with two 20 µs lanes, or the CPU.
    pub gpu: bool,
}

/// Below saturation on the CPU (this stack sustains several hundred req/s
/// on two cores), where batches rarely form; fast enough that a 20 s run
/// fills five p99 windows of 1000 requests.
pub const STEADY: Spec = Spec {
    rate: 250.0,
    limit: Duration::from_millis(50),
    queue: 64,
    gpu: false,
};

/// About twice what the batched simulated-GPU stack completes, against a
/// small queue, so admission sheds and batches form. The limit sits above
/// the p99 the queue allows, so goodput tracks completions rather than
/// how close the median runs to the limit.
pub const OVERLOAD: Spec = Spec {
    rate: 500.0,
    limit: Duration::from_millis(250),
    queue: 8,
    gpu: true,
};

/// Shape buckets of both models; they cover every generated length
/// (5..=64 tokens).
pub const BUCKETS: [usize; 4] = [8, 16, 32, 64];
const WORKERS: usize = 2;
/// Most distinct requests prepared (each carries its reference output).
const MAX_POOL: usize = 2048;
/// Set-up rounds; `setup_s` is their median.
const SETUPS: usize = 9;
/// Requests served one at a time before timing starts.
const WARMUP: usize = 16;
/// Lead between starting the generator and the first due time.
const LEAD: Duration = Duration::from_millis(5);

struct Stack {
    registry: Arc<ModelRegistry>,
    router: Router,
    devices: Arc<DeviceSet>,
}

impl Stack {
    fn counters(&self) -> Counters {
        let mut c = Counters {
            device: device_counters(&self.devices),
            ..Counters::default()
        };
        for name in ["lstm", "bert"] {
            let entry = self.registry.get(name).expect("model stays registered");
            let shards = entry.shards();
            c.profile += entry.vm().profile_report();
            c.arena.merge(&shards.arena_stats());
            let e = shards.engine_stats();
            c.engine.batches_formed += e.batches_formed;
            c.engine.padded_units += e.padded_units;
            c.engine.used_units += e.used_units;
            if let Some(spec) = entry.specializer() {
                let s = spec.stats();
                for (acc, v) in c
                    .spec
                    .iter_mut()
                    .zip([s.hits, s.misses, s.tunes, s.installs])
                {
                    *acc += v;
                }
            }
        }
        c
    }

    fn set_profiling(&self, on: bool) {
        for name in ["lstm", "bert"] {
            if let Some(entry) = self.registry.get(name) {
                entry.vm().set_profiling(on);
            }
        }
    }
}

fn compile_options(spec: &Spec) -> CompileOptions {
    if spec.gpu {
        CompileOptions::gpu()
    } else {
        CompileOptions::default()
    }
}

fn batch_config() -> BatchConfig {
    BatchConfig {
        buckets: BUCKETS.to_vec(),
        min_batch: 2,
        max_batch: 4,
        max_wait: Duration::from_micros(200),
    }
}

fn modules() -> [nimble_ir::Module; 2] {
    [
        inputs::lstm().module_batched(&BUCKETS),
        inputs::bert().module_batched(&BUCKETS),
    ]
}

/// Build models and plans, register both, start the router and warm up,
/// recording `bench.*` spans under one `bench.setup` root.
fn setup(
    spec: &Spec,
    warm: &[Request],
    log: &mut SpanLog,
    round: u64,
    epoch: Instant,
) -> Result<Stack, String> {
    let ns = |t: Instant| (t - epoch).as_nanos() as u64;
    let start = Instant::now();
    let devices = Arc::new(if spec.gpu {
        DeviceSet::with_gpu_lanes(WORKERS, Duration::from_micros(20))
    } else {
        DeviceSet::cpu_only()
    });
    let registry = Arc::new(ModelRegistry::new(RegistryConfig {
        engine: EngineConfig {
            workers: WORKERS,
            queue_capacity: spec.queue,
            max_batch: 4,
        },
        devices: Arc::clone(&devices),
        ..RegistryConfig::default()
    }));
    let (lstm, bert) = (inputs::lstm(), inputs::bert());
    let plans: [Arc<BatchPlan>; 2] = [
        Arc::new(lstm.batch_plan(batch_config())),
        Arc::new(bert.batch_plan(batch_config())),
    ];
    let opts = compile_options(spec);
    let mut children = Vec::new();
    for ((name, module), plan) in ["lstm", "bert"].into_iter().zip(modules()).zip(plans) {
        let t0 = Instant::now();
        registry
            .register_with_batch(name, "v1", &module, &opts, Some(plan))
            .map_err(|e| e.to_string())?;
        children.push(("bench.register", t0, Instant::now()));
    }
    let router = Router::new(Arc::clone(&registry), RouterConfig::default());
    let t0 = Instant::now();
    for req in warm {
        let c = router
            .run(req.model, req.args.clone())
            .map_err(|e| format!("warm-up {}: {e}", req.model))?;
        let out = c
            .result
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
    Ok(Stack {
        registry,
        router,
        devices,
    })
}

/// What the generator hands the collector for each arrival.
struct Sent {
    index: usize,
    due: u64,
    send: u64,
    admitted: u64,
    ticket: Result<ServeTicket, Rejected>,
}

/// One open-loop phase over `schedule`.
fn drive(
    stack: &Stack,
    spec: &Spec,
    pool: &[Request],
    schedule: &[Duration],
    traced: bool,
) -> Phase {
    let mut phase = Phase {
        spans: SpanLog::with_id_base(1 << 40),
        ..Phase::default()
    };
    let limit_ns = spec.limit.as_nanos() as u64;
    let before = AllocSnapshot::now();
    let epoch = Instant::now() + LEAD;
    let ns = move |t: Instant| t.saturating_duration_since(epoch).as_nanos() as u64;
    let (tx, rx) = mpsc::channel::<Sent>();
    let mut last_reply = 0u64;
    std::thread::scope(|scope| {
        let router = &stack.router;
        scope.spawn(move || {
            for (index, &at) in schedule.iter().enumerate() {
                let due = epoch + at;
                if let Some(nap) = due.checked_duration_since(Instant::now()) {
                    std::thread::sleep(nap);
                }
                let req = &pool[index % pool.len()];
                let send = Instant::now();
                let ticket = router.submit_with_deadline(
                    req.model,
                    req.args.clone(),
                    Some(due + spec.limit),
                );
                let admitted = Instant::now();
                let sent = Sent {
                    index,
                    due: ns(due),
                    send: ns(send),
                    admitted: ns(admitted),
                    ticket,
                };
                if tx.send(sent).is_err() {
                    return;
                }
            }
        });
        for sent in rx {
            let req = &pool[sent.index % pool.len()];
            let id = sent.index as u64 + 1;
            phase.attempted += 1;
            phase
                .late_ms
                .push(sent.send.saturating_sub(sent.due) as f64 / 1e6);
            phase
                .submit_us
                .push((sent.admitted - sent.send) as f64 / 1e3);
            let ticket = match sent.ticket {
                Ok(t) => t,
                Err(refusal) => {
                    if matches!(refusal, Rejected::QueueFull | Rejected::Expired) {
                        phase.shed += 1;
                    } else {
                        phase.errors += 1;
                    }
                    if traced {
                        let root =
                            phase
                                .spans
                                .record(id, 0, "bench.request", sent.due, sent.admitted);
                        phase
                            .spans
                            .record(id, root, "serve.submit", sent.send, sent.admitted);
                    }
                    continue;
                }
            };
            let wait_start = ns(Instant::now());
            let reply = ticket.wait();
            let wait_end = ns(Instant::now());
            last_reply = wait_end;
            let completion = match reply {
                Ok(c) => c,
                Err(Rejected::Expired) => {
                    phase.expired += 1;
                    continue;
                }
                Err(_) => {
                    phase.errors += 1;
                    continue;
                }
            };
            phase.completed += 1;
            phase.queued_ms.push(ms(completion.queued));
            phase.exec_ms.push(ms(completion.execution));
            phase.batch_size_sum += completion.batch_size as u64;
            let timeline = Timeline {
                due: sent.due,
                send: sent.send,
                admitted: sent.admitted,
                engine: completion.latency.as_nanos() as u64,
                wait_start,
                wait_end,
            };
            let a = timeline.attribute();
            match completion.result {
                Ok(out) if req.check(&out) => {
                    phase.ok += 1;
                    phase.tokens += req.tokens;
                    phase.latency_ms.push(a.total as f64 / 1e6);
                    phase.residual_us.push(a.residual as f64 / 1e3);
                    phase.within_limit += u64::from(a.total as u64 <= limit_ns);
                }
                Ok(_) => phase.wrong += 1,
                Err(_) => phase.errors += 1,
            }
            if traced {
                let end = (sent.due as i64 + a.total) as u64;
                let root = phase.spans.record(id, 0, "bench.request", sent.due, end);
                phase
                    .spans
                    .record(id, root, "serve.submit", sent.send, sent.admitted);
                phase
                    .spans
                    .record(id, root, "serve.wait", sent.admitted, end);
            }
        }
    });
    phase.wall_s = last_reply as f64 / 1e9;
    phase.allocs = AllocSnapshot::now().since(before);
    phase
}

/// Run the workload: set up, measure untraced, and when `traced` give
/// the second half of the time to a phase with VM profiling on, reading
/// every layer's counters around it.
pub fn run(spec: &Spec, seed: u64, seconds: Duration, traced: bool) -> Result<Outcome, String> {
    // Arrival `i` sends request `i % pool.len()`; the pool is sized so the
    // untraced phase cycles it a whole number of times.
    let arrivals = (spec.rate * seconds.as_secs_f64()).round() as usize;
    let cycles = arrivals.div_ceil(MAX_POOL).max(1);
    let pool = inputs::serve_pool(seed, arrivals.div_ceil(cycles).next_multiple_of(2));
    let warm = inputs::serve_pool(inputs::WARMUP_SEED, WARMUP);
    let epoch = Instant::now();
    let mut setup_log = SpanLog::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut stack = None;
    for round in 0..SETUPS {
        if let Some(old) = stack.take() {
            shutdown(old);
        }
        let t0 = Instant::now();
        stack = Some(setup(spec, &warm, &mut setup_log, round as u64 + 1, epoch)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let stack = stack.expect("at least one set-up round");
    let mut layers = BTreeMap::new();
    report::prepack(&mut layers);

    // A traced run splits its time between an untraced and a traced phase.
    let seconds = if traced { seconds / 2 } else { seconds };
    let plain = drive(
        &stack,
        spec,
        &pool,
        &poisson(seed, spec.rate, seconds),
        false,
    );
    let mut outcome = Outcome::new(&plain, setup_s, spec.limit)?;
    if traced {
        stack.set_profiling(true);
        let before = stack.counters();
        // A second schedule, also fixed by the seed.
        let schedule = poisson(seed ^ 0x5eed, spec.rate, seconds);
        let mut phase = drive(&stack, spec, &pool, &schedule, true);
        stack.counters().per_layer(&before, &phase, &mut layers);
        phase.spans.absorb(setup_log);
        shutdown(stack);
        report::compile_layer(&modules(), &compile_options(spec), &mut layers)?;
        outcome.add_traced(phase, layers)?;
    } else {
        shutdown(stack);
    }
    Ok(outcome)
}

/// Drain the router and unload both models.
fn shutdown(stack: Stack) {
    stack.router.shutdown();
    stack.registry.shutdown();
}
