//! Concurrent multi-model traffic through the [`Router`] under a
//! watchdog: several submitter threads flood two models with tagged
//! requests and random deadlines while a third thread hot-swaps one of
//! the models mid-traffic.
//!
//! Invariants checked:
//! - every submitted request resolves to exactly one terminal outcome
//!   (completed / failed / expired / rejected), and telemetry agrees
//!   with the client-side tally;
//! - no request is ever lost (a reply channel that goes dead);
//! - responses are never misrouted: an `alpha` request always gets an
//!   `alpha` answer (v1 or v2, depending on when the swap lands), never
//!   a `beta` answer, and vice versa;
//! - the latency histogram's count equals completed + failed.

use nimble_core::{CompileOptions, EngineConfig};
use nimble_ir::attrs::Attrs;
use nimble_ir::builder::FunctionBuilder;
use nimble_ir::types::TensorType;
use nimble_ir::Module;
use nimble_serve::{ModelRegistry, RegistryConfig, Rejected, Router, RouterConfig};
use nimble_tensor::{DType, Tensor};
use nimble_vm::Object;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

const WIDTH: usize = 4;

/// `main(x) = x + bias` over a dynamic-row `[?, WIDTH]` input.
fn add_model(bias: f32) -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param(
        "x",
        TensorType::with_any(&[None, Some(WIDTH as u64)], DType::F32),
    );
    let b = fb.constant(Tensor::from_vec_f32(vec![bias; WIDTH], &[WIDTH]).unwrap());
    let y = fb.call("add", vec![x, b], Attrs::new());
    let mut m = Module::new();
    m.add_function("main", fb.finish(y));
    m
}

/// `main(x) = x * scale` over the same signature.
fn mul_model(scale: f32) -> Module {
    let mut fb = FunctionBuilder::new("main");
    let x = fb.param(
        "x",
        TensorType::with_any(&[None, Some(WIDTH as u64)], DType::F32),
    );
    let s = fb.constant(Tensor::from_vec_f32(vec![scale; WIDTH], &[WIDTH]).unwrap());
    let y = fb.call("mul", vec![x, s], Attrs::new());
    let mut m = Module::new();
    m.add_function("main", fb.finish(y));
    m
}

fn tagged_input(tag: f32) -> Object {
    Object::tensor(Tensor::from_vec_f32(vec![tag; WIDTH], &[1, WIDTH]).unwrap())
}

/// Client-side tally of one submitter thread.
#[derive(Debug, Default)]
struct Tally {
    submitted: u64,
    completed: u64,
    expired: u64,
    rejected_queue_full: u64,
    rejected_expired: u64,
    other_rejected: u64,
}

/// Run `f` on a fresh thread and panic if it does not finish in time —
/// turns a potential deadlock into a bounded-time test failure.
fn bounded<F: FnOnce() + Send + 'static>(limit: Duration, f: F) {
    let (tx, rx) = std::sync::mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    rx.recv_timeout(limit)
        .expect("deadlock: router traffic did not finish in time");
}

#[test]
fn concurrent_traffic_with_hot_swap_accounts_for_every_request() {
    bounded(Duration::from_secs(60), || {
        const THREADS_PER_MODEL: usize = 3;
        const REQUESTS_PER_THREAD: u64 = 120;

        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            engine: EngineConfig {
                workers: 2,
                queue_capacity: 16,
                ..EngineConfig::default()
            },
            ..RegistryConfig::default()
        }));
        let opts = CompileOptions::default();
        // alpha v1: +1, alpha v2 (hot-swapped mid-traffic): +1000.
        // beta: *2. Tags in 10..500 keep the three outputs disjoint.
        registry
            .register("alpha", "v1", &add_model(1.0), &opts)
            .unwrap();
        registry
            .register("beta", "v1", &mul_model(2.0), &opts)
            .unwrap();
        let router = Arc::new(Router::new(Arc::clone(&registry), RouterConfig::default()));

        let swapped = Arc::new(AtomicBool::new(false));
        let mut handles = Vec::new();
        for t in 0..THREADS_PER_MODEL * 2 {
            let router = Arc::clone(&router);
            let swapped = Arc::clone(&swapped);
            let model = if t % 2 == 0 { "alpha" } else { "beta" };
            handles.push(std::thread::spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xCAFE + t as u64);
                let mut tally = Tally::default();
                for i in 0..REQUESTS_PER_THREAD {
                    let tag = rng.gen_range(10.0f32..500.0);
                    // Mix generous deadlines with tight ones that can
                    // expire in the queue, and a few already-dead ones
                    // that must be shed at admission.
                    let deadline = match i % 10 {
                        0 => Instant::now() - Duration::from_millis(1),
                        1..=3 => Instant::now() + Duration::from_micros(rng.gen_range(5..200)),
                        _ => Instant::now() + Duration::from_secs(5),
                    };
                    // Pre-swap flag read: if the swap was already
                    // visible before submit, a v1 answer would prove a
                    // stale route.
                    let swap_seen = swapped.load(Ordering::SeqCst);
                    tally.submitted += 1;
                    match router.submit_with_deadline(model, vec![tagged_input(tag)], Some(deadline))
                    {
                        Ok(ticket) => match ticket.wait() {
                            Ok(done) => {
                                let out = done
                                    .result
                                    .expect("vm run")
                                    .wait_tensor()
                                    .expect("tensor result");
                                let got = out.as_f32().expect("f32")[0];
                                let ok = match model {
                                    "alpha" if swap_seen => (got - (tag + 1000.0)).abs() < 1e-3,
                                    "alpha" => {
                                        (got - (tag + 1.0)).abs() < 1e-3
                                            || (got - (tag + 1000.0)).abs() < 1e-3
                                    }
                                    _ => (got - tag * 2.0).abs() < 1e-3,
                                };
                                assert!(
                                    ok,
                                    "misrouted: model={model} tag={tag} got={got} swap_seen={swap_seen}"
                                );
                                tally.completed += 1;
                            }
                            Err(Rejected::Expired) => tally.expired += 1,
                            Err(other) => panic!("accepted request lost to {other:?}"),
                        },
                        Err(Rejected::QueueFull) => tally.rejected_queue_full += 1,
                        Err(Rejected::Expired) => tally.rejected_expired += 1,
                        Err(other) => {
                            // Unloaded/ShuttingDown never happen here:
                            // models stay registered and the router is
                            // not draining.
                            panic!("unexpected admission rejection {other:?}");
                        }
                    }
                    if i % 7 == 0 {
                        std::thread::yield_now();
                    }
                }
                tally
            }));
        }

        // Hot-swap alpha to v2 mid-traffic.
        let swapper = {
            let registry = Arc::clone(&registry);
            let swapped = Arc::clone(&swapped);
            let opts = opts.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                registry
                    .register("alpha", "v2", &add_model(1000.0), &opts)
                    .unwrap();
                swapped.store(true, Ordering::SeqCst);
            })
        };

        let tallies: Vec<Tally> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        swapper.join().unwrap();
        assert_eq!(registry.get("alpha").unwrap().version(), "v2");

        let submitted: u64 = tallies.iter().map(|t| t.submitted).sum();
        let completed: u64 = tallies.iter().map(|t| t.completed).sum();
        let expired: u64 = tallies.iter().map(|t| t.expired).sum();
        let rej_full: u64 = tallies.iter().map(|t| t.rejected_queue_full).sum();
        let rej_dead: u64 = tallies.iter().map(|t| t.rejected_expired).sum();
        let other: u64 = tallies.iter().map(|t| t.other_rejected).sum();
        assert_eq!(
            submitted,
            (THREADS_PER_MODEL * 2) as u64 * REQUESTS_PER_THREAD
        );
        // Exactly one terminal outcome per request, client side.
        assert_eq!(completed + expired + rej_full + rej_dead + other, submitted);
        // Every 10th deadline was already dead at submit.
        assert!(rej_dead >= submitted / 10, "dead deadlines must be shed");

        // Telemetry agrees with the client-side tally, per model and in
        // aggregate; nothing was lost and histograms cover exactly the
        // executed requests.
        let stats = router.stats();
        assert_eq!(stats.models.len(), 2);
        for (name, m) in &stats.models {
            assert_eq!(m.lost, 0, "{name}: no request may be lost");
            assert_eq!(m.failed, 0, "{name}: no VM errors expected");
            assert_eq!(
                m.terminal(),
                m.accepted,
                "{name}: every accepted request must reach a terminal state"
            );
            assert_eq!(
                m.latency.count(),
                m.completed + m.failed,
                "{name}: histogram must cover exactly the executed requests"
            );
        }
        let total_submitted: u64 = stats.models.values().map(|m| m.submitted()).sum();
        let total_completed: u64 = stats.models.values().map(|m| m.completed).sum();
        let total_expired: u64 = stats
            .models
            .values()
            .map(|m| m.expired + m.rejected_expired)
            .sum();
        let total_full: u64 = stats.models.values().map(|m| m.rejected_queue_full).sum();
        assert_eq!(total_submitted, submitted);
        assert_eq!(total_completed, completed);
        assert_eq!(total_expired, expired + rej_dead);
        assert_eq!(total_full, rej_full);

        router.shutdown();
        assert!(matches!(
            router.submit("alpha", vec![tagged_input(10.0)]),
            Err(Rejected::ShuttingDown)
        ));
    });
}

/// A hot swap installs the new version before draining the old one, so a
/// submitter that read the old entry just before the swap must be
/// admitted to the new one: concurrent submitters across 200 swaps never
/// see `Rejected::Unloaded` for a model that stays registered.
#[test]
fn hot_swaps_never_answer_unloaded() {
    bounded(Duration::from_secs(120), || {
        const SWAPS: usize = 200;
        let registry = Arc::new(ModelRegistry::new(RegistryConfig {
            engine: EngineConfig {
                workers: 1,
                queue_capacity: 64,
                ..EngineConfig::default()
            },
            ..RegistryConfig::default()
        }));
        let opts = CompileOptions::default();
        registry
            .register("alpha", "v0", &add_model(1.0), &opts)
            .unwrap();
        let router = Arc::new(Router::new(Arc::clone(&registry), RouterConfig::default()));
        let done = Arc::new(AtomicBool::new(false));
        // Submitters keep a few tickets in flight instead of waiting on
        // each, so admissions keep racing the swaps' drains.
        let submitters: Vec<_> = (0..3)
            .map(|_| {
                let (router, done) = (Arc::clone(&router), Arc::clone(&done));
                std::thread::spawn(move || {
                    let (mut admitted, mut unloaded) = (0u64, 0u64);
                    let mut in_flight = Vec::new();
                    while !done.load(Ordering::SeqCst) {
                        match router.submit_with_deadline("alpha", vec![tagged_input(7.0)], None) {
                            Ok(ticket) => {
                                admitted += 1;
                                in_flight.push(ticket);
                            }
                            Err(Rejected::Unloaded) => unloaded += 1,
                            Err(_) => {}
                        }
                        if in_flight.len() >= 16 {
                            in_flight.drain(..).for_each(|t| drop(t.wait()));
                        }
                    }
                    in_flight.into_iter().for_each(|t| drop(t.wait()));
                    (admitted, unloaded)
                })
            })
            .collect();
        for i in 1..=SWAPS {
            registry
                .register("alpha", &format!("v{i}"), &add_model(1.0), &opts)
                .unwrap();
        }
        done.store(true, Ordering::SeqCst);
        let (mut admitted, mut unloaded) = (0, 0);
        for h in submitters {
            let (a, u) = h.join().unwrap();
            admitted += a;
            unloaded += u;
        }
        assert!(admitted > 0, "no request was admitted during the swaps");
        assert_eq!(unloaded, 0, "Unloaded answered for a registered model");
    });
}
