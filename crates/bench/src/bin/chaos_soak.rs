//! Chaos soak: the seeded fault-injection harness from `nimble-serve`
//! driven over a two-model mix (a dynamic-length LSTM and a tiny BERT),
//! run **twice with the same seed** to prove the whole serving stack —
//! P2C shard balancing, replica kill + requeue, deadline storms,
//! hot-swaps mid-traffic, autoscaler cycles — is deterministic under
//! fault injection:
//!
//! * both runs must produce byte-identical transcripts and terminal
//!   accounting;
//! * every episode quiesces with `accepted == completed + failed +
//!   expired` and `lost == 0` per model (the harness asserts this
//!   internally, the binary re-checks the final books);
//! * prepack and storage-arena memory return to the pre-load baseline after teardown (asserted inside the harness).
//!
//! The default (smoke) effort is wired into CI next to `serve_mix`;
//! `--full` runs a longer soak.

use std::sync::Arc;
use std::time::Duration;

use nimble_bench::harness::Effort;
use nimble_models::data::list_object;
use nimble_models::{BertConfig, BertModel, LstmConfig, LstmModel};
use nimble_serve::{ChaosConfig, ChaosHarness, ChaosModel, ChaosReport};
use nimble_vm::{BatchConfig, Object};
use rand::Rng;

/// Bucket edges shared by both chaos models: request lengths are drawn
/// from 2..9 (LSTM) and 2..7 (BERT), so power-of-two edges up to 8 cover
/// every draw and still force padding on odd lengths.
const BUCKETS: [usize; 3] = [2, 4, 8];

fn batch_config() -> BatchConfig {
    BatchConfig {
        buckets: BUCKETS.to_vec(),
        min_batch: 2,
        max_batch: 4,
        max_wait: Duration::from_micros(100),
    }
}

fn lstm_chaos_model() -> ChaosModel {
    let plan = LstmModel::new(LstmConfig {
        input: 16,
        hidden: 16,
        layers: 1,
        seed: 42,
    })
    .batch_plan(batch_config());
    ChaosModel {
        name: "lstm".to_string(),
        // Same architecture every version (stable prepack count), fresh
        // weights per hot-swap. `module_batched` carries the `main_b{L}`
        // entries the batch plan dispatches to.
        module: Box::new(|v| {
            LstmModel::new(LstmConfig {
                input: 16,
                hidden: 16,
                layers: 1,
                seed: 42 + v,
            })
            .module_batched(&BUCKETS)
        }),
        // Pathological dynamic-shape mix: every request draws a fresh
        // sequence length.
        request: Box::new(|rng| {
            let model = LstmModel::new(LstmConfig {
                input: 16,
                hidden: 16,
                layers: 1,
                seed: 42,
            });
            let len = rng.gen_range(2usize..9);
            vec![list_object(&model.random_tokens(rng, len))]
        }),
        batch: Some(Arc::new(plan)),
    }
}

fn bert_chaos_model() -> ChaosModel {
    let config = BertConfig {
        layers: 1,
        hidden: 32,
        heads: 2,
        ffn: 64,
        vocab: 100,
        max_pos: 64,
        seed: 42,
    };
    let plan = BertModel::new(config).batch_plan(batch_config());
    ChaosModel {
        name: "bert".to_string(),
        module: Box::new(move |v| {
            BertModel::new(BertConfig {
                seed: 42 + v,
                ..config
            })
            .module_batched(&BUCKETS)
        }),
        request: Box::new(move |rng| {
            let model = BertModel::new(config);
            let len = rng.gen_range(2usize..7);
            let (tok, pos) = model.inputs(&model.random_tokens(rng, len));
            vec![Object::tensor(tok), Object::tensor(pos)]
        }),
        batch: Some(Arc::new(plan)),
    }
}

fn run_once(episodes: u32) -> ChaosReport {
    ChaosHarness::new(
        vec![lstm_chaos_model(), bert_chaos_model()],
        ChaosConfig {
            seed: 0x50AC_CE55,
            episodes,
            ..ChaosConfig::default()
        },
    )
    .run()
}

fn main() {
    let effort = Effort::from_args();
    let full = effort == Effort::full();
    let episodes = if full { 48 } else { 12 };
    println!("chaos_soak: seeded fault injection over lstm + bert ({episodes} episodes)");

    let first = run_once(episodes);
    println!("\nrun 1 transcript:\n{first}");
    let second = run_once(episodes);

    // Determinism: same seed ⇒ same faults, same accounting, twice.
    assert_eq!(
        first, second,
        "replay diverged — hidden nondeterminism in the serving stack"
    );
    println!("run 2: identical transcript and accounting (replay verified)");

    // The seeded schedule must actually exercise the headline faults.
    // `kill_batch` needs a whole-word match ("kill_batch" contains
    // "kill"), so check it with the trailing space the event format
    // guarantees.
    let kinds = [
        "burst ",
        "kill ",
        "storm ",
        "hot_swap ",
        "scale ",
        "kill_batch ",
    ];
    for kind in kinds {
        assert!(
            first.events.iter().any(|e| e.contains(kind)),
            "seeded schedule never ran a {} episode; transcript:\n{first}",
            kind.trim_end()
        );
    }

    // Final books: exactly-once accounting, explicit sheds only, and the
    // faults left visible marks (requeues from kills, expiries from
    // storms).
    let mut requeued = 0;
    let mut expired = 0;
    for (name, c) in &first.accounting {
        assert!(c.accepted > 0, "{name} saw no traffic");
        assert_eq!(
            c.accepted,
            c.completed + c.failed + c.expired,
            "{name}: accounting leak (lost request)"
        );
        requeued += c.requeued;
        expired += c.expired;
    }
    assert!(requeued > 0, "replica kills never orphaned a request");
    assert!(expired > 0, "deadline storms never expired a request");

    println!(
        "chaos_soak: OK ({} episodes, {} requeued across kills, {} expired in storms, 0 lost)",
        first.events.len(),
        requeued,
        expired
    );
}
