//! Models and seeded request pools. Model weights are part of the
//! program under test and fixed; only the requests come from the seed.
//! Every request carries its expected output from the model's independent
//! Rust `reference()`, computed before any timing starts.

use nimble_models::data::list_object;
use nimble_models::{BertConfig, BertModel, LstmConfig, LstmModel, TreeLstmConfig, TreeLstmModel};
use nimble_tensor::Tensor;
use nimble_vm::Object;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Weight seed shared by every model (part of the program, not the input).
const WEIGHT_SEED: u64 = 42;

/// LSTM of paper Table 1, scaled down: input 32, hidden 32.
pub fn lstm() -> LstmModel {
    LstmModel::new(LstmConfig {
        input: 32,
        hidden: 32,
        layers: 1,
        seed: WEIGHT_SEED,
    })
}

/// Tree-LSTM of paper Table 2, scaled: input 64, hidden 64.
pub fn tree_lstm() -> TreeLstmModel {
    TreeLstmModel::new(TreeLstmConfig {
        input: 64,
        hidden: 64,
        classes: 5,
        seed: WEIGHT_SEED,
    })
}

/// BERT of paper Table 3, scaled: 2 layers of width 64.
pub fn bert() -> BertModel {
    BertModel::new(BertConfig {
        layers: 2,
        hidden: 64,
        heads: 4,
        ffn: 256,
        vocab: 500,
        max_pos: 128,
        seed: WEIGHT_SEED,
    })
}

/// Seed of the warm-up requests: fixed, so set-up does the same work
/// whatever the workload seed.
pub const WARMUP_SEED: u64 = 0x5EED_0000;

/// Tolerances of the repository's own end-to-end tests.
const RECURRENT_TOL: f32 = 1e-4;
const BERT_TOL: f32 = 1e-3;

/// One prepared request.
pub struct Request {
    /// Registered model name (`lstm`, `tree_lstm` or `bert`).
    pub model: &'static str,
    /// VM arguments of `main`.
    pub args: Vec<Object>,
    /// Work units: LSTM and BERT tokens, Tree-LSTM nodes.
    pub tokens: u64,
    /// The reference output.
    want: Tensor,
    tol: f32,
}

impl Request {
    /// Whether `got` matches the reference within the model's tolerance.
    pub fn check(&self, got: &Object) -> bool {
        let Ok(got) = got.wait_tensor() else {
            return false;
        };
        if got.dims() != self.want.dims() {
            return false;
        }
        match (got.as_f32(), self.want.as_f32()) {
            (Ok(g), Ok(w)) => g.iter().zip(w).all(|(a, b)| (a - b).abs() < self.tol),
            _ => false,
        }
    }
}

/// MRPC-like sentence length: about normal around 26, within 5..=64.
fn mrpc_len(rng: &mut StdRng) -> usize {
    let s: f64 = (0..4).map(|_| rng.gen_range(0.0..13.0)).sum();
    (s as usize).clamp(5, 64)
}

/// SST-like parse size in leaves, skewed short, within 2..=50.
fn sst_leaves(rng: &mut StdRng) -> usize {
    let s: f64 = (0..3).map(|_| rng.gen_range(0.0..13.0)).sum();
    (s as usize).clamp(2, 50)
}

/// Seed of the request sizes. Every workload seed gets the same multiset
/// of sizes (sentence lengths, tree leaf counts) in its own order and
/// with its own contents, so a seed changes the inputs but not the
/// amount of work they carry.
const SIZES_SEED: u64 = 0x5EED_0001;

/// `n` sizes from `draw`, the same for every workload seed, in an order
/// shuffled by `rng`.
fn sizes(n: usize, draw: fn(&mut StdRng) -> usize, rng: &mut StdRng) -> Vec<usize> {
    let mut fixed = StdRng::seed_from_u64(SIZES_SEED);
    let mut out: Vec<usize> = (0..n).map(|_| draw(&mut fixed)).collect();
    out.shuffle(rng);
    out
}

fn lstm_request(model: &LstmModel, len: usize, rng: &mut StdRng) -> Request {
    let tokens = model.random_tokens(rng, len);
    Request {
        model: "lstm",
        args: vec![list_object(&tokens)],
        tokens: tokens.len() as u64,
        want: model.reference(&tokens),
        tol: RECURRENT_TOL,
    }
}

fn tree_request(model: &TreeLstmModel, leaves: usize, rng: &mut StdRng) -> Request {
    let tree = model.random_tree(rng, leaves);
    Request {
        model: "tree_lstm",
        args: vec![tree.to_object()],
        tokens: tree.num_nodes() as u64,
        want: model.reference(&tree),
        tol: RECURRENT_TOL,
    }
}

fn bert_request(model: &BertModel, len: usize, rng: &mut StdRng) -> Request {
    let ids = model.random_tokens(rng, len);
    let (tok, pos) = model.inputs(&ids);
    Request {
        model: "bert",
        args: vec![Object::tensor(tok), Object::tensor(pos)],
        tokens: ids.len() as u64,
        want: model.reference(&ids),
        tol: BERT_TOL,
    }
}

/// `n` requests alternating LSTM and Tree-LSTM (`n` even).
pub fn recurrent_pool(seed: u64, n: usize) -> Vec<Request> {
    let (l, t) = (lstm(), tree_lstm());
    let mut rng = StdRng::seed_from_u64(seed);
    let lens = sizes(n / 2, mrpc_len, &mut rng);
    let leaves = sizes(n / 2, sst_leaves, &mut rng);
    lens.into_iter()
        .zip(leaves)
        .flat_map(|(len, leaves)| {
            let lstm = lstm_request(&l, len, &mut rng);
            [lstm, tree_request(&t, leaves, &mut rng)]
        })
        .collect()
}

/// `n` requests, half LSTM and half BERT (`n` even), in seeded random
/// order.
pub fn serve_pool(seed: u64, n: usize) -> Vec<Request> {
    let (l, b) = (lstm(), bert());
    let mut rng = StdRng::seed_from_u64(seed);
    let lens = sizes(n / 2, mrpc_len, &mut rng);
    let mut pool: Vec<Request> = Vec::with_capacity(n);
    for &len in &lens {
        pool.push(lstm_request(&l, len, &mut rng));
    }
    for len in sizes(n / 2, mrpc_len, &mut rng) {
        pool.push(bert_request(&b, len, &mut rng));
    }
    pool.shuffle(&mut rng);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_are_seeded() {
        let key = |p: &[Request]| p.iter().map(|r| (r.model, r.tokens)).collect::<Vec<_>>();
        assert_eq!(key(&serve_pool(3, 16)), key(&serve_pool(3, 16)));
        assert_ne!(key(&serve_pool(3, 16)), key(&serve_pool(4, 16)));
        let serve = serve_pool(3, 16);
        assert_eq!(serve.iter().filter(|r| r.model == "lstm").count(), 8);
        // Another seed, other inputs, the same work.
        let total = |p: &[Request]| p.iter().map(|r| r.tokens).sum::<u64>();
        assert_eq!(total(&serve), total(&serve_pool(4, 16)));
        assert_eq!(total(&recurrent_pool(5, 8)), total(&recurrent_pool(6, 8)));
        assert_ne!(
            serve
                .iter()
                .step_by(2)
                .filter(|r| r.model == "lstm")
                .count(),
            8,
            "the mix is shuffled"
        );
        let rec = recurrent_pool(5, 8);
        assert!(rec.iter().step_by(2).all(|r| r.model == "lstm"));
        assert!(rec
            .iter()
            .skip(1)
            .step_by(2)
            .all(|r| r.model == "tree_lstm"));
    }

    #[test]
    fn lengths_stay_in_their_ranges() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..1000 {
            assert!((5..=64).contains(&mrpc_len(&mut rng)));
            assert!((2..=50).contains(&sst_leaves(&mut rng)));
        }
    }

    #[test]
    fn check_rejects_a_perturbed_output() {
        let model = lstm();
        let mut rng = StdRng::seed_from_u64(9);
        let req = lstm_request(&model, 7, &mut rng);
        let good = Object::tensor(req.want.clone());
        assert!(req.check(&good));
        let mut v = req.want.as_f32().unwrap().to_vec();
        v[0] += 1e-3;
        let bad = Object::tensor(Tensor::from_vec_f32(v, req.want.dims()).unwrap());
        assert!(!req.check(&bad));
    }
}
