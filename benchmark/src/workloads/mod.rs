//! The four closed-loop workloads. Each one builds its contexts and keys
//! in [`setup`] and answers one request at a time in
//! [`Workload::request`]: the client encodes and encrypts seeded inputs,
//! the server evaluates through the crates' public APIs, and the client
//! decrypts and checks the answer against a plaintext or pinned oracle.

use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

pub mod bool_circuit;
pub mod ckks_c2;
pub mod hybrid_knn;
pub mod sim_sweep;

/// What one request cost and whether its answer was right.
#[derive(Debug)]
pub struct Outcome {
    /// Server time, ciphertext in to ciphertext out, split into stages
    /// that do the same work in every request of a run: one per server
    /// call the benchmark makes (on `sim_sweep`, one per trace, in trace
    /// order).
    pub server: Vec<Duration>,
    /// Client time: encode, encrypt, decrypt and decode.
    pub client: Duration,
    /// Whether the decrypted answer matched the oracle.
    pub ok: bool,
}

impl Outcome {
    /// Server time of the whole request.
    pub fn server_total(&self) -> Duration {
        self.server.iter().sum()
    }
}

/// Runs `stage` and appends its time to `stages`.
pub fn timed<T>(stages: &mut Vec<Duration>, stage: impl FnOnce() -> T) -> T {
    let start = Instant::now();
    let out = stage();
    stages.push(start.elapsed());
    out
}

/// One benchmark workload, with its contexts and keys built.
pub trait Workload {
    /// Runs request `index` end to end and checks its answer.
    fn request(&mut self, index: u64) -> Outcome;
}

/// The workload names, as `--workload` accepts them.
pub const NAMES: [&str; 4] = [
    "bool_circuit_t1",
    "ckks_c2_n13",
    "hybrid_knn_t1",
    "sim_sweep",
];

/// Builds workload `name`'s contexts, keys and fixed public inputs from
/// `seed`.
///
/// # Panics
///
/// Panics when `name` is not one of [`NAMES`].
pub fn setup(name: &str, seed: u64) -> Box<dyn Workload> {
    match name {
        "bool_circuit_t1" => Box::new(bool_circuit::BoolCircuit::new(seed)),
        "ckks_c2_n13" => Box::new(ckks_c2::CkksC2::new(seed)),
        "hybrid_knn_t1" => Box::new(hybrid_knn::HybridKnn::new(seed)),
        "sim_sweep" => Box::new(sim_sweep::SimSweep::new(seed)),
        other => panic!("unknown workload {other:?}"),
    }
}

/// Random stream `stream` of request `index` under `seed`. Inputs and
/// encryption noise draw from different streams, so the plaintext
/// inputs of a request depend only on `(seed, index)`.
pub fn seeded_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    let mix = |x: u64| x.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(29);
    StdRng::seed_from_u64(seed ^ mix(stream.wrapping_add(1)) ^ mix(index).rotate_left(17))
}

/// Input stream of [`seeded_rng`].
pub const INPUTS: u64 = 0;
/// Encryption-noise stream of [`seeded_rng`].
pub const NOISE: u64 = 1;
/// Stream of a workload's fixed public inputs (circuit, weights), drawn
/// once at index 0.
pub const PUBLIC: u64 = 2;
