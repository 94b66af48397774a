//! Benchmark of FDBSCAN, FDBSCAN-DenseBox and the clustering service:
//! end-to-end metrics from untraced runs, per-layer metrics from traced
//! runs, and a grid verifier that checks every timed output.
//!
//! Run it with
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload cosmo3d-fdbscan --seed 1 --seconds 10 --trace 0
//! ```

pub mod metrics;
pub mod trace;
pub mod verify;
pub mod workloads;
