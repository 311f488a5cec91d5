//! The repository's benchmark. See `README.md` beside `Cargo.toml` for the
//! workloads, the metrics and how they map onto the layers.

pub mod client;
pub mod compare;
pub mod gated;
pub mod json;
pub mod metrics;
pub mod noise;
pub mod probes;
pub mod report;
pub mod spans;
pub mod stats;
pub mod traced;
pub mod workloads;
