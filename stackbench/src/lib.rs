//! The pieces of `stackbench`; `main.rs` is the command line over them.

pub mod client;
pub mod gen;
pub mod json;
pub mod layers;
pub mod load;
pub mod metrics;
pub mod report;
pub mod stack;
pub mod stats;
pub mod trace;
pub mod workloads;
