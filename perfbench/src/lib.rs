//! The Prom deployment engine's benchmark: three workloads served through
//! the public [`prom_core::serving::ServingFrontEnd`], each checked against
//! a synchronous pipeline replay, with a separate traced mode that times
//! the engine's layers from the outside.
//!
//! * [`inputs`] builds every workload's inputs from the `--seed`.
//! * [`serve`] drives the front-end: one producer thread, open loop at a
//!   fixed offered rate or closed loop with blocking submits.
//! * [`check`] compares served window reports with a synchronous replay.
//! * [`workloads`] runs the three workloads and reduces them to metrics.
//! * [`trace`] records spans around calls into each layer and replays the
//!   judgement stages on a workload's own inputs.
//! * [`report`] prints the human table and the one-line JSON result.
//!
//! `BENCHMARK.json` at the repository root names every metric; run with
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>`.

pub mod check;
pub mod cli;
pub mod inputs;
pub mod measure;
pub mod report;
pub mod serve;
pub mod trace;
pub mod workloads;
