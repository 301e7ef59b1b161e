//! End-to-end benchmark of the ByzShield round engines, with per-layer
//! attribution. The binary in `main.rs` drives one workload per run.

pub mod bench;
pub mod replay;
pub mod report;
pub mod sim;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod wire;
pub mod workload;
