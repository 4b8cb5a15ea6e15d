//! # mks-bench — the experiment harness
//!
//! One binary per claim in the paper (experiments E1–E18 and the A1–A4
//! ablations, see `DESIGN.md` §4 and `EXPERIMENTS.md`), plus shared
//! workload drivers and report formatting. Run any experiment with
//!
//! ```text
//! cargo run -p mks-bench --bin exp_e1_linker_gates
//! ```
//!
//! run the whole suite (and regenerate `results/`) with
//!
//! ```text
//! cargo run -p mks-bench --bin exp_all
//! ```
//!
//! and the E18 host-time perf gate with
//! `cargo run --release -p mks-bench --bin bench_e18`.
//!
//! The measurement logic lives in [`experiments`] — each binary is a thin
//! printing wrapper — and every paper claim is encoded as a machine-checked
//! shape in [`claims`], asserted by `tests/claims.rs` and the `exp_all`
//! runner (which CI gates on).

pub mod claims;
pub mod drivers;
pub mod experiments;
pub mod perf;
pub mod report;
pub mod scale;

pub use report::Table;
