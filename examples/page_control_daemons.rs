//! Watch the dedicated page-control processes work.
//!
//! Three user processes walk skewed reference traces under severe memory
//! pressure; the core freer and bulk freer (dedicated layer-1 virtual
//! processors) keep the hierarchy flowing. Compare the same load on the
//! sequential design.
//!
//! ```text
//! cargo run -p mks-bench --example page_control_daemons
//! ```

use mks_bench::drivers::{run_parallel_metered, run_sequential_metered};
use mks_vm::{RefTrace, TraceConfig, VmStats};

fn show(name: &str, s: &VmStats, cycles: u64) {
    println!("{name}:");
    println!("  faults serviced     {:>8}", s.faults);
    println!("  mean fault path     {:>8.2} steps", s.mean_fault_steps());
    println!("  worst fault path    {:>8} steps", s.fault_path_steps_max);
    println!("  waits for a frame   {:>8}", s.fault_waits);
    println!("  core evictions      {:>8}", s.evictions_core);
    println!("  clean drops         {:>8}", s.clean_drops);
    println!("  bulk->disk moves    {:>8}", s.evictions_bulk);
    println!("  simulated cycles    {:>8}", cycles);
}

fn main() {
    let trace = RefTrace::generate(&TraceConfig {
        seed: 1975,
        nr_segments: 6,
        pages_per_segment: 10,
        length: 3_000,
        theta: 0.85,
        phase_len: 750,
    });
    println!(
        "workload: {} references over {} pages, Zipf 0.85, 4 locality phases",
        trace.refs.len(),
        trace.distinct_pages()
    );
    println!("memory: 10 primary frames, 24 bulk records, unbounded disk\n");

    let (seq, seq_cycles, _) = run_sequential_metered(10, 24, &trace, 3);
    show(
        "sequential design (fault handler runs the whole cascade)",
        &seq,
        seq_cycles,
    );
    println!();
    let (par, par_cycles, _) = run_parallel_metered(10, 24, &trace, 3, 3);
    show(
        "parallel design (core freer + bulk freer daemons)",
        &par,
        par_cycles,
    );

    println!();
    println!(
        "fault-path complexity: {:.2} steps -> {:.2} steps (worst {} -> {})",
        seq.mean_fault_steps(),
        par.mean_fault_steps(),
        seq.fault_path_steps_max,
        par.fault_path_steps_max
    );
    println!("the user process's path no longer depends on how full anything is:");
    println!("it \"can just wait until a primary memory block is free and then");
    println!("initiate the transfer of the desired page into primary memory.\"");
}
