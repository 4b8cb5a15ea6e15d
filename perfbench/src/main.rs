//! The repository benchmark: two workloads that drive the kernel from
//! outside, through public functions only.
//!
//! ```text
//! mks-perfbench --workload <service|journal> --seed <n> --seconds <s> --trace <0|1>
//! mks-perfbench --selftest
//! ```
//!
//! A run prints one line per correctness check and per metric (name,
//! value, unit), then, as its last line, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. With `--trace 0` the
//! metrics are the end-to-end ones; with `--trace 1` they are the
//! per-layer breakdown, and the recorded spans are written to
//! `perfbench/out/`. `--selftest` runs every workload at a trivial size
//! in both modes, checks the metric set against `BENCHMARK.json`, and
//! checks that the exact metrics repeat for a repeated seed.
//! See `perfbench/README.md` for what each metric means.

mod hist;
mod journal;
mod replicate;
mod report;
mod service;
mod span;

use std::process::ExitCode;

use report::{Config, Report};
use span::Tracer;

/// `(name, unit, better, bound)` of every end-to-end metric.
const END_TO_END: &[(&str, &str, &str, f64)] = &[
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_us", "us", "lower", 0.25),
    ("op_p99_us", "us", "lower", 0.25),
    ("sim_cycles_per_op", "cycles", "lower", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.1),
];

/// `(name, unit, better)` of every per-layer metric. A workload that
/// does not exercise a layer reports 0 for its metrics.
const PER_LAYER: &[(&str, &str, &str)] = &[
    ("monitor.read.ns_p50", "ns", "lower"),
    ("monitor.read.ns_p99", "ns", "lower"),
    ("monitor.write.ns_p50", "ns", "lower"),
    ("monitor.write.ns_p99", "ns", "lower"),
    ("monitor.call_gate.ns_p50", "ns", "lower"),
    ("monitor.call_gate.ns_p99", "ns", "lower"),
    ("monitor.initiate.ns_p50", "ns", "lower"),
    ("monitor.initiate.ns_p99", "ns", "lower"),
    ("monitor.terminate.ns_p50", "ns", "lower"),
    ("monitor.terminate.ns_p99", "ns", "lower"),
    ("monitor.list_dir.ns_p50", "ns", "lower"),
    ("monitor.list_dir.ns_p99", "ns", "lower"),
    ("monitor.status.ns_p50", "ns", "lower"),
    ("monitor.status.ns_p99", "ns", "lower"),
    ("auth.login.ns_p50", "ns", "lower"),
    ("auth.login.ns_p99", "ns", "lower"),
    ("world.destroy_process.ns_p50", "ns", "lower"),
    ("world.destroy_process.ns_p99", "ns", "lower"),
    ("world.audit_batch.ns_p50", "ns", "lower"),
    ("world.audit_batch.ns_p99", "ns", "lower"),
    ("trace.records_per_op", "1/op", "lower"),
    ("trace.ring_dropped_per_op", "1/op", "lower"),
    ("trace.overhead_pct", "%", "lower"),
    ("fs.acl_checks_per_op", "1/op", "lower"),
    ("fs.kst_lookups_per_op", "1/op", "lower"),
    ("fs.probes_per_lookup", "1/lookup", "lower"),
    ("vm.faults_per_op", "1/op", "lower"),
    ("hw.ring_crossings_per_op", "1/op", "lower"),
    ("sim.hw.exclusive_cycles_per_op", "cycles", "lower"),
    ("sim.monitor.exclusive_cycles_per_op", "cycles", "lower"),
    ("sim.vm.exclusive_cycles_per_op", "cycles", "lower"),
    ("sim.procs.exclusive_cycles_per_op", "cycles", "lower"),
    ("sim.fs.exclusive_cycles_per_op", "cycles", "lower"),
    ("sim.io.exclusive_cycles_per_op", "cycles", "lower"),
    ("sim.kernel.exclusive_cycles_per_op", "cycles", "lower"),
    ("statemachine.apply.read.ns_p50", "ns", "lower"),
    ("statemachine.apply.read.ns_p99", "ns", "lower"),
    ("statemachine.apply.write.ns_p50", "ns", "lower"),
    ("statemachine.apply.write.ns_p99", "ns", "lower"),
    ("statemachine.apply.call_gate.ns_p50", "ns", "lower"),
    ("statemachine.apply.call_gate.ns_p99", "ns", "lower"),
    ("statemachine.apply.list_dir.ns_p50", "ns", "lower"),
    ("statemachine.apply.list_dir.ns_p99", "ns", "lower"),
    ("statemachine.apply.initiate.ns_p50", "ns", "lower"),
    ("statemachine.apply.initiate.ns_p99", "ns", "lower"),
    ("statemachine.apply.terminate.ns_p50", "ns", "lower"),
    ("statemachine.apply.terminate.ns_p99", "ns", "lower"),
    ("statemachine.seal.ns_p50", "ns", "lower"),
    ("statemachine.seal.ns_p99", "ns", "lower"),
    ("procs.tick.ns_p50", "ns", "lower"),
    ("procs.tick.ns_p99", "ns", "lower"),
    ("wire.encode.ns_per_commit", "ns", "lower"),
    ("wire.decode.ns_per_commit", "ns", "lower"),
    ("wire_bytes_per_commit", "B", "lower"),
    ("replay.reduce.ns_per_commit", "ns", "lower"),
    ("replay_commits_per_s", "1/s", "higher"),
    ("replicate.submit.ns_p50", "ns", "lower"),
    ("replicate.submit.ns_p99", "ns", "lower"),
    ("replicate.tick.ns_p50", "ns", "lower"),
    ("replicate.tick.ns_p99", "ns", "lower"),
    ("replicate.frames_sent_per_commit", "1/commit", "lower"),
    ("replicate.frames_delivered_per_commit", "1/commit", "lower"),
    ("replicate.resends_per_commit", "1/commit", "lower"),
    ("replicate.retries", "count", "lower"),
    ("replicate.promotions", "count", "lower"),
    ("replicate.catchups", "count", "lower"),
    ("replicate.fenced", "count", "lower"),
    ("replicate.heartbeat_misses", "count", "lower"),
    ("replicate.link.dropped", "count", "lower"),
    ("replicate.link.duplicated", "count", "lower"),
    ("replicate.link.reordered", "count", "lower"),
    ("replicate.link.delayed", "count", "lower"),
    ("replicate.link.partition_drops", "count", "lower"),
    ("unavailable_ticks", "ticks", "lower"),
    ("selftime.client.ns_per_op", "ns", "lower"),
    ("selftime.monitor.ns_per_op", "ns", "lower"),
    ("selftime.auth.ns_per_op", "ns", "lower"),
    ("selftime.world.ns_per_op", "ns", "lower"),
    ("selftime.trace.ns_per_op", "ns", "lower"),
    ("selftime.statemachine.ns_per_op", "ns", "lower"),
    ("selftime.procs.ns_per_op", "ns", "lower"),
    ("selftime.wire.ns_per_op", "ns", "lower"),
    ("selftime.replay.ns_per_op", "ns", "lower"),
    ("selftime.replicate.ns_per_op", "ns", "lower"),
    ("selftime.coverage", "ratio", "higher"),
    ("op_latency_samples", "count", "higher"),
];

/// The workloads `BENCHMARK.json` names.
const WORKLOADS: [&str; 2] = ["service", "journal"];

fn run(workload: &str, cfg: &Config, t: &mut Tracer) -> Report {
    match workload {
        "service" => service::run(cfg, t),
        "journal" => journal::run(cfg, t),
        other => unreachable!("unknown workload {other}"),
    }
}

/// The metrics a run prints: every end-to-end metric, or with tracing
/// every per-layer metric (0 where the workload has no such layer).
fn printed(rep: &Report, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let v = rep
                    .layer
                    .iter()
                    .find(|(n, _)| n == name)
                    .map_or(0.0, |m| m.1);
                (name, unit, v)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .map(|&(name, unit, _, _)| {
                let v = rep
                    .e2e
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |m| m.1);
                (name, unit, v)
            })
            .collect()
    }
}

fn measure(workload: &str, cfg: &Config) -> ExitCode {
    let mut t = Tracer::default();
    let rep = run(workload, cfg, &mut t);
    println!(
        "# workload={workload} seed={} seconds={} trace={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace)
    );
    for (name, ok) in &rep.checks {
        println!("check {name} {}", if *ok { "ok" } else { "FAILED" });
    }
    println!(
        "error_rate {} (failed {} of {} attempted)",
        rep.failed as f64 / rep.attempted.max(1) as f64,
        rep.failed,
        rep.attempted
    );
    let metrics = printed(&rep, cfg.trace);
    for (name, unit, v) in &metrics {
        println!("metric {name} {v} {unit}");
    }
    if cfg.trace {
        let path = format!("perfbench/out/spans-{workload}-seed{}.tsv", cfg.seed);
        match t.write_spans(std::path::Path::new(&path)) {
            Ok(()) => println!(
                "spans {} recorded, first {} written to {path}",
                t.spans(),
                span::KEEP
            ),
            Err(e) => println!("spans {} recorded, not written: {e}", t.spans()),
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        rep.correct(),
        rep.attempted.max(1),
        rep.failed,
        body.join(", ")
    );
    if rep.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Checks that `BENCHMARK.json` names exactly the workloads and metrics
/// this program reports, with the same units, directions and bounds.
fn spec_matches(spec: &str) -> Vec<String> {
    let flat: String = spec.chars().filter(|c| !c.is_whitespace()).collect();
    let mut missing = Vec::new();
    let mut expect = |entry: String| {
        if !flat.contains(&entry) {
            missing.push(entry);
        }
    };
    for w in WORKLOADS {
        expect(format!("{{\"name\":\"{w}\",\"why\":"));
    }
    for &(name, unit, better, bound) in END_TO_END {
        expect(format!(
            "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\",\"bound\":{bound}}}"
        ));
    }
    for &(name, unit, better) in PER_LAYER {
        expect(format!(
            "{{\"name\":\"{name}\",\"unit\":\"{unit}\",\"better\":\"{better}\"}}"
        ));
    }
    let entries = flat.matches("{\"name\":").count();
    let known = WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len();
    if entries != known {
        missing.push(format!("{entries} named entries, expected {known}"));
    }
    missing
}

/// Runs every workload at a trivial size: every check, every metric
/// name, and the determinism of the exact metrics.
fn selftest() -> ExitCode {
    let mut problems = Vec::new();
    match std::fs::read_to_string("BENCHMARK.json") {
        Ok(spec) => problems.extend(
            spec_matches(&spec)
                .into_iter()
                .map(|m| format!("spec: {m}")),
        ),
        Err(e) => problems.push(format!("BENCHMARK.json unreadable: {e}")),
    }
    let mini = |seed: u64, trace: bool| Config {
        seed,
        seconds: 0.0,
        trace,
        mini: true,
    };
    let mut reported = std::collections::BTreeSet::new();
    for w in WORKLOADS {
        for trace in [false, true] {
            let rep = run(w, &mini(1, trace), &mut Tracer::default());
            for (name, ok) in &rep.checks {
                if !ok {
                    problems.push(format!("{w}: check {name} failed"));
                }
            }
            if !rep.correct() {
                problems.push(format!("{w}: {} failures", rep.failed));
            }
            for &(name, ..) in END_TO_END {
                if !rep.e2e.iter().any(|(n, _)| *n == name) {
                    problems.push(format!("{w}: end-to-end metric {name} not reported"));
                }
            }
            for (name, _) in &rep.layer {
                if !PER_LAYER.iter().any(|(n, ..)| n == name) {
                    problems.push(format!("{w}: reports unlisted metric {name}"));
                }
                reported.insert(name.clone());
            }
        }
        let a = run(w, &mini(7, false), &mut Tracer::default());
        let b = run(w, &mini(7, true), &mut Tracer::default());
        if a.exact != b.exact || a.exact.is_empty() {
            problems.push(format!("{w}: exact metrics differ for one seed"));
        }
        let c = run(w, &mini(8, false), &mut Tracer::default());
        if !c.correct() {
            problems.push(format!("{w}: seed 8 fails its checks"));
        }
        println!("selftest {w}: {} exact metrics repeat", a.exact.len());
    }
    for &(name, ..) in PER_LAYER {
        if !reported.contains(name) {
            problems.push(format!("per-layer metric {name} reported by no workload"));
        }
    }
    for p in &problems {
        println!("selftest problem: {p}");
    }
    if problems.is_empty() {
        println!("selftest ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("{msg}");
    eprintln!(
        "usage: mks-perfbench --workload <service|journal> --seed <n> \
         --seconds <s> --trace <0|1>\n       mks-perfbench --selftest"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--selftest") {
        return selftest();
    }
    let value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let Some(workload) = value("--workload").filter(|w| WORKLOADS.contains(w)) else {
        return usage("--workload must be service or journal");
    };
    let Some(seed) = value("--seed").and_then(|s| s.parse().ok()) else {
        return usage("--seed must be an unsigned integer");
    };
    let Some(seconds) = value("--seconds")
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| s.is_finite() && *s >= 0.0)
    else {
        return usage("--seconds must be a non-negative number");
    };
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        _ => return usage("--trace must be 0 or 1"),
    };
    let cfg = Config {
        seed,
        seconds,
        trace,
        mini: false,
    };
    measure(workload, &cfg)
}
