//! What one run reports: correctness checks, op counts, the end-to-end
//! metrics and the per-layer breakdown, plus the pieces every workload
//! shares to fill them in.

use std::time::{Duration, Instant};

use mks_kernel::KernelWorld;
use mks_trace::Layer;

use crate::hist::Hist;
use crate::span::{Sp, Tracer, LAYERS};

/// How a run is sized and timed.
#[derive(Clone, Copy, Debug)]
pub struct Config {
    /// Workload seed: every input is generated from it.
    pub seed: u64,
    /// Measurement window in host seconds.
    pub seconds: f64,
    /// Alternate traced and untraced blocks and report per-layer metrics.
    pub trace: bool,
    /// Trivial sizes for the self-test.
    pub mini: bool,
}

/// A run's result.
#[derive(Default)]
pub struct Report {
    /// Ops attempted.
    pub attempted: u64,
    /// Unexpected op failures plus failed correctness checks.
    pub failed: u64,
    /// Named correctness checks.
    pub checks: Vec<(String, bool)>,
    /// End-to-end metrics by name.
    pub e2e: Vec<(&'static str, f64)>,
    /// Per-layer metrics by name.
    pub layer: Vec<(String, f64)>,
    /// Exact (deterministic in the seed) values, for the determinism check.
    pub exact: Vec<(String, f64)>,
}

impl Report {
    /// Records a correctness check; a failed one counts as a failure.
    /// Repeating a name ANDs the outcomes into one entry.
    pub fn check(&mut self, name: &str, ok: bool) {
        if !ok {
            self.failed += 1;
        }
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some((_, all)) => *all &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    /// Records an end-to-end metric.
    pub fn e2e(&mut self, name: &'static str, value: f64) {
        self.e2e.push((name, finite(value)));
    }

    /// Records a host-timed per-layer metric.
    pub fn layer(&mut self, name: &str, value: f64) {
        self.layer.push((name.to_string(), finite(value)));
    }

    /// Records an exact per-layer metric (also kept for the
    /// determinism check).
    pub fn exact_layer(&mut self, name: &str, value: f64) {
        self.layer(name, value);
        self.exact.push((name.to_string(), finite(value)));
    }

    /// Records a p50/p99 pair of host ns per call from span durations.
    pub fn span_ns(&mut self, name: &str, tracer: &Tracer, sp: Sp) {
        let h = tracer.durations(sp);
        self.layer(&format!("{name}.ns_p50"), h.quantile(0.50));
        self.layer(&format!("{name}.ns_p99"), h.quantile(0.99));
    }

    /// Whether every check passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.checks.iter().all(|(_, ok)| *ok)
    }
}

fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Median of a list of samples (0 when empty).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// How many measured blocks the host-timed end-to-end metrics are taken
/// over.
///
/// A block is a short stretch of new work, 2,048 ops of `service` or
/// 2,048 commits of a `journal` episode; no block is run twice. Of all the blocks of a run only the fastest [`QUIET_BLOCKS`]
/// by ns per op are kept. Host interference (busy neighbours on a shared
/// machine, mostly in the memory system) comes and goes over milliseconds
/// to minutes and only ever slows a block down, so the fastest blocks
/// measure the program and the rest measure the neighbours; a slower
/// program slows the fastest blocks too. Short blocks find the quiet
/// moments that long ones average away, and many blocks of new work make
/// the fastest few a steady order statistic of the same mix rather than
/// the luck of a few repeated ones. Keeping a fixed number also keeps this
/// bookkeeping's memory independent of the run's length.
pub const QUIET_BLOCKS: usize = 32;

/// One measured block: its host time, ops, and (untraced) op latencies.
struct Block {
    ns: u64,
    ops: u64,
    latency: Hist,
}

impl Block {
    fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops.max(1) as f64
    }
}

/// Host-time accounting of the measured op loop, split by whether the
/// block was traced. Only the fastest blocks are kept; the histograms of
/// the others are cleared and reused, so this bookkeeping allocates the
/// same memory however long the run is and whichever blocks were fast.
#[derive(Default)]
pub struct OpClock {
    open: Hist,
    untraced: Vec<Block>,
    traced: Vec<Block>,
    spare: Vec<Hist>,
}

/// Keeps the fastest [`QUIET_BLOCKS`] of `blocks`, fastest first, and
/// returns the others' histograms to `spare`.
fn keep_quiet(blocks: &mut Vec<Block>, spare: &mut Vec<Hist>) {
    blocks.sort_by(|a, b| a.ns_per_op().total_cmp(&b.ns_per_op()));
    for mut b in blocks.drain(QUIET_BLOCKS.min(blocks.len())..) {
        b.latency.clear();
        spare.push(b.latency);
    }
}

fn rate(blocks: &[Block]) -> f64 {
    let ops: u64 = blocks.iter().map(|b| b.ops).sum();
    let ns: u64 = blocks.iter().map(|b| b.ns).sum();
    if ns == 0 {
        0.0
    } else {
        ops as f64 * 1e9 / ns as f64
    }
}

impl OpClock {
    /// Records the latency of an op started at `t0`; ops in traced
    /// blocks carry no start and are not recorded.
    pub fn op(&mut self, t0: Option<Instant>) {
        if let Some(t0) = t0 {
            self.open.record(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Closes a block: `ops` ops that took `took`.
    pub fn block(&mut self, traced: bool, ops: u64, took: Duration) {
        let fresh = self.spare.pop().unwrap_or_default();
        let b = Block {
            ns: took.as_nanos() as u64,
            ops,
            latency: std::mem::replace(&mut self.open, fresh),
        };
        let blocks = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        if ops > 0 {
            blocks.push(b);
        } else {
            self.spare.push(b.latency);
        }
        if blocks.len() >= 2 * QUIET_BLOCKS {
            keep_quiet(blocks, &mut self.spare);
        }
    }

    /// Reports `ops_per_s`, `op_p50_us` and `op_p99_us` over the quiet
    /// untraced blocks.
    pub fn report(&mut self, rep: &mut Report) {
        keep_quiet(&mut self.untraced, &mut self.spare);
        let mut latency = Hist::default();
        for b in &self.untraced {
            latency.merge(&b.latency);
        }
        rep.e2e("ops_per_s", rate(&self.untraced));
        rep.e2e("op_p50_us", latency.quantile(0.50) / 1e3);
        rep.e2e("op_p99_us", latency.quantile(0.99) / 1e3);
        rep.layer("op_latency_samples", latency.count() as f64);
    }

    /// Reports the tracing overhead (quiet traced vs quiet untraced
    /// blocks) and per-layer self time.
    pub fn report_trace(&mut self, tracer: &Tracer, rep: &mut Report) {
        keep_quiet(&mut self.untraced, &mut self.spare);
        keep_quiet(&mut self.traced, &mut self.spare);
        let untraced = rate(&self.untraced);
        let traced = rate(&self.traced);
        rep.layer("trace.overhead_pct", (1.0 - traced / untraced) * 100.0);
        let ops = tracer.durations(Sp::Op).count().max(1) as f64;
        let mut total = 0u64;
        for (layer, ns) in LAYERS.iter().zip(tracer.self_ns()) {
            rep.layer(&format!("selftime.{layer}.ns_per_op"), *ns as f64 / ops);
            total += ns;
        }
        let coverage = total as f64 / tracer.wall_ns().max(1) as f64;
        rep.layer("selftime.coverage", coverage);
        rep.check(
            "trace.self_times_sum_to_wall",
            (coverage - 1.0).abs() <= SELF_TIME_TOLERANCE,
        );
    }
}

/// How far the per-layer self times may fall short of (or exceed) the
/// traced wall time. The gap is the loop's bookkeeping between one op's
/// root span and the next, mostly one clock read per op: 3-4 % of the
/// traced time at `service`'s and `journal`'s ~1 us per op.
pub const SELF_TIME_TOLERANCE: f64 = 0.1;

/// The kernel's own exported counters, read between ops. Differences of
/// two readings give the exact per-layer counts of the work between.
#[derive(Clone, Copy, Default, Debug, PartialEq)]
pub struct SimCounters {
    clock: u64,
    acl_checks: u64,
    kst_lookups: u64,
    ring_crossings: u64,
    faults: u64,
    lookups: u64,
    probes: u64,
    records: u64,
    dropped: u64,
    exclusive: [u64; 7],
}

impl SimCounters {
    /// Reads the counters of `w` (read-only: nothing here moves the
    /// simulated clock).
    pub fn read(w: &KernelWorld, tracer: &mut Tracer) -> SimCounters {
        tracer.call(Sp::TraceRead, || {
            let trace = &w.vm.machine.trace;
            let snap = trace.snapshot();
            let ring = trace.ring_stats();
            let (lookups, probes) = w.fs.lookup_work();
            let mut exclusive = [0u64; 7];
            for (slot, layer) in exclusive.iter_mut().zip(Layer::ALL) {
                *slot = snap.layer(layer).map_or(0, |l| l.exclusive);
            }
            SimCounters {
                clock: w.vm.machine.clock.now(),
                acl_checks: snap.counter("fs.acl_checks"),
                kst_lookups: snap.counter("fs.kst_lookups"),
                ring_crossings: snap.counter("hw.ring_crossings"),
                faults: w.vm.stats().faults,
                lookups,
                probes,
                records: ring.next_seq,
                dropped: ring.dropped,
                exclusive,
            }
        })
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &SimCounters) -> SimCounters {
        let mut exclusive = [0u64; 7];
        for (i, slot) in exclusive.iter_mut().enumerate() {
            *slot = self.exclusive[i] - before.exclusive[i];
        }
        SimCounters {
            clock: self.clock - before.clock,
            acl_checks: self.acl_checks - before.acl_checks,
            kst_lookups: self.kst_lookups - before.kst_lookups,
            ring_crossings: self.ring_crossings - before.ring_crossings,
            faults: self.faults - before.faults,
            lookups: self.lookups - before.lookups,
            probes: self.probes - before.probes,
            records: self.records - before.records,
            dropped: self.dropped - before.dropped,
            exclusive,
        }
    }

    /// Adds another difference to this one.
    pub fn add(&mut self, d: &SimCounters) {
        self.clock += d.clock;
        self.acl_checks += d.acl_checks;
        self.kst_lookups += d.kst_lookups;
        self.ring_crossings += d.ring_crossings;
        self.faults += d.faults;
        self.lookups += d.lookups;
        self.probes += d.probes;
        self.records += d.records;
        self.dropped += d.dropped;
        for (a, b) in self.exclusive.iter_mut().zip(d.exclusive) {
            *a += b;
        }
    }

    /// Reports `sim_cycles_per_op` and the exact per-layer counts, all
    /// per op over `ops` ops.
    pub fn report(&self, ops: u64, rep: &mut Report) {
        let per = |v: u64| v as f64 / ops.max(1) as f64;
        rep.e2e("sim_cycles_per_op", per(self.clock));
        rep.exact
            .push(("sim_cycles_per_op".into(), per(self.clock)));
        rep.exact_layer("fs.acl_checks_per_op", per(self.acl_checks));
        rep.exact_layer("fs.kst_lookups_per_op", per(self.kst_lookups));
        rep.exact_layer(
            "fs.probes_per_lookup",
            self.probes as f64 / self.lookups.max(1) as f64,
        );
        rep.exact_layer("vm.faults_per_op", per(self.faults));
        rep.exact_layer("hw.ring_crossings_per_op", per(self.ring_crossings));
        rep.exact_layer("trace.records_per_op", per(self.records));
        rep.exact_layer("trace.ring_dropped_per_op", per(self.dropped));
        for (layer, cycles) in Layer::ALL.iter().zip(self.exclusive) {
            rep.exact_layer(
                &format!("sim.{}.exclusive_cycles_per_op", layer.name()),
                per(cycles),
            );
        }
    }
}

/// Peak resident set of this process so far in MB (VmHWM), 0 if
/// unknown. Workloads read it at the end of their fixed prefix of work:
/// read at the end of a timed run it would grow with the work a fast
/// host gets through (the `service` kernel state grows with every op).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
