//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! it makes into a kernel layer: a name, start, end and parent, with
//! every span of one client op sharing the op's id. Spans collect in a
//! buffer for the current traced block; at the block's end the buffer
//! is folded into per-name duration histograms and per-layer self time
//! (a span's duration minus the part its children cover), and the first
//! [`KEEP`] spans are kept to be written out when the run ends.
//!
//! With tracing off, `begin` and `end` are a flag test each, so the
//! untraced blocks of a traced run measure the same code path as an
//! untraced run.

use std::io::Write;
use std::time::Instant;

use crate::hist::Hist;

/// Spans kept for the span file.
pub const KEEP: usize = 1 << 18;

/// Every span the benchmark records. A span's layer is its name up to
/// the first `.`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Sp {
    /// One client op: input generation plus the calls it makes.
    Op,
    /// Per-episode assembly (genesis and setup commits, or a cluster).
    Setup,
    /// Per-episode verification tail.
    Verify,
    MonitorRead,
    MonitorWrite,
    MonitorCallGate,
    MonitorInitiate,
    MonitorInitiateDir,
    MonitorTerminate,
    MonitorListDir,
    MonitorStatus,
    AuthRegister,
    AuthLogin,
    WorldBindRoot,
    WorldDestroyProcess,
    WorldAuditBatch,
    TraceRead,
    StatemachineGenesis,
    ApplySetup,
    ApplyRead,
    ApplyWrite,
    ApplyCallGate,
    ApplyListDir,
    ApplyInitiate,
    ApplyTerminate,
    ProcsTick,
    StatemachineSeal,
    StatemachineDigest,
    WireEncode,
    WireDecode,
    ReplayReduce,
    ReplicateNew,
    ReplicateSubmit,
    ReplicateTick,
    ReplicateQuiet,
    ReplicateDigest,
}

impl Sp {
    /// Every span kind, in declaration order.
    pub const ALL: [Sp; 36] = [
        Sp::Op,
        Sp::Setup,
        Sp::Verify,
        Sp::MonitorRead,
        Sp::MonitorWrite,
        Sp::MonitorCallGate,
        Sp::MonitorInitiate,
        Sp::MonitorInitiateDir,
        Sp::MonitorTerminate,
        Sp::MonitorListDir,
        Sp::MonitorStatus,
        Sp::AuthRegister,
        Sp::AuthLogin,
        Sp::WorldBindRoot,
        Sp::WorldDestroyProcess,
        Sp::WorldAuditBatch,
        Sp::TraceRead,
        Sp::StatemachineGenesis,
        Sp::ApplySetup,
        Sp::ApplyRead,
        Sp::ApplyWrite,
        Sp::ApplyCallGate,
        Sp::ApplyListDir,
        Sp::ApplyInitiate,
        Sp::ApplyTerminate,
        Sp::ProcsTick,
        Sp::StatemachineSeal,
        Sp::StatemachineDigest,
        Sp::WireEncode,
        Sp::WireDecode,
        Sp::ReplayReduce,
        Sp::ReplicateNew,
        Sp::ReplicateSubmit,
        Sp::ReplicateTick,
        Sp::ReplicateQuiet,
        Sp::ReplicateDigest,
    ];

    /// The span's name; the part before the first `.` is its layer.
    pub fn name(self) -> &'static str {
        match self {
            Sp::Op => "client.op",
            Sp::Setup => "client.setup",
            Sp::Verify => "client.verify",
            Sp::MonitorRead => "monitor.read",
            Sp::MonitorWrite => "monitor.write",
            Sp::MonitorCallGate => "monitor.call_gate",
            Sp::MonitorInitiate => "monitor.initiate",
            Sp::MonitorInitiateDir => "monitor.initiate_dir",
            Sp::MonitorTerminate => "monitor.terminate",
            Sp::MonitorListDir => "monitor.list_dir",
            Sp::MonitorStatus => "monitor.status",
            Sp::AuthRegister => "auth.register",
            Sp::AuthLogin => "auth.login",
            Sp::WorldBindRoot => "world.bind_root",
            Sp::WorldDestroyProcess => "world.destroy_process",
            Sp::WorldAuditBatch => "world.audit_batch",
            Sp::TraceRead => "trace.read",
            Sp::StatemachineGenesis => "statemachine.genesis",
            Sp::ApplySetup => "statemachine.apply.setup",
            Sp::ApplyRead => "statemachine.apply.read",
            Sp::ApplyWrite => "statemachine.apply.write",
            Sp::ApplyCallGate => "statemachine.apply.call_gate",
            Sp::ApplyListDir => "statemachine.apply.list_dir",
            Sp::ApplyInitiate => "statemachine.apply.initiate",
            Sp::ApplyTerminate => "statemachine.apply.terminate",
            Sp::ProcsTick => "procs.tick",
            Sp::StatemachineSeal => "statemachine.seal",
            Sp::StatemachineDigest => "statemachine.digest",
            Sp::WireEncode => "wire.encode",
            Sp::WireDecode => "wire.decode",
            Sp::ReplayReduce => "replay.reduce",
            Sp::ReplicateNew => "replicate.new",
            Sp::ReplicateSubmit => "replicate.submit",
            Sp::ReplicateTick => "replicate.tick",
            Sp::ReplicateQuiet => "replicate.run_quiet",
            Sp::ReplicateDigest => "replicate.digest",
        }
    }

    fn layer(self) -> usize {
        let name = self.name();
        let layer = &name[..name.find('.').unwrap_or(name.len())];
        LAYERS
            .iter()
            .position(|l| *l == layer)
            .expect("every span name starts with a known layer")
    }
}

/// The layers self time is reported for.
pub const LAYERS: [&str; 10] = [
    "client",
    "monitor",
    "auth",
    "world",
    "trace",
    "statemachine",
    "procs",
    "wire",
    "replay",
    "replicate",
];

/// A handle to an open span (`NONE` when tracing is off).
#[derive(Clone, Copy)]
pub struct Tok(u32);

const NONE: Tok = Tok(u32::MAX);

struct Raw {
    id: u64,
    /// Index + 1 of the parent in the block buffer; 0 for a root.
    parent: u32,
    op: u64,
    sp: Sp,
    start: u64,
    end: u64,
}

struct Kept {
    id: u64,
    parent: u64,
    op: u64,
    sp: Sp,
    start: u64,
    end: u64,
}

/// The recorder. One per run; blocks alternate traced and untraced.
pub struct Tracer {
    on: bool,
    base: Instant,
    block_start: u64,
    buf: Vec<Raw>,
    stack: Vec<u32>,
    next_id: u64,
    op: u64,
    kept: Vec<Kept>,
    by_name: Vec<Hist>,
    self_ns: [u64; LAYERS.len()],
    wall_ns: u64,
    spans: u64,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            on: false,
            base: Instant::now(),
            block_start: 0,
            buf: Vec::new(),
            stack: Vec::new(),
            next_id: 1,
            op: 0,
            kept: Vec::new(),
            by_name: vec![Hist::default(); Sp::ALL.len()],
            self_ns: [0; LAYERS.len()],
            wall_ns: 0,
            spans: 0,
        }
    }
}

impl Tracer {
    fn now(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    /// Whether the current block is traced.
    pub fn on(&self) -> bool {
        self.on
    }

    /// Starts a block; spans are recorded in it when `traced`.
    pub fn begin_block(&mut self, traced: bool) {
        self.on = traced;
        self.block_start = self.now();
    }

    /// Ends the current block, folding its spans into the aggregates.
    pub fn end_block(&mut self) {
        if !self.on {
            return;
        }
        assert!(self.stack.is_empty(), "a block ended with a span open");
        self.wall_ns += self.now() - self.block_start;
        let mut child_ns = vec![0u64; self.buf.len()];
        for r in &self.buf {
            if r.parent != 0 {
                child_ns[r.parent as usize - 1] += r.end - r.start;
            }
        }
        for (r, child) in self.buf.iter().zip(child_ns) {
            let dur = r.end - r.start;
            self.by_name[r.sp as usize].record(dur);
            self.self_ns[r.sp.layer()] += dur.saturating_sub(child);
            if self.kept.len() < KEEP {
                self.kept.push(Kept {
                    id: r.id,
                    parent: if r.parent == 0 {
                        0
                    } else {
                        self.buf[r.parent as usize - 1].id
                    },
                    op: r.op,
                    sp: r.sp,
                    start: r.start,
                    end: r.end,
                });
            }
        }
        self.spans += self.buf.len() as u64;
        self.buf.clear();
        self.on = false;
    }

    /// Sets the op id later spans carry.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span. The clock is read first and (in `end`) last, so a
    /// span's own bookkeeping counts inside it rather than in no span.
    pub fn begin(&mut self, sp: Sp) -> Tok {
        if !self.on {
            return NONE;
        }
        let start = self.now();
        let parent = self.stack.last().map_or(0, |&i| i + 1);
        let idx = self.buf.len() as u32;
        self.buf.push(Raw {
            id: self.next_id,
            parent,
            op: self.op,
            sp,
            start,
            end: 0,
        });
        self.next_id += 1;
        self.stack.push(idx);
        Tok(idx)
    }

    /// Closes the innermost open span.
    pub fn end(&mut self, tok: Tok) {
        if tok.0 == NONE.0 {
            return;
        }
        let idx = self.stack.pop().expect("end matches a begin");
        debug_assert_eq!(idx, tok.0, "spans close innermost first");
        self.buf[idx as usize].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn call<R>(&mut self, sp: Sp, f: impl FnOnce() -> R) -> R {
        let tok = self.begin(sp);
        let out = f();
        self.end(tok);
        out
    }

    /// Duration histogram of one span kind over all traced blocks.
    pub fn durations(&self, sp: Sp) -> &Hist {
        &self.by_name[sp as usize]
    }

    /// Self time per layer, in [`LAYERS`] order.
    pub fn self_ns(&self) -> &[u64; LAYERS.len()] {
        &self.self_ns
    }

    /// Wall time of all traced blocks.
    pub fn wall_ns(&self) -> u64 {
        self.wall_ns
    }

    /// Spans recorded over the run.
    pub fn spans(&self) -> u64 {
        self.spans
    }

    /// Writes the kept spans as tab-separated lines.
    pub fn write_spans(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\top\tname\tstart_ns\tend_ns")?;
        for k in &self.kept {
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}\t{}",
                k.id,
                k.parent,
                k.op,
                k.sp.name(),
                k.start,
                k.end
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_sums_to_roots() {
        let mut t = Tracer::default();
        t.begin_block(true);
        t.set_op(1);
        let root = t.begin(Sp::Op);
        t.call(Sp::MonitorRead, || {
            std::hint::black_box((0..1000u64).sum::<u64>())
        });
        t.end(root);
        t.end_block();
        let total: u64 = t.self_ns().iter().sum();
        let root_dur = t.durations(Sp::Op).quantile(0.5);
        assert_eq!(t.spans(), 2);
        assert!(total as f64 <= root_dur * 1.01 + 1.0);
        assert!(t.wall_ns() >= total);
    }

    #[test]
    fn untraced_blocks_record_nothing() {
        let mut t = Tracer::default();
        t.begin_block(false);
        let tok = t.begin(Sp::Op);
        t.end(tok);
        t.end_block();
        assert_eq!(t.spans(), 0);
        assert_eq!(t.wall_ns(), 0);
    }
}
