//! `journal`: the service mix re-issued as `Commit`s through
//! `KernelStateMachine::apply`, then shipped through `wire` and folded
//! by `reduce`, with a replication tail (see `replicate`).
//!
//! Each episode assembles a machine from a `Genesis`, sets up a few
//! dozen principals in four projects with setup commits, applies a
//! seeded mix of reads, writes, gate calls, listings, initiation churn
//! and `Tick`s, and then checks the episode's log: re-sealing the
//! recorded commits reproduces the chain head,
//! `decode(encode(log)) == log`, and the `reduce` digest equals the live
//! one. The same monitor calls run underneath as in `service`, so the
//! two workloads together isolate the commit layer.
//!
//! Every episode is new, seeded from the run's seed. The full check of
//! the log runs on the episodes of the fixed prefix and on every
//! [`VERIFY_EVERY`]th episode after; the others check only the outcome of
//! each commit, so that most of the run's time goes to the timed mix.

use std::time::Instant;

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{RingBrackets, SegNo, SplitMix64};
use mks_kernel::statemachine::{decode_commit_log, encode_commit_log, reduce};
use mks_kernel::world::{admin_user, KProcId};
use mks_kernel::{Commit, CommitLog, Genesis, KernelConfig, KernelStateMachine, Outcome};
use mks_mls::Label;

use crate::report::{median, peak_rss_mb, Config, OpClock, Report, SimCounters};
use crate::span::{Sp, Tracer};

const PROJECTS: u64 = 4;
const PRINCIPALS: u64 = 32;
/// Commits per timed block (see `QUIET_BLOCKS`).
const BLOCK: u64 = 2_048;
/// Episodes per full check of the log, after the fixed prefix.
const VERIFY_EVERY: u64 = 4;

struct Sizes {
    /// Mix commits per episode.
    ops: u64,
    /// Episodes of the fixed prefix, which always runs in full and gives
    /// the exact counts; also the number of set-up slots.
    episodes: u64,
}

fn sizes(cfg: &Config) -> Sizes {
    if cfg.mini {
        Sizes {
            ops: 2_000,
            episodes: 2,
        }
    } else {
        Sizes {
            ops: 16_384,
            episodes: 16,
        }
    }
}

/// The machine every episode starts from: the security kernel with the
/// same memory as the `service` world.
pub fn genesis() -> Genesis {
    Genesis {
        cfg: KernelConfig::kernel(),
        frames: 128,
        bulk_records: 512,
        trace_capacity: None,
        daemons: 1,
    }
}

#[derive(Clone, Copy)]
struct Principal {
    pid: KProcId,
    project: u64,
    root: SegNo,
    roster: SegNo,
    registry: SegNo,
}

/// What one episode did.
#[derive(Default)]
struct Episode {
    ops: u64,
    /// Commits in the episode's log, and their encoded size.
    commits: u64,
    bytes: u64,
    unexpected: u64,
    probes: u64,
    refused: u64,
    sim: SimCounters,
}

fn apply(sm: &mut KernelStateMachine, t: &mut Tracer, sp: Sp, c: &Commit) -> Outcome {
    t.call(sp, || sm.apply(c))
}

fn setup(sm: &mut KernelStateMachine, t: &mut Tracer) -> Option<Vec<Principal>> {
    let Outcome::Pid(admin) = apply(
        sm,
        t,
        Sp::ApplySetup,
        &Commit::CreateProcess {
            user: admin_user(),
            label: Label::BOTTOM,
            ring: 4,
        },
    ) else {
        return None;
    };
    let root = apply(sm, t, Sp::ApplySetup, &Commit::BindRoot { pid: admin }).seg()?;
    let mut registry = Acl::of("*.*.*", AclMode::R);
    for i in (0..PRINCIPALS).step_by(4) {
        registry.add(&format!("U{i}.P{}.a", i % PROJECTS), AclMode::RW);
    }
    let mut segments = vec![("registry".to_string(), registry)];
    for k in 0..PROJECTS {
        let mut roster = Acl::of(&format!("*.P{k}.*"), AclMode::RW);
        roster.add("*.*.*", AclMode::R);
        segments.push((format!("roster{k}"), roster));
    }
    for (name, acl) in segments {
        apply(
            sm,
            t,
            Sp::ApplySetup,
            &Commit::CreateSegment {
                pid: admin,
                dir: root,
                name,
                acl,
                brackets: RingBrackets::new(4, 4, 4),
                label: Label::BOTTOM,
            },
        )
        .seg()?;
    }
    let mut principals = Vec::new();
    for i in 0..PRINCIPALS {
        let project = i % PROJECTS;
        let Outcome::Pid(pid) = apply(
            sm,
            t,
            Sp::ApplySetup,
            &Commit::CreateProcess {
                user: UserId::new(&format!("U{i}"), &format!("P{project}"), "a"),
                label: Label::BOTTOM,
                ring: 4,
            },
        ) else {
            return None;
        };
        let root = apply(sm, t, Sp::ApplySetup, &Commit::BindRoot { pid }).seg()?;
        let mut initiate = |name: String| {
            apply(
                sm,
                t,
                Sp::ApplySetup,
                &Commit::Initiate {
                    pid,
                    dir: root,
                    name,
                },
            )
            .seg()
        };
        let roster = initiate(format!("roster{project}"))?;
        let registry = initiate("registry".into())?;
        principals.push(Principal {
            pid,
            project,
            root,
            roster,
            registry,
        });
    }
    apply(sm, t, Sp::ApplySetup, &Commit::Tick { times: 4 });
    Some(principals)
}

/// Picks the next commit of the mix: `(span, commit, is_probe)`.
fn next_commit(
    rng: &mut SplitMix64,
    principals: &[Principal],
    n: u64,
    churn: &mut Option<usize>,
) -> (Sp, Commit, bool) {
    // The second half of an initiation churn: re-initiate what the
    // previous commit terminated.
    if let Some(s) = churn.take() {
        let p = principals[s];
        return (
            Sp::ApplyInitiate,
            Commit::Initiate {
                pid: p.pid,
                dir: p.root,
                name: format!("roster{}", p.project),
            },
            false,
        );
    }
    let s = rng.below(principals.len() as u64) as usize;
    let p = principals[s];
    let offset = rng.below(64);
    match rng.below(100) {
        r @ 0..=61 => (
            Sp::ApplyRead,
            Commit::Read {
                pid: p.pid,
                seg: if r % 2 == 0 { p.registry } else { p.roster },
                offset,
            },
            false,
        ),
        62..=73 => (
            Sp::ApplyWrite,
            Commit::Write {
                pid: p.pid,
                seg: p.roster,
                offset,
                value: n,
            },
            false,
        ),
        74..=88 => (
            Sp::ApplyCallGate,
            Commit::CallGate {
                pid: p.pid,
                gate: "hcs_".into(),
                entry: "metering_get".into(),
            },
            false,
        ),
        89..=94 => {
            *churn = Some(s);
            (
                Sp::ApplyTerminate,
                Commit::Terminate {
                    pid: p.pid,
                    seg: p.roster,
                },
                false,
            )
        }
        95..=96 => (
            Sp::ApplyListDir,
            Commit::ListDir {
                pid: p.pid,
                dir: p.root,
            },
            false,
        ),
        _ => {
            if rng.below(64) == 0 {
                (
                    Sp::ApplyCallGate,
                    Commit::CallGate {
                        pid: p.pid,
                        gate: "hphcs_".into(),
                        entry: "shutdown".into(),
                    },
                    true,
                )
            } else {
                (Sp::ProcsTick, Commit::Tick { times: 1 }, false)
            }
        }
    }
}

/// Runs one episode's mix and verification, returning what it saw.
#[allow(clippy::too_many_arguments)]
fn episode(
    genesis: &Genesis,
    seed: u64,
    ops: u64,
    t: &mut Tracer,
    clock: &mut OpClock,
    setup_s: &mut f64,
    timing: &mut Timing,
    full: bool,
    rep: &mut Report,
) -> Episode {
    let traced = t.on();
    let mut ep = Episode::default();

    let t0 = Instant::now();
    let root = t.begin(Sp::Setup);
    let mut sm = t.call(Sp::StatemachineGenesis, || genesis.build());
    let principals = setup(&mut sm, t);
    t.end(root);
    *setup_s = setup_s.min(t0.elapsed().as_secs_f64());
    let Some(mut principals) = principals else {
        ep.unexpected += 1;
        return ep;
    };

    let before = SimCounters::read(sm.world(), t);
    let mut rng = SplitMix64::new(seed);
    let mut churn = None;
    let mut t_block = Instant::now();
    for n in 0..ops {
        t.set_op(n);
        let t0 = (!traced).then(Instant::now);
        let root = t.begin(Sp::Op);
        let (sp, commit, probe) = next_commit(&mut rng, &principals, n, &mut churn);
        let out = apply(&mut sm, t, sp, &commit);
        t.end(root);
        clock.op(t0);
        match (&out, probe) {
            (Outcome::Refused(_), true) => ep.refused += 1,
            (Outcome::Refused(_), false) => ep.unexpected += 1,
            (_, true) => {}
            (out, false) => {
                if let (Commit::Initiate { pid, .. }, Some(seg)) = (&commit, out.seg()) {
                    if let Some(p) = principals.iter_mut().find(|p| p.pid == *pid) {
                        p.roster = seg;
                    }
                }
            }
        }
        ep.probes += u64::from(probe);
        if (n + 1) % BLOCK == 0 || n + 1 == ops {
            clock.block(traced, n % BLOCK + 1, t_block.elapsed());
            t_block = Instant::now();
        }
    }
    ep.ops = ops;
    ep.sim = SimCounters::read(sm.world(), t).since(&before);

    let log = &sm.world().commits;
    let commits = log.len();
    ep.commits = commits;
    if !full {
        return ep;
    }
    let root = t.begin(Sp::Verify);
    let mut resealed = CommitLog::new();
    resealed.seed(log.base());
    for s in log.entries() {
        let c = s.commit.clone();
        t.call(Sp::StatemachineSeal, || resealed.append(c));
    }
    let t0 = Instant::now();
    let bytes = t.call(Sp::WireEncode, || encode_commit_log(log));
    timing.encode_ns += t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let decoded = t.call(Sp::WireDecode, || decode_commit_log(&bytes));
    timing.decode_ns += t0.elapsed().as_nanos() as u64;
    let t0 = Instant::now();
    let replayed = t.call(Sp::ReplayReduce, || reduce(genesis, log));
    timing.reduce_ns += t0.elapsed().as_nanos() as u64;
    timing.commits += commits;
    ep.bytes = bytes.len() as u64;
    let live = t.call(Sp::StatemachineDigest, || sm.digest());
    let replayed = replayed.map(|r| t.call(Sp::StatemachineDigest, || r.digest()));
    t.end(root);

    rep.check(
        "journal.reseal_reproduces_head",
        resealed.head() == log.head(),
    );
    rep.check(
        "journal.decode_encode_roundtrip",
        decoded.as_ref() == Ok(log),
    );
    rep.check(
        "journal.reduce_digest_equals_live",
        replayed.as_ref() == Ok(&live),
    );
    ep
}

/// Host time of the verification tail, summed over episodes.
#[derive(Default)]
struct Timing {
    commits: u64,
    encode_ns: u64,
    decode_ns: u64,
    reduce_ns: u64,
}

/// Runs the workload.
pub fn run(cfg: &Config, t: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let sz = sizes(cfg);
    let genesis = genesis();
    let mut rng = SplitMix64::new(cfg.seed ^ 0x10_0e4a1);
    let mut clock = OpClock::default();
    // Every set-up is the same work: the fastest of each of a few
    // interleaved slots, for the same reason as the fastest blocks (see
    // `QUIET_BLOCKS`).
    let mut setup_s = vec![f64::INFINITY; sz.episodes as usize];
    let mut timing = Timing::default();
    let mut exact = Episode::default();
    let mut episodes = 0u64;
    let mut peak_mb = 0.0;
    let start = Instant::now();
    while episodes < sz.episodes || start.elapsed().as_secs_f64() < cfg.seconds {
        // Traced and untraced episodes alternate.
        let traced = cfg.trace && episodes % 2 == 1;
        t.begin_block(traced);
        let ep = episode(
            &genesis,
            rng.next_u64(),
            sz.ops,
            t,
            &mut clock,
            &mut setup_s[(episodes % sz.episodes) as usize],
            &mut timing,
            episodes < sz.episodes || episodes.is_multiple_of(VERIFY_EVERY),
            &mut rep,
        );
        t.end_block();
        rep.attempted += ep.ops.max(1);
        rep.failed += ep.unexpected;
        rep.check("journal.denials_equal_probes", ep.refused == ep.probes);
        if episodes < sz.episodes {
            exact.ops += ep.ops;
            exact.commits += ep.commits;
            exact.bytes += ep.bytes;
            exact.sim.add(&ep.sim);
        }
        if episodes + 1 == sz.episodes {
            peak_mb = peak_rss_mb();
        }
        episodes += 1;
    }

    crate::replicate::tail(cfg, t, &mut rep);

    rep.e2e("setup_s", median(&setup_s));
    clock.report(&mut rep);
    exact.sim.report(exact.ops, &mut rep);
    rep.e2e("peak_rss_mb", peak_mb);
    let per_commit = |ns: u64| ns as f64 / timing.commits.max(1) as f64;
    rep.exact_layer(
        "wire_bytes_per_commit",
        exact.bytes as f64 / exact.commits.max(1) as f64,
    );
    if cfg.trace {
        clock.report_trace(t, &mut rep);
        rep.layer("wire.encode.ns_per_commit", per_commit(timing.encode_ns));
        rep.layer("wire.decode.ns_per_commit", per_commit(timing.decode_ns));
        rep.layer("replay.reduce.ns_per_commit", per_commit(timing.reduce_ns));
        rep.layer("replay_commits_per_s", 1e9 / per_commit(timing.reduce_ns));
        for (name, sp) in [
            ("statemachine.apply.read", Sp::ApplyRead),
            ("statemachine.apply.write", Sp::ApplyWrite),
            ("statemachine.apply.call_gate", Sp::ApplyCallGate),
            ("statemachine.apply.list_dir", Sp::ApplyListDir),
            ("statemachine.apply.initiate", Sp::ApplyInitiate),
            ("statemachine.apply.terminate", Sp::ApplyTerminate),
            ("statemachine.seal", Sp::StatemachineSeal),
            ("procs.tick", Sp::ProcsTick),
        ] {
            rep.span_ns(name, t, sp);
        }
    }
    rep
}
