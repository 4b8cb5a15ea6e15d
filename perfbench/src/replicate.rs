//! The replication tail of a `journal` run: three-replica `Cluster`s
//! running the `drive_mixed_workload`-shaped op mix.
//!
//! Each episode builds a cluster, drives the E15-shaped mix with one
//! cluster tick per op (a client whose submission is refused ticks and
//! retries, like a client re-dialing), and runs `run_quiet` until the
//! cluster converges. It then checks every replica's digest against the
//! primary's and `reduce(primary log)` against the primary. The tail runs
//! after `journal`'s timed window and reports the `replicate` layer's
//! per-layer metrics; none of its host time is in `journal`'s end-to-end
//! figures.
//!
//! The link is healthy, so no election happens: the failover and
//! link-damage counters read 0, and the `FailoverCheck` and split-brain
//! checks, which would have nothing to check, are not made. The seeded
//! hostile-link plan `FaultPlan::generate_replication(seed)` is left out
//! because the kernel fails its own checks on some of its episodes (see
//! "Known kernel defects" in `perfbench/README.md`).

use std::time::Instant;

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{RingBrackets, SegNo, SplitMix64};
use mks_kernel::replicate::{Cluster, ReplConfig};
use mks_kernel::statemachine::reduce;
use mks_kernel::world::admin_user;
use mks_kernel::{Commit, Genesis, Outcome};
use mks_mls::{Compartments, Label, Level};

use crate::report::{Config, Report};
use crate::span::{Sp, Tracer};

/// Submissions a client attempts (ticking between) before it gives up.
const MAX_ATTEMPTS: u32 = 400;
/// Ticks `run_quiet` may take to converge after the drive.
const QUIET_TICKS: u64 = 4_000;
/// Host seconds the convergence wait may take before the episode is
/// failed, so a cluster that livelocks cannot stall the run.
const QUIET_SECONDS: f64 = 20.0;

/// `(commits the mix seals per episode, episodes)` of the tail: every
/// episode ships a log of about the same length.
fn sizes(cfg: &Config) -> (u64, u64) {
    if cfg.mini {
        (40, 2)
    } else {
        (64, 32)
    }
}

/// Exact protocol counts, summed over episodes.
#[derive(Default, Clone, Copy)]
struct Counts {
    commits: u64,
    retries: u64,
    unavailable_ticks: u64,
    promotions: u64,
    catchups: u64,
    fenced: u64,
    heartbeat_misses: u64,
    resends: u64,
    sent: u64,
    delivered: u64,
    dropped: u64,
    duplicated: u64,
    reordered: u64,
    delayed: u64,
    partition_drops: u64,
}

impl Counts {
    fn add(&mut self, c: &Counts) {
        self.commits += c.commits;
        self.retries += c.retries;
        self.unavailable_ticks += c.unavailable_ticks;
        self.promotions += c.promotions;
        self.catchups += c.catchups;
        self.fenced += c.fenced;
        self.heartbeat_misses += c.heartbeat_misses;
        self.resends += c.resends;
        self.sent += c.sent;
        self.delivered += c.delivered;
        self.dropped += c.dropped;
        self.duplicated += c.duplicated;
        self.reordered += c.reordered;
        self.delayed += c.delayed;
        self.partition_drops += c.partition_drops;
    }
}

/// The client: submits with retry and counts what it saw.
struct Client<'a> {
    cluster: Cluster,
    t: &'a mut Tracer,
    counts: Counts,
    gave_up: u64,
    submitted: u64,
}

impl Client<'_> {
    /// One tick; a tick with no primary is a tick of unavailability.
    fn tick(&mut self) {
        let cluster = &mut self.cluster;
        self.t.call(Sp::ReplicateTick, || cluster.tick());
        if self.cluster.primary().is_none() {
            self.counts.unavailable_ticks += 1;
        }
    }

    /// Seals `commit` on a primary, ticking and retrying while the
    /// cluster has none. One client op; its latency includes retries.
    fn submit(&mut self, commit: &Commit, op: u64) -> Option<Outcome> {
        self.t.set_op(op);
        let root = self.t.begin(Sp::Op);
        let mut out = None;
        for _ in 0..MAX_ATTEMPTS {
            let cluster = &mut self.cluster;
            match self.t.call(Sp::ReplicateSubmit, || cluster.submit(commit)) {
                Ok(o) => {
                    out = Some(o);
                    break;
                }
                Err(_) => {
                    self.counts.retries += 1;
                    self.tick();
                }
            }
        }
        self.t.end(root);
        match out {
            Some(_) => self.submitted += 1,
            None => self.gave_up += 1,
        }
        out
    }
}

/// Drives the mix: the `drive_mixed_workload` shape, from outside, until
/// the mix has sealed `commits` commits.
fn drive(c: &mut Client<'_>, seed: u64, commits: u64) -> Option<(u64, bool)> {
    let mut op = 0u64;
    let mut next = |c: &mut Client<'_>, commit: Commit| {
        op += 1;
        c.submit(&commit, op)
    };
    let Outcome::Pid(admin) = next(
        c,
        Commit::CreateProcess {
            user: admin_user(),
            label: Label::BOTTOM,
            ring: 4,
        },
    )?
    else {
        return None;
    };
    let root = next(c, Commit::BindRoot { pid: admin })?.seg()?;
    let Outcome::Pid(stranger) = next(
        c,
        Commit::CreateProcess {
            user: UserId::new("Mallory", "Guest", "a"),
            label: Label::BOTTOM,
            ring: 4,
        },
    )?
    else {
        return None;
    };
    let sroot = next(c, Commit::BindRoot { pid: stranger })?.seg()?;
    let probe = next(
        c,
        Commit::CreateSegment {
            pid: admin,
            dir: root,
            name: "probe".into(),
            acl: Acl::of("Admin.SysAdmin.a", AclMode::RW),
            brackets: RingBrackets::new(4, 4, 4),
            label: Label::BOTTOM,
        },
    )?
    .seg()?;
    next(c, Commit::Tick { times: 4 })?;

    let mut rng = SplitMix64::new(seed ^ 0xd1f7_ac75_0bad_c0de);
    let mut dirs: Vec<SegNo> = vec![root];
    let secret = Label::new(Level::SECRET, Compartments::of(&[1]));
    let start = c.submitted;
    for i in 0.. {
        if c.submitted - start >= commits {
            break;
        }
        match rng.below(6) {
            0 => {
                let parent = dirs[rng.below(dirs.len() as u64) as usize];
                let label = if rng.below(2) == 0 {
                    Label::BOTTOM
                } else {
                    secret
                };
                let out = next(
                    c,
                    Commit::CreateDirectory {
                        pid: admin,
                        dir: parent,
                        name: format!("d{i}"),
                        label,
                    },
                )?;
                if let Some(segno) = out.seg() {
                    dirs.push(segno);
                }
            }
            1 => {
                let parent = dirs[rng.below(dirs.len() as u64) as usize];
                next(
                    c,
                    Commit::CreateSegment {
                        pid: admin,
                        dir: parent,
                        name: format!("s{i}"),
                        acl: Acl::of("*.*.*", AclMode::RW),
                        brackets: RingBrackets::new(4, 4, 4),
                        label: secret,
                    },
                )?;
            }
            2 => {
                let offset = rng.below(64);
                next(
                    c,
                    Commit::Write {
                        pid: admin,
                        seg: probe,
                        offset,
                        value: i + 1,
                    },
                )?;
                next(
                    c,
                    Commit::Read {
                        pid: admin,
                        seg: probe,
                        offset,
                    },
                )?;
            }
            3 => {
                next(
                    c,
                    Commit::Initiate {
                        pid: stranger,
                        dir: sroot,
                        name: "probe".into(),
                    },
                )?;
            }
            4 => {
                next(c, Commit::Wakeup { daemon: 0 })?;
                next(c, Commit::Tick { times: 1 })?;
            }
            _ => {
                next(c, Commit::Tick { times: 2 })?;
            }
        }
        c.tick();
    }
    next(c, Commit::Tick { times: 4 })?;
    let salvage_problems = match next(c, Commit::Salvage)? {
        Outcome::Value(n) => n,
        _ => 0,
    };
    let boot_divergence = next(c, Commit::BootCheck)? != Outcome::Value(0);
    next(c, Commit::MeteringGet { pid: admin })?;
    Some((salvage_problems, boot_divergence))
}

/// Runs one episode, checks it, and returns its counts.
fn episode(
    seed: u64,
    commits: u64,
    t: &mut Tracer,
    rep: &mut Report,
) -> Counts {
    let genesis = Genesis::kernel_small();
    let root = t.begin(Sp::Setup);
    let cluster = t.call(Sp::ReplicateNew, || {
        Cluster::new(
            genesis,
            ReplConfig {
                seed,
                ..ReplConfig::default()
            },
        )
    });
    t.end(root);
    let mut c = Client {
        cluster,
        t,
        counts: Counts::default(),
        gave_up: 0,
        submitted: 0,
    };

    let tail = drive(&mut c, seed, commits);
    let Client {
        mut cluster,
        t,
        mut counts,
        gave_up,
        submitted,
        ..
    } = c;
    rep.attempted += submitted + gave_up;
    rep.failed += gave_up;
    rep.check("replicate.every_submission_seals", gave_up == 0);
    rep.check(
        "replicate.salvage_clean_and_boot_matches",
        tail == Some((0, false)),
    );

    let root = t.begin(Sp::Verify);
    let mut converged = false;
    let t_quiet = Instant::now();
    for _ in 0..QUIET_TICKS {
        if t.call(Sp::ReplicateQuiet, || cluster.run_quiet(1)) {
            converged = true;
            break;
        }
        if cluster.primary().is_none() {
            counts.unavailable_ticks += 1;
        }
        if t_quiet.elapsed().as_secs_f64() > QUIET_SECONDS {
            break;
        }
    }
    rep.check("replicate.converges", converged);
    let primary = cluster.primary().unwrap_or(0);
    let pdigest = t.call(Sp::ReplicateDigest, || cluster.digest_of(primary));
    let agree = (0..cluster.replica_count() as u32)
        .all(|id| t.call(Sp::ReplicateDigest, || cluster.digest_of(id)) == pdigest);
    rep.check("replicate.replica_digests_equal_primary", agree);
    let genesis = *cluster.genesis();
    let log = cluster.log_of(primary);
    let replayed = t.call(Sp::ReplayReduce, || reduce(&genesis, log));
    let replayed = replayed.map(|sm| t.call(Sp::StatemachineDigest, || sm.digest()));
    t.end(root);
    rep.check(
        "replicate.reduce_matches_primary",
        replayed.as_ref() == Ok(&pdigest),
    );

    counts.commits = log.len();
    counts.promotions = cluster.promotions();
    for id in 0..cluster.replica_count() as u32 {
        let s = cluster.stats_of(id);
        counts.catchups += s.catchups;
        counts.fenced += s.fenced;
        counts.heartbeat_misses += s.heartbeat_misses;
        counts.resends += s.resends;
    }
    let ls = cluster.link_stats();
    counts.sent = ls.sent;
    counts.delivered = ls.delivered;
    counts.dropped = ls.dropped;
    counts.duplicated = ls.duplicated;
    counts.reordered = ls.reordered;
    counts.delayed = ls.delayed;
    counts.partition_drops = ls.partition_drops;
    counts
}

/// Runs the replication tail: fresh clusters, each driven through the mix
/// and checked, then reports the `replicate` layer's metrics.
pub fn tail(cfg: &Config, t: &mut Tracer, rep: &mut Report) {
    let (commits, episodes) = sizes(cfg);
    let mut rng = SplitMix64::new(cfg.seed ^ 0xe21);
    let mut exact = Counts::default();
    for i in 0..episodes {
        // Traced and untraced episodes alternate.
        t.begin_block(cfg.trace && i % 2 == 1);
        let c = episode(rng.next_u64(), commits, t, rep);
        t.end_block();
        exact.add(&c);
    }

    let per_commit = |v: u64| v as f64 / exact.commits.max(1) as f64;
    rep.exact_layer("unavailable_ticks", exact.unavailable_ticks as f64);
    rep.exact_layer("replicate.frames_sent_per_commit", per_commit(exact.sent));
    rep.exact_layer(
        "replicate.frames_delivered_per_commit",
        per_commit(exact.delivered),
    );
    rep.exact_layer("replicate.resends_per_commit", per_commit(exact.resends));
    for (name, v) in [
        ("replicate.retries", exact.retries),
        ("replicate.promotions", exact.promotions),
        ("replicate.catchups", exact.catchups),
        ("replicate.fenced", exact.fenced),
        ("replicate.heartbeat_misses", exact.heartbeat_misses),
        ("replicate.link.dropped", exact.dropped),
        ("replicate.link.duplicated", exact.duplicated),
        ("replicate.link.reordered", exact.reordered),
        ("replicate.link.delayed", exact.delayed),
        ("replicate.link.partition_drops", exact.partition_drops),
    ] {
        rep.exact_layer(name, v as f64);
    }
    if cfg.trace {
        rep.span_ns("replicate.submit", t, Sp::ReplicateSubmit);
        rep.span_ns("replicate.tick", t, Sp::ReplicateTick);
    }
}
