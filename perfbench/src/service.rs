//! `service`: the E18 "Multics as a service" traffic, driven op by op
//! from this file so that every `Monitor` call is timed.
//!
//! One closed-loop client issues the 62/12/15/6/2/1 % read / write /
//! gate / initiation-churn / listing / status mix (plus rare audited
//! `hphcs_` probes) over at most 32 live sessions of a 10^6-principal
//! population, with one login per 2048 ops. Nothing is sealed or
//! replicated: this workload is mediation-bound.

use std::collections::HashSet;
use std::time::Instant;

use mks_bench::scale::{
    acl_differential, build_world, lookup_differential, PopulationModel, ScaleWorld, Session,
    MAX_SESSIONS,
};
use mks_hw::{SplitMix64, Word};
use mks_kernel::subsystem::login;
use mks_kernel::{AuditEvent, Monitor};
use mks_mls::Label;

use crate::report::{median, peak_rss_mb, Config, OpClock, Report, SimCounters};
use crate::span::{Sp, Tracer};

/// Ops between logins.
const CHURN_EVERY: u64 = 2_048;
/// Ops per block (blocks alternate traced/untraced in a traced run): one
/// login per block, so every block carries the same churn.
const BLOCK: u64 = CHURN_EVERY;

struct Sizes {
    population: u64,
    /// `build_world` calls timed for `setup_s`, back to back before the
    /// run (spreading them over the run, each beside the live world,
    /// slowed the measured ops by about 10 %).
    setups: usize,
    /// Ops the exact counts are taken over (always run in full).
    prefix: u64,
}

fn sizes(cfg: &Config) -> Sizes {
    if cfg.mini {
        Sizes {
            population: 2_000,
            setups: 2,
            prefix: 32 * BLOCK,
        }
    } else {
        Sizes {
            population: 1_000_000,
            setups: 7,
            prefix: 512 * BLOCK,
        }
    }
}

/// The client: its sessions and what it has seen.
struct Client {
    sw: ScaleWorld,
    sessions: Vec<Session>,
    enrolled: HashSet<u64>,
    rng: SplitMix64,
    /// Non-probe ops that failed (each is an unexpected failure).
    unexpected: u64,
    probes: u64,
    denials: u64,
}

impl Client {
    /// Logs principal `i` in (enrolling it on first sight) and binds its
    /// project directory, roster and the registry.
    fn open_session(&mut self, i: u64, t: &mut Tracer) {
        let model = &self.sw.model;
        let user = model.principal(i);
        let password = model.password(i);
        let world = &mut self.sw.sys.world;
        if self.enrolled.insert(i) {
            let clearance = model.clearance(i);
            t.call(Sp::AuthRegister, || {
                world.auth.register(&user, &password, clearance)
            });
        }
        let Ok(out) = t.call(Sp::AuthLogin, || {
            login(world, &user, &password, Label::BOTTOM, 4)
        }) else {
            self.unexpected += 1;
            return;
        };
        let pid = out.pid;
        let project = format!("P{}", model.project_of(i));
        let root = t.call(Sp::WorldBindRoot, || world.bind_root(pid));
        let udd = t.call(Sp::MonitorInitiateDir, || {
            Monitor::initiate_dir(world, pid, root, "udd")
        });
        let proj = t.call(Sp::MonitorInitiateDir, || {
            Monitor::initiate_dir(world, pid, udd, &project)
        });
        let roster = t.call(Sp::MonitorInitiate, || {
            Monitor::initiate(world, pid, proj, "roster")
        });
        let registry = t.call(Sp::MonitorInitiate, || {
            Monitor::initiate(world, pid, udd, "registry")
        });
        match (roster, registry) {
            (Ok(roster), Ok(registry)) => self.sessions.push(Session {
                idx: i,
                pid,
                proj,
                roster,
                registry,
            }),
            _ => {
                self.unexpected += 1;
                t.call(Sp::WorldDestroyProcess, || world.destroy_process(pid));
            }
        }
    }

    /// Logs the oldest session out: one batched audit emission, then
    /// the process record is destroyed.
    fn close_oldest(&mut self, t: &mut Tracer) {
        let s = self.sessions.remove(0);
        let user = self.sw.model.principal(s.idx);
        let world = &mut self.sw.sys.world;
        let batch = vec![
            (
                Some(user.clone()),
                AuditEvent::Lifecycle {
                    what: format!("logout U{}", s.idx),
                },
            ),
            (
                Some(user),
                AuditEvent::Lifecycle {
                    what: "process destroyed".into(),
                },
            ),
        ];
        t.call(Sp::WorldAuditBatch, || world.audit_batch(batch));
        t.call(Sp::WorldDestroyProcess, || world.destroy_process(s.pid));
    }

    /// One client op of the mix; `n` is its position in the stream.
    fn op(&mut self, n: u64, t: &mut Tracer) {
        if self.sessions.is_empty() || n.is_multiple_of(CHURN_EVERY) {
            if self.sessions.len() >= MAX_SESSIONS {
                self.close_oldest(t);
            }
            let i = self.rng.below(self.sw.model.population);
            self.open_session(i, t);
            return;
        }
        let s = self.rng.below(self.sessions.len() as u64) as usize;
        let Session {
            pid,
            proj,
            roster,
            registry,
            ..
        } = self.sessions[s];
        let offset = self.rng.below(64) as usize;
        let world = &mut self.sw.sys.world;
        let ok = match self.rng.below(100) {
            r @ 0..=61 => {
                let seg = if r % 2 == 0 { registry } else { roster };
                t.call(Sp::MonitorRead, || Monitor::read(world, pid, seg, offset))
                    .is_ok()
            }
            62..=73 => t
                .call(Sp::MonitorWrite, || {
                    Monitor::write(world, pid, roster, offset, Word::new(n))
                })
                .is_ok(),
            74..=88 => t
                .call(Sp::MonitorCallGate, || {
                    Monitor::call_gate(world, pid, "hcs_", "metering_get")
                })
                .is_ok(),
            89..=94 => {
                let dropped = t
                    .call(Sp::MonitorTerminate, || {
                        Monitor::terminate(world, pid, roster)
                    })
                    .is_ok();
                match t.call(Sp::MonitorInitiate, || {
                    Monitor::initiate(world, pid, proj, "roster")
                }) {
                    Ok(seg) => {
                        self.sessions[s].roster = seg;
                        dropped
                    }
                    Err(_) => false,
                }
            }
            95..=96 => t
                .call(Sp::MonitorListDir, || Monitor::list_dir(world, pid, proj))
                .is_ok(),
            97 => t
                .call(Sp::MonitorStatus, || {
                    Monitor::status(world, pid, proj, "roster")
                })
                .is_ok(),
            _ => {
                if self.rng.below(64) == 0 {
                    // The designed probe: a user process at a privileged
                    // gate must be refused (and audited).
                    self.probes += 1;
                    let granted = t
                        .call(Sp::MonitorCallGate, || {
                            Monitor::call_gate(world, pid, "hphcs_", "shutdown")
                        })
                        .is_ok();
                    if !granted {
                        self.denials += 1;
                    }
                    return;
                }
                t.call(Sp::MonitorRead, || {
                    Monitor::read(world, pid, registry, offset)
                })
                .is_ok()
            }
        };
        if !ok {
            self.unexpected += 1;
        }
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, t: &mut Tracer) -> Report {
    let mut rep = Report::default();
    let sz = sizes(cfg);
    let model = PopulationModel::new(sz.population, cfg.seed);

    let mut setup_s = Vec::new();
    let mut sw = None;
    for _ in 0..sz.setups {
        drop(sw.take());
        let t0 = Instant::now();
        sw = Some(build_world(&model));
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let sw = sw.expect("at least one setup");
    let mut c = Client {
        sw,
        sessions: Vec::new(),
        enrolled: HashSet::new(),
        rng: SplitMix64::new(0xe18 ^ cfg.seed),
        unexpected: 0,
        probes: 0,
        denials: 0,
    };

    let mut clock = OpClock::default();
    let base = SimCounters::read(&c.sw.sys.world, t);
    let mut exact = None;
    let mut peak_mb = 0.0;
    let mut n = 0u64;
    let mut block = 0u64;
    let start = Instant::now();
    while n < sz.prefix || start.elapsed().as_secs_f64() < cfg.seconds {
        let traced = cfg.trace && block % 2 == 1;
        t.begin_block(traced);
        let t_block = Instant::now();
        for _ in 0..BLOCK {
            t.set_op(n);
            let t0 = (!traced).then(Instant::now);
            let root = t.begin(Sp::Op);
            c.op(n, t);
            t.end(root);
            clock.op(t0);
            n += 1;
        }
        clock.block(traced, BLOCK, t_block.elapsed());
        t.end_block();
        block += 1;
        if n == sz.prefix {
            let now = SimCounters::read(&c.sw.sys.world, t);
            exact = Some(now.since(&base));
            peak_mb = peak_rss_mb();
        }
    }
    rep.attempted = n;
    rep.failed = c.unexpected;

    rep.e2e("setup_s", median(&setup_s));
    clock.report(&mut rep);
    let exact = exact.expect("the prefix always runs");
    exact.report(sz.prefix, &mut rep);
    rep.e2e("peak_rss_mb", peak_mb);

    if cfg.trace {
        clock.report_trace(t, &mut rep);
        for (name, sp) in [
            ("monitor.read", Sp::MonitorRead),
            ("monitor.write", Sp::MonitorWrite),
            ("monitor.call_gate", Sp::MonitorCallGate),
            ("monitor.initiate", Sp::MonitorInitiate),
            ("monitor.terminate", Sp::MonitorTerminate),
            ("monitor.list_dir", Sp::MonitorListDir),
            ("monitor.status", Sp::MonitorStatus),
            ("auth.login", Sp::AuthLogin),
            ("world.destroy_process", Sp::WorldDestroyProcess),
            ("world.audit_batch", Sp::WorldAuditBatch),
        ] {
            rep.span_ns(name, t, sp);
        }
    }

    rep.check("service.non_probe_ops_succeed", c.unexpected == 0);
    rep.check("service.denials_equal_probes", c.denials == c.probes);
    rep.check("service.sessions_bounded", c.sessions.len() <= MAX_SESSIONS);
    let (acl_mismatches, _, _, _) = acl_differential(&c.sw, 1_000);
    rep.check("service.acl_differential_clean", acl_mismatches == 0);
    rep.check(
        "service.lookup_differential_clean",
        lookup_differential(&c.sw, 200) == 0,
    );
    rep
}
