//! Recorded workload drivers: the E15 fault workload and the E16
//! overload ladder, re-expressed as commit streams.
//!
//! A driver *chooses* commits (using outcomes of earlier commits — the
//! directory pool grows only when a create succeeds, the loop stops
//! when the `Crash` site fires) and records the boundary digest after
//! each application. Replay never re-runs the driver: it folds the
//! recorded log, so any hidden input the driver smuggled past the
//! commit stream shows up as a boundary mismatch. `drive_fault_run` is
//! the one fault-run driver: E15's `recovery::run_plan` and E20's
//! [`record_fault_run`] both send its mixed hierarchy/paging/denial/IPC
//! traffic, under an armed fault plan, to their own commit sink. The
//! ladder follows E16 (principals per priority class hammering a small
//! machine under admission control).

use mks_fs::{Acl, AclMode, UserId};
use mks_hw::{FaultPlan, RingBrackets, SegNo, SplitMix64};
use mks_mls::{Compartments, Label, Level};

use crate::pressure::{PressureConfig, Priority};
use crate::world::{admin_user, KProcId};

use super::{Commit, Genesis, KernelStateMachine, Outcome, StateDigest};

/// Operation boundaries every fault run attempts before a natural stop
/// (a `Crash` event in the plan usually stops the run earlier).
const FAULT_RUN_OPS: u64 = 32;

/// Shape of one recorded fault run. The plan's seed also seeds the
/// operation mix.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct WorkloadSpec {
    /// The fault schedule armed over the workload.
    pub plan: FaultPlan,
    /// Arm admission control (mixed priorities) under the plan.
    pub overload: bool,
}

impl WorkloadSpec {
    /// The E15 shape: the mix under `FaultPlan::generate(seed)`.
    pub fn faults(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            plan: FaultPlan::generate(seed),
            overload: false,
        }
    }

    /// The E16-crossover shape: the same mixed workload under an
    /// exhaustion-heavy plan with admission control armed.
    pub fn overload(seed: u64) -> WorkloadSpec {
        WorkloadSpec {
            plan: FaultPlan::generate_overload(seed),
            overload: true,
        }
    }
}

/// A live run and the evidence it leaves: the machine (whose world owns
/// the sealed log), the digest at every commit boundary, and the
/// workload-level facts the experiment asserts over.
pub struct RecordedRun {
    /// The live machine, log included.
    pub sm: KernelStateMachine,
    /// `boundaries[0]` = genesis; `boundaries[k]` = after commit `k-1`.
    pub boundaries: Vec<StateDigest>,
    /// Whether the `Crash` site stopped the workload mid-stream.
    pub crashed: bool,
    /// Workload operations executed before the stop.
    pub ops_run: u64,
    /// Problems the salvage commit reported.
    pub salvage_problems: u64,
    /// Whether the boot-check commit saw divergence (must be 0).
    pub boot_divergence: bool,
}

/// Applies one commit and records the boundary digest.
struct Recorder {
    sm: KernelStateMachine,
    boundaries: Vec<StateDigest>,
}

impl Recorder {
    fn new(genesis: &Genesis) -> Recorder {
        let sm = genesis.build();
        let boundaries = vec![sm.digest()];
        Recorder { sm, boundaries }
    }

    fn commit(&mut self, c: Commit) -> Outcome {
        let out = self.sm.apply(&c);
        self.boundaries.push(self.sm.digest());
        out
    }
}

/// Where a driver sends its commits: a recorder, a bare state machine,
/// or a replicated cluster.
type Submit<'a> = &'a mut dyn FnMut(Commit) -> Outcome;

/// Creates a ring-4 process for `user` at the bottom label.
fn spawn(submit: Submit, user: UserId) -> KProcId {
    let c = Commit::CreateProcess {
        user,
        label: Label::BOTTOM,
        ring: 4,
    };
    match submit(c) {
        Outcome::Pid(p) => p,
        other => panic!("process creation returned {other:?}"),
    }
}

/// The recovery tail every driver ends with — salvage, boot check, and a
/// metering read that exports the log digest. Returns the salvager's
/// findings and whether the boot check diverged.
pub(crate) fn recovery_tail(admin: KProcId, submit: Submit) -> (u64, bool) {
    let salvage_problems = match submit(Commit::Salvage) {
        Outcome::Value(n) => n,
        _ => 0,
    };
    let boot_divergence = submit(Commit::BootCheck) != Outcome::Value(0);
    submit(Commit::MeteringGet { pid: admin });
    (salvage_problems, boot_divergence)
}

fn stranger_user() -> UserId {
    UserId::new("Mallory", "Guest", "a")
}

/// The one fault-run driver: principals and probe, priming ticks,
/// (optionally) admission arming with the admin above the stranger in
/// the shed order, then the seeded six-way operation mix under `plan`
/// with the `Crash` site consulted at every boundary — so a plan
/// chooses exactly which operation the kill interrupts — then settling
/// ticks and disarm. Returns the admin pid, whether the run crashed,
/// and the operations executed.
pub(crate) fn drive_fault_run(
    plan: &FaultPlan,
    overload: bool,
    submit: Submit,
) -> (KProcId, bool, u64) {
    let mut mix = MixedWorkload::setup(plan.seed, submit);
    if overload {
        submit(Commit::AdmissionEnable {
            config: PressureConfig::default(),
        });
        submit(Commit::SetPriority {
            pid: mix.admin,
            priority: Priority::Interactive,
        });
        submit(Commit::SetPriority {
            pid: mix.stranger,
            priority: Priority::Background,
        });
    }
    submit(Commit::ArmPlan { plan: plan.clone() });

    let mut crashed = false;
    let mut ops_run = 0u64;
    for i in 0..FAULT_RUN_OPS {
        if submit(Commit::CrashPoll) == Outcome::Fired(true) {
            crashed = true;
            break;
        }
        ops_run += 1;
        mix.step(i, submit);
    }
    submit(Commit::Tick { times: 4 });
    submit(Commit::Disarm);
    (mix.admin, crashed, ops_run)
}

/// Records the fault run under `spec` and the recovery tail — salvage,
/// boot check, and a metering read that exports the log digest.
pub fn record_fault_run(genesis: &Genesis, spec: &WorkloadSpec) -> RecordedRun {
    let mut rec = Recorder::new(genesis);
    let submit = &mut |c| rec.commit(c);
    let (admin, crashed, ops_run) = drive_fault_run(&spec.plan, spec.overload, submit);
    let (salvage_problems, boot_divergence) = recovery_tail(admin, submit);

    RecordedRun {
        sm: rec.sm,
        boundaries: rec.boundaries,
        crashed,
        ops_run,
        salvage_problems,
        boot_divergence,
    }
}

/// The E15-shaped mixed workload as a commit source, shared by
/// [`drive_fault_run`] and the replicated cluster driver: each call
/// hands its commits to `submit` and reads back the outcome.
pub(crate) struct MixedWorkload {
    pub(crate) admin: KProcId,
    pub(crate) stranger: KProcId,
    sroot: SegNo,
    probe: SegNo,
    dirs: Vec<SegNo>,
    rng: SplitMix64,
}

impl MixedWorkload {
    /// Creates the administrator and the stranger with their root
    /// bindings and the probe segment, then primes the clock. The
    /// administrator does the work; the stranger provides denied
    /// references, since the probe is admin-only.
    pub(crate) fn setup(seed: u64, submit: Submit) -> MixedWorkload {
        let admin = spawn(submit, admin_user());
        let root = submit(Commit::BindRoot { pid: admin })
            .seg()
            .expect("root binds");
        let stranger = spawn(submit, stranger_user());
        let sroot = submit(Commit::BindRoot { pid: stranger })
            .seg()
            .expect("root binds");
        let probe = submit(Commit::CreateSegment {
            pid: admin,
            dir: root,
            name: "probe".into(),
            acl: Acl::of("Admin.SysAdmin.a", AclMode::RW),
            brackets: RingBrackets::new(4, 4, 4),
            label: Label::BOTTOM,
        })
        .seg()
        .expect("probe segment creates on a fresh system");
        submit(Commit::Tick { times: 4 });
        MixedWorkload {
            admin,
            stranger,
            sroot,
            probe,
            dirs: vec![root],
            rng: SplitMix64::new(seed ^ 0xd1f7_ac75_0bad_c0de),
        }
    }

    /// Operation `i` of the seeded six-way mix: directory and segment
    /// creation, probe write+read, the stranger's denied initiation,
    /// daemon wakeup, or idle ticks.
    pub(crate) fn step(&mut self, i: u64, submit: Submit) {
        let (admin, rng) = (self.admin, &mut self.rng);
        let secret = Label::new(Level::SECRET, Compartments::of(&[1]));
        match rng.below(6) {
            0 => {
                let parent = self.dirs[rng.below(self.dirs.len() as u64) as usize];
                let label = if rng.below(2) == 0 {
                    Label::BOTTOM
                } else {
                    secret
                };
                let made = submit(Commit::CreateDirectory {
                    pid: admin,
                    dir: parent,
                    name: format!("d{i}"),
                    label,
                });
                self.dirs.extend(made.seg());
            }
            1 => {
                let parent = self.dirs[rng.below(self.dirs.len() as u64) as usize];
                submit(Commit::CreateSegment {
                    pid: admin,
                    dir: parent,
                    name: format!("s{i}"),
                    acl: Acl::of("*.*.*", AclMode::RW),
                    brackets: RingBrackets::new(4, 4, 4),
                    label: secret,
                });
            }
            2 => {
                // Paging churn through the monitor: the SlowDisk/FailDisk
                // sites fire inside the transfers this provokes.
                let offset = rng.below(64);
                submit(Commit::Write {
                    pid: admin,
                    seg: self.probe,
                    offset,
                    value: i + 1,
                });
                submit(Commit::Read {
                    pid: admin,
                    seg: self.probe,
                    offset,
                });
            }
            3 => {
                // A denied reference: audit-log traffic through the
                // monitor's timestamp (SkewClock) site.
                submit(Commit::Initiate {
                    pid: self.stranger,
                    dir: self.sroot,
                    name: "probe".into(),
                });
            }
            4 => {
                // The genesis daemon gives the DropWakeup site something
                // real to starve.
                submit(Commit::Wakeup { daemon: 0 });
                submit(Commit::Tick { times: 1 });
            }
            _ => {
                submit(Commit::Tick { times: 2 });
            }
        }
    }
}

/// Rungs of the recorded overload ladder: principals per rung, all
/// hammering the same small machine under admission control.
pub const LADDER_RUNGS: [u32; 4] = [2, 4, 8, 16];

/// Operations each ladder principal issues per rung.
pub const LADDER_OPS: u64 = 6;

/// Records the E16-shaped overload ladder as commits: admission armed
/// up front, then for each rung a cohort of principals (priority
/// classes assigned round-robin, lowest first) creating and hammering
/// segments while pressure climbs — shed decisions and their audited
/// `Overload` refusals land in the log like any other deterministic
/// verdict. Ends with the same recovery tail as the fault runs.
pub fn record_overload_ladder(genesis: &Genesis, seed: u64) -> RecordedRun {
    let mut rec = Recorder::new(genesis);
    let admin = spawn(&mut |c| rec.commit(c), admin_user());
    let root = rec.commit(Commit::BindRoot { pid: admin }).seg();
    let root = root.expect("root binds");
    rec.commit(Commit::Tick { times: 4 });
    // Tight soft caps make the small machine's exhaustion visible to the
    // gauges early (the E16 recipe): the probe population crosses the
    // AST cap and the audit log crosses its headroom cap as the rungs
    // climb, so the later cohorts run into the shed thresholds.
    rec.commit(Commit::AdmissionEnable {
        config: PressureConfig {
            ast_soft_cap: 24,
            audit_cap: 512,
            ..PressureConfig::default()
        },
    });
    rec.commit(Commit::SetPriority {
        pid: admin,
        priority: Priority::System,
    });
    // The ladder arms the exhaustion noise of the overload schedule but
    // strips its `Crash` events: every rung must complete so the
    // differential covers the full shed progression. Crash-mid-shed is
    // the `WorkloadSpec::overload` fault runs' job.
    let plan = FaultPlan::from_events(
        FaultPlan::generate_overload(seed)
            .events
            .into_iter()
            .filter(|e| e.kind != mks_hw::InjectKind::Crash)
            .collect(),
    );
    rec.commit(Commit::ArmPlan { plan });

    let mut rng = SplitMix64::new(seed ^ 0x0e16_1add_e50f_f00d);
    let mut crashed = false;
    let mut ops_run = 0u64;
    'ladder: for (r, rung) in LADDER_RUNGS.iter().enumerate() {
        // The cohort: per-principal probes created under ROOT by the
        // System-class administrator (creation is never shed),
        // world-writable so the principals' own paging traffic is what
        // admission judges. Each principal acquires its probe through
        // its *own* root binding — segment numbers are per-process.
        let mut cohort = Vec::new();
        for p in 0..*rung {
            let user = UserId::new(&format!("Load{p}"), &format!("Rung{r}"), "a");
            let pid = spawn(&mut |c| rec.commit(c), user);
            let Some(own_root) = rec.commit(Commit::BindRoot { pid }).seg() else {
                continue;
            };
            rec.commit(Commit::SetPriority {
                pid,
                priority: Priority::ALL[(p as usize) % Priority::ALL.len()],
            });
            let name = format!("p{r}_{p}");
            rec.commit(Commit::CreateSegment {
                pid: admin,
                dir: root,
                name: name.clone(),
                acl: Acl::of("*.*.*", AclMode::RW),
                brackets: RingBrackets::new(4, 4, 4),
                label: Label::BOTTOM,
            });
            let own = rec.commit(Commit::Initiate {
                pid,
                dir: own_root,
                name,
            });
            if let Some(probe) = own.seg() {
                cohort.push((pid, probe));
            }
        }
        for _ in 0..LADDER_OPS {
            for (pid, probe) in &cohort {
                if rec.commit(Commit::CrashPoll) == Outcome::Fired(true) {
                    crashed = true;
                    break 'ladder;
                }
                ops_run += 1;
                // Page-spanning traffic: frame and bulk saturation climb
                // with the rung, pushing the later cohorts into the shed
                // thresholds exactly as E16's ladder does.
                let offset = rng.below(4) * mks_hw::PAGE_WORDS as u64 + rng.below(64);
                rec.commit(Commit::Write {
                    pid: *pid,
                    seg: *probe,
                    offset,
                    value: ops_run,
                });
                rec.commit(Commit::Read {
                    pid: *pid,
                    seg: *probe,
                    offset,
                });
            }
            rec.commit(Commit::Tick { times: 1 });
        }
    }
    rec.commit(Commit::Tick { times: 4 });
    rec.commit(Commit::Disarm);
    let (salvage_problems, boot_divergence) = recovery_tail(admin, &mut |c| rec.commit(c));

    RecordedRun {
        sm: rec.sm,
        boundaries: rec.boundaries,
        crashed,
        ops_run,
        salvage_problems,
        boot_divergence,
    }
}
