//! Property tests on the E20 commit layer: the sealed log is
//! append-only and densely sequenced no matter what is appended,
//! `reduce` is a pure fold (replaying the same log twice is
//! byte-identical, and identical to the live run), and
//! snapshot/restore round-trips at *arbitrary* prefixes — not just the
//! midpoints the integration gate picks.

use mks_kernel::statemachine::workload::{record_fault_run, WorkloadSpec};
use mks_kernel::statemachine::{
    reduce, replay_differential, restore, snapshot_at, Commit, CommitLog, Genesis,
};
use mks_kernel::AuditEvent;
use proptest::prelude::*;

/// Cheap data-only commits for log-level properties: sealing is about
/// the chain, not the kernel, so scheduler and audit noise suffice.
fn arb_commit() -> impl Strategy<Value = Commit> {
    prop_oneof![
        (0u32..4).prop_map(|times| Commit::Tick { times }),
        Just(Commit::CrashPoll),
        Just(Commit::Disarm),
        Just(Commit::Salvage),
        (0u32..3).prop_map(|daemon| Commit::Wakeup { daemon }),
        any::<bool>().prop_map(|success| Commit::Audit {
            who: None,
            event: AuditEvent::Login { success },
        }),
    ]
}

fn recorded(seed: u64) -> (Genesis, mks_kernel::statemachine::workload::RecordedRun) {
    let genesis = Genesis::kernel_small();
    (
        genesis,
        record_fault_run(&genesis, &WorkloadSpec::faults(seed)),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Appending never rewrites history: every earlier seal is
    /// byte-identical after any further appends, sequences stay dense
    /// from 0, and the grown log still verifies.
    #[test]
    fn commits_are_append_only_and_densely_sequenced(
        base in any::<u64>(),
        commits in prop::collection::vec(arb_commit(), 0..24),
        more in prop::collection::vec(arb_commit(), 1..8),
    ) {
        let mut log = CommitLog::new();
        log.seed(base);
        for c in &commits {
            let seq = log.append(c.clone());
            prop_assert_eq!(seq + 1, log.len());
        }
        let frozen = log.entries().to_vec();
        let head_before = log.head();
        for c in &more {
            log.append(c.clone());
        }
        prop_assert_eq!(&log.entries()[..frozen.len()], frozen.as_slice());
        prop_assert_eq!(log.prefix(frozen.len() as u64).head(), head_before);
        for (i, s) in log.entries().iter().enumerate() {
            prop_assert_eq!(s.seq, i as u64);
        }
        prop_assert!(log.verify().is_ok());
        prop_assert!(log.verify_head(log.len(), log.head()).is_ok());
        prop_assert_eq!(log.head(), log.entries().last().expect("nonempty").chain);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `reduce` is a pure fold over the log: replaying the same log
    /// twice produces byte-identical machines, and both equal the live
    /// machine at every commit boundary.
    #[test]
    fn reduce_is_a_pure_fold(seed in any::<u64>()) {
        let (genesis, run) = recorded(seed);
        let log = &run.sm.world().commits;
        let once = reduce(&genesis, log).expect("honest log reduces");
        let twice = reduce(&genesis, log).expect("and reduces again");
        prop_assert_eq!(once.digest(), twice.digest());
        prop_assert_eq!(once.digest(), run.sm.digest());
        prop_assert_eq!(once.world().commits.head(), log.head());
        let mismatches = replay_differential(&genesis, log, &run.boundaries)
            .expect("boundary list covers the log");
        prop_assert_eq!(mismatches, Vec::new());
    }

    /// Snapshot/restore round-trips at an arbitrary prefix: restoring
    /// reproduces the digest the snapshot claims, and re-snapshotting
    /// the restored machine is the identical snapshot.
    #[test]
    fn snapshot_restore_round_trips_at_arbitrary_prefixes(
        seed in any::<u64>(),
        cut in any::<u64>(),
    ) {
        let (genesis, run) = recorded(seed);
        let log = &run.sm.world().commits;
        let upto = cut % (log.len() + 1);
        let snap = snapshot_at(&genesis, log, upto).expect("in-range prefix snapshots");
        prop_assert_eq!(snap.upto, upto);
        prop_assert_eq!(&snap.digest, &run.boundaries[upto as usize]);
        let sm = restore(&snap).expect("snapshot restores");
        prop_assert_eq!(sm.digest(), snap.digest);
        prop_assert_eq!(mks_kernel::statemachine::replay::resnapshot(&sm), snap);
    }
}
