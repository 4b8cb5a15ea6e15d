//! The claims regression gate: every paper claim, machine-checked.
//!
//! `EXPERIMENTS.md` states the expected shape of each experiment's result;
//! `mks_bench::experiments` encodes those shapes as [`ClaimResult`]s. This
//! suite runs the whole registry once and asserts that every claim's
//! verdict passes — so a regression in any reproduced number (who wins, by
//! what factor, how many gates) fails `cargo test` and the CI `claims`
//! job, instead of waiting for a human to re-read the results.
//!
//! Two claims are **documented honest gaps** (`ReproducedWithGap`): the
//! measurement reproduces the claim's shape but falls short of the paper's
//! magnitude for an explained reason (see `docs/CLAIMS.md`). They pass —
//! but any further slide past their accept band, or a new undocumented
//! gap, fails here.

use std::collections::BTreeSet;
use std::sync::OnceLock;

use mks_bench::claims::{claims_json, ClaimResult, ClaimShape, Tally, Verdict};
use mks_bench::experiments::{all_claims, default_workers, run_all, REGISTRY};
use mks_kernel::{GateTable, KernelConfig};
use mks_trace::json::{self, Value};

/// The suite's claims, computed once and shared across tests.
fn suite() -> &'static [ClaimResult] {
    static CLAIMS: OnceLock<Vec<ClaimResult>> = OnceLock::new();
    CLAIMS.get_or_init(|| all_claims(&run_all(default_workers())))
}

/// The exact set of documented honest gaps. Adding an entry here requires
/// documenting the gap in `docs/CLAIMS.md` and `EXPERIMENTS.md`.
const DOCUMENTED_GAPS: &[&str] = &["E2.protected-shrink", "E3.one-third-cut"];

#[test]
fn every_claim_is_reproduced() {
    let claims = suite();
    assert!(!claims.is_empty());
    let failed: Vec<String> = claims
        .iter()
        .filter(|c| !c.verdict.passed())
        .map(|c| {
            format!(
                "{}: expected {}, measured {:.4} ({})",
                c.id,
                c.expected_shape.describe(),
                c.measured,
                c.measured_desc
            )
        })
        .collect();
    assert!(
        failed.is_empty(),
        "claims no longer hold:\n{}",
        failed.join("\n")
    );
}

#[test]
fn documented_gaps_are_exactly_the_known_two() {
    let with_gap: BTreeSet<&str> = suite()
        .iter()
        .filter(|c| c.verdict == Verdict::ReproducedWithGap)
        .map(|c| c.id.as_str())
        .collect();
    let expected: BTreeSet<&str> = DOCUMENTED_GAPS.iter().copied().collect();
    assert_eq!(
        with_gap, expected,
        "the ReproducedWithGap set drifted — a gap closed (promote it to \
         Reproduced by tightening its shape) or a new one opened (document \
         it in docs/CLAIMS.md or fix the regression)"
    );
}

#[test]
fn gap_claims_carry_their_explanations() {
    for c in suite() {
        let widened = match c.expected_shape {
            ClaimShape::FactorAtLeast { paper, accept } => accept < paper,
            ClaimShape::FractionNear {
                tol, accept_tol, ..
            } => accept_tol > tol,
            _ => false,
        };
        assert_eq!(
            widened,
            c.gap_note.is_some(),
            "{}: a widened accept band and a gap note must come together",
            c.id
        );
        if c.verdict == Verdict::ReproducedWithGap {
            assert!(c.gap_note.is_some(), "{}: undocumented gap", c.id);
        }
    }
}

#[test]
fn suite_covers_every_experiment_with_unique_claim_ids() {
    assert_eq!(REGISTRY.len(), 24, "E1-E21 plus A1, A3, A4");
    let claims = suite();
    let mut ids = BTreeSet::new();
    for c in claims {
        assert!(ids.insert(c.id.as_str()), "duplicate claim id {}", c.id);
        assert!(
            c.id.starts_with(c.experiment) && c.id[c.experiment.len()..].starts_with('.'),
            "{}: id must be <experiment>.<slug>",
            c.id
        );
        assert!(!c.paper_quote.is_empty(), "{}: empty paper quote", c.id);
    }
    for e in REGISTRY {
        assert!(
            claims.iter().any(|c| c.experiment == e.id),
            "experiment {} produced no claims",
            e.id
        );
    }
    let t = Tally::of(claims);
    assert_eq!(t.total(), claims.len());
    assert_eq!(t.failed, 0);
}

#[test]
fn claims_json_is_complete_and_balanced() {
    let claims = suite();
    let json = claims_json(claims, REGISTRY.len());
    assert!(json.contains("\"schema\": \"mks-claims/1\""));
    let doc = json::parse(&json).expect("claims.json is well-formed JSON");
    let int = |v: &Value, key: &str| v.get(key).and_then(Value::as_u64);
    assert_eq!(int(&doc, "experiments"), Some(REGISTRY.len() as u64));
    let summary = doc.get("summary").expect("summary object");
    assert_eq!(int(summary, "claims"), Some(claims.len() as u64));
    assert_eq!(int(summary, "failed"), Some(0));
    let parsed = doc
        .get("claims")
        .and_then(Value::as_arr)
        .expect("claims array");
    assert_eq!(parsed.len(), claims.len());
    for (c, p) in claims.iter().zip(parsed) {
        assert_eq!(p.get("id").and_then(Value::as_str), Some(c.id.as_str()));
        assert_eq!(
            p.get("measured").and_then(Value::as_f64),
            Some(c.measured),
            "{}: measured must round-trip exactly",
            c.id
        );
        assert_eq!(
            p.get("verdict").and_then(Value::as_str),
            Some(c.verdict.tag())
        );
    }
}

/// The gate censuses are load-bearing constants across EXPERIMENTS.md,
/// README.md and four experiments — pin them independently of the
/// experiment library.
#[test]
fn gate_census_pins() {
    let legacy = GateTable::build(&KernelConfig::legacy());
    assert_eq!(legacy.user_available_entries(), 101);
    assert_eq!(legacy.total_entries(), 109);
    let kernel = GateTable::build(&KernelConfig::kernel());
    assert_eq!(kernel.user_available_entries(), 54);

    let ladder: Vec<usize> = [
        KernelConfig::legacy(),
        KernelConfig::legacy_linker_removed(),
        KernelConfig::legacy_both_removals(),
        KernelConfig::kernel(),
    ]
    .iter()
    .map(|cfg| GateTable::build(cfg).user_available_entries())
    .collect();
    assert_eq!(ladder, vec![101, 91, 72, 54]);
}

/// The pre-flight-recorder ladder (100/90/71/53) is recovered exactly by
/// excluding the `metering_get` gate the recorder added to every
/// configuration — the documented provenance of the census change.
#[test]
fn historical_ladder_is_current_minus_metering_gate() {
    let historical: Vec<usize> = [
        KernelConfig::legacy(),
        KernelConfig::legacy_linker_removed(),
        KernelConfig::legacy_both_removals(),
        KernelConfig::kernel(),
    ]
    .iter()
    .map(|cfg| {
        let t = GateTable::build(cfg);
        let metering = t.count_matching(&["metering_get"]);
        assert_eq!(metering, 1, "{}: metering gate present once", cfg.name());
        t.user_available_entries() - metering
    })
    .collect();
    assert_eq!(historical, vec![100, 90, 71, 53]);
}
