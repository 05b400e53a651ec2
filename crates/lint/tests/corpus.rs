//! Fixture-corpus integration tests: prove each rule fires on real
//! violation shapes, each suppression form works, and the actual
//! workspace lints clean (the linter's own acceptance gate).

use std::path::{Path, PathBuf};

use splicer_lint::{lint_source, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {path:?}: {e}"))
}

/// Lints a fixture as if it lived in a scanned semantic crate.
fn lint_fixture(name: &str) -> Vec<splicer_lint::Finding> {
    lint_source("crates/routing/src/fixture.rs", &fixture(name))
}

fn count(findings: &[splicer_lint::Finding], rule: Rule) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn r1_fires_on_every_iteration_shape() {
    let f = lint_fixture("r1_unordered_iter.rs");
    // keys, values, retain, drain, for-over-map, for-over-local-set,
    // struct-field values — and nothing from the lookup/BTreeMap decoys.
    assert_eq!(count(&f, Rule::UnorderedIter), 7, "{f:#?}");
    assert_eq!(f.len(), 7, "{f:#?}");
}

#[test]
fn r2_fires_on_every_ambient_source() {
    let f = lint_fixture("r2_ambient.rs");
    // Instant::now, SystemTime, std::env, thread_rng, from_entropy —
    // and nothing from the comment/string decoys.
    assert_eq!(count(&f, Rule::AmbientNondet), 5, "{f:#?}");
    assert_eq!(f.len(), 5, "{f:#?}");
}

#[test]
fn r2_wall_clock_site_is_allowlisted() {
    let f = lint_source(splicer_lint::R2_WALL_CLOCK_SITE, &fixture("r2_ambient.rs"));
    // Clocks pass at the allowlisted site; env/rng findings remain.
    assert_eq!(count(&f, Rule::AmbientNondet), 3, "{f:#?}");
    assert!(
        f.iter().all(|x| !x.message.contains("wall-clock")),
        "{f:#?}"
    );
}

#[test]
fn r3_fires_on_unbumped_state_writes() {
    // Only the Graph write fires: the NetworkFunds block is out of scope.
    let f = lint_fixture("r3_epoch.rs");
    assert_eq!(count(&f, Rule::EpochBump), 1, "{f:#?}");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("sprout_no_bump")));
}

#[test]
fn r3_covers_landmark_table_rebuilds() {
    // The landmark table's rebuild path is held to the same epoch
    // discipline as Graph: rewriting the landmark set
    // without keying it to a topology epoch is a finding.
    let f = lint_fixture("r3_landmarks.rs");
    assert_eq!(count(&f, Rule::EpochBump), 1, "{f:#?}");
    assert_eq!(f.len(), 1, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("rebuild_no_key")));
}

#[test]
fn r4_fires_including_in_test_code() {
    let f = lint_fixture("r4_safety.rs");
    assert_eq!(count(&f, Rule::SafetyComment), 2, "{f:#?}");
    assert_eq!(f.len(), 2, "{f:#?}");
}

#[test]
fn rules_r1_to_r3_are_exempt_under_test_paths() {
    for fixture_name in ["r1_unordered_iter.rs", "r2_ambient.rs", "r3_epoch.rs"] {
        let f = lint_source("crates/routing/src/engine/tests.rs", &fixture(fixture_name));
        assert!(f.is_empty(), "{fixture_name}: {f:#?}");
        let f = lint_source("crates/routing/benches/loop.rs", &fixture(fixture_name));
        assert!(f.is_empty(), "{fixture_name}: {f:#?}");
    }
}

#[test]
fn every_suppression_form_silences_its_finding() {
    let f = lint_fixture("suppressed_ok.rs");
    assert!(f.is_empty(), "{f:#?}");
}

#[test]
fn suppression_hygiene_is_enforced() {
    let f = lint_fixture("suppressed_bad.rs");
    // missing reason, unused allow, unknown rule — plus the unsuppressed
    // r1 finding the unknown-rule allow failed to cover.
    assert_eq!(count(&f, Rule::Suppression), 3, "{f:#?}");
    assert_eq!(count(&f, Rule::UnorderedIter), 1, "{f:#?}");
    assert!(f.iter().any(|x| x.message.contains("without a reason")));
    assert!(f.iter().any(|x| x.message.contains("unused suppression")));
}

#[test]
fn workspace_lints_clean() {
    // The gate CI enforces, as a test: zero unsuppressed findings across
    // every scanned crate of the actual workspace.
    let root: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("lint crate lives at <root>/crates/lint")
        .to_path_buf();
    let (findings, files) = splicer_lint::lint_workspace(&root).expect("workspace readable");
    assert!(
        files > 50,
        "expected to scan the real workspace, saw {files} files"
    );
    assert!(
        findings.is_empty(),
        "workspace has unsuppressed findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}
