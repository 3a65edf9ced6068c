//! Fixture battery: every rule must fire on its known-bad snippet,
//! stay silent when a justified allow covers the line, and report
//! hygiene problems on bad directives.

use proxima_lint::rules::{LintContext, RULES, SUPPRESSION_HYGIENE};
use proxima_lint::{lint_source, Finding};

fn rules_fired(findings: &[Finding]) -> Vec<&str> {
    let mut rules: Vec<&str> = findings.iter().map(|f| f.rule).collect();
    rules.sort_unstable();
    rules.dedup();
    rules
}

#[test]
fn wall_clock_fixture_fires() {
    let findings = lint_source(
        "crates/fake/src/clock.rs",
        include_str!("fixtures/bad_wall_clock.rs"),
        &LintContext::default(),
    );
    assert!(!findings.is_empty());
    assert_eq!(rules_fired(&findings), ["no-wall-clock"]);
}

#[test]
fn unordered_iter_fixture_fires() {
    let findings = lint_source(
        "crates/fake/src/tally.rs",
        include_str!("fixtures/bad_unordered_iter.rs"),
        &LintContext::default(),
    );
    assert_eq!(rules_fired(&findings), ["no-unordered-iter"]);
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert!(findings[0].message.contains("totals"));
}

#[test]
fn lib_panic_fixture_fires() {
    let findings = lint_source(
        "crates/fake/src/panics.rs",
        include_str!("fixtures/bad_lib_panic.rs"),
        &LintContext::default(),
    );
    assert_eq!(rules_fired(&findings), ["no-lib-panic"]);
    assert_eq!(findings.len(), 2, "unwrap and panic!: {findings:?}");
}

#[test]
fn float_eq_fixture_fires() {
    let findings = lint_source(
        "crates/fake/src/float.rs",
        include_str!("fixtures/bad_float_eq.rs"),
        &LintContext::default(),
    );
    assert_eq!(rules_fired(&findings), ["no-float-eq"]);
    assert_eq!(findings.len(), 2, "{findings:?}");
}

#[test]
fn codec_fixture_fires() {
    let findings = lint_source(
        "crates/fake/src/persist.rs",
        include_str!("fixtures/bad_persist.rs"),
        &LintContext::default(),
    );
    assert_eq!(rules_fired(&findings), ["codec-discipline"]);
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("no matching `impl Decode`")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.message.contains("fixture-regen")),
        "{findings:?}"
    );
}

#[test]
fn codec_rules_only_apply_to_persist_files() {
    // The same text under a different file name is out of codec scope.
    let findings = lint_source(
        "crates/fake/src/other.rs",
        include_str!("fixtures/bad_persist.rs"),
        &LintContext::default(),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn missing_coverage_list_is_reported_when_enforced() {
    let ctx = LintContext {
        enforce_coverage: true,
        ..LintContext::default()
    };
    let findings = lint_source(
        "crates/fake/src/persist.rs",
        include_str!("fixtures/bad_persist.rs"),
        &ctx,
    );
    assert!(
        findings
            .iter()
            .any(|f| f.message.contains("CODEC_COVERAGE")),
        "{findings:?}"
    );
    // And with the type covered, that finding goes away.
    let ctx = LintContext {
        enforce_coverage: true,
        codec_coverage: Some(vec!["Half".to_string()]),
        ..LintContext::default()
    };
    let findings = lint_source(
        "crates/fake/src/persist.rs",
        include_str!("fixtures/bad_persist.rs"),
        &ctx,
    );
    assert!(
        !findings
            .iter()
            .any(|f| f.message.contains("CODEC_COVERAGE")),
        "{findings:?}"
    );
}

#[test]
fn stale_coverage_entry_is_reported_when_enforced() {
    // `Half` is encoded; `Gone` names a codec no persist.rs has any more.
    let ctx = LintContext {
        enforce_coverage: true,
        codec_coverage: Some(vec!["Gone".to_string(), "Half".to_string()]),
        ..LintContext::default()
    };
    let findings = lint_source(
        "crates/fake/src/persist.rs",
        include_str!("fixtures/bad_persist.rs"),
        &ctx,
    );
    let stale: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.message.contains("stale"))
        .collect();
    assert_eq!(stale.len(), 1, "{findings:?}");
    assert!(stale[0].message.contains("`Gone`"), "{stale:?}");
    assert_eq!(stale[0].path, "tests/checkpoint.rs");
    // With no persist.rs in the run, no entry is judged stale.
    let findings = lint_source(
        "crates/fake/src/other.rs",
        include_str!("fixtures/bad_persist.rs"),
        &ctx,
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn exit_fixture_fires_in_lib_but_not_bin() {
    let findings = lint_source(
        "crates/fake/src/quit.rs",
        include_str!("fixtures/bad_exit.rs"),
        &LintContext::default(),
    );
    assert_eq!(rules_fired(&findings), ["no-exit-in-lib"]);
    // The same code in a binary is the binary's prerogative.
    let findings = lint_source(
        "crates/fake/src/bin/quit.rs",
        include_str!("fixtures/bad_exit.rs"),
        &LintContext::default(),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn ungated_crate_root_fires_deny_unsafe() {
    let ctx = LintContext {
        unsafe_gated_crates: vec!["crates/fake".to_string()],
        ..LintContext::default()
    };
    let findings = lint_source(
        "crates/fake/src/lib.rs",
        include_str!("fixtures/bad_unsafe_lib.rs"),
        &ctx,
    );
    assert_eq!(rules_fired(&findings), ["deny-unsafe"]);
    // Adding the attribute is the fix — no suppression story for a
    // structural rule.
    let gated = format!(
        "#![forbid(unsafe_code)]\n{}",
        include_str!("fixtures/bad_unsafe_lib.rs")
    );
    let findings = lint_source("crates/fake/src/lib.rs", &gated, &ctx);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn thread_spawn_fixture_fires_outside_the_sanctioned_pools() {
    let findings = lint_source(
        "crates/fake/src/threads.rs",
        include_str!("fixtures/bad_thread_spawn.rs"),
        &LintContext::default(),
    );
    assert_eq!(rules_fired(&findings), ["no-thread-spawn-outside-sharding"]);
    assert_eq!(findings.len(), 2, "scope and spawn: {findings:?}");
    // The same code in the sanctioned pool file is that pool's whole job.
    let findings = lint_source(
        "crates/core/src/campaign.rs",
        include_str!("fixtures/bad_thread_spawn.rs"),
        &LintContext::default(),
    );
    assert!(findings.is_empty(), "campaign pool: {findings:?}");
    // The serve shards are locks, not threads: no longer sanctioned.
    let findings = lint_source(
        "crates/serve/src/shard.rs",
        include_str!("fixtures/bad_thread_spawn.rs"),
        &LintContext::default(),
    );
    assert_eq!(findings.len(), 2, "serve shard: {findings:?}");
}

#[test]
fn justified_allows_silence_every_rule() {
    let findings = lint_source(
        "crates/fake/src/allowed.rs",
        include_str!("fixtures/suppressed_ok.rs"),
        &LintContext::default(),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn justified_allows_silence_codec_rules() {
    let findings = lint_source(
        "crates/fake/src/persist.rs",
        include_str!("fixtures/suppressed_persist.rs"),
        &LintContext::default(),
    );
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn malformed_directives_do_not_suppress_and_are_reported() {
    let findings = lint_source(
        "crates/fake/src/hygiene.rs",
        include_str!("fixtures/hygiene_malformed.rs"),
        &LintContext::default(),
    );
    let hygiene = findings
        .iter()
        .filter(|f| f.rule == SUPPRESSION_HYGIENE)
        .count();
    assert_eq!(hygiene, 2, "both malformed directives: {findings:?}");
    // The unwraps they failed to cover still fire.
    assert_eq!(
        findings.iter().filter(|f| f.rule == "no-lib-panic").count(),
        2,
        "{findings:?}"
    );
}

#[test]
fn unknown_rule_is_reported_and_does_not_suppress() {
    let findings = lint_source(
        "crates/fake/src/hygiene.rs",
        include_str!("fixtures/hygiene_unknown_rule.rs"),
        &LintContext::default(),
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == SUPPRESSION_HYGIENE && f.message.contains("no-such-rule")),
        "{findings:?}"
    );
    assert!(
        findings.iter().any(|f| f.rule == "no-lib-panic"),
        "{findings:?}"
    );
}

#[test]
fn thin_justification_is_reported() {
    let findings = lint_source(
        "crates/fake/src/hygiene.rs",
        include_str!("fixtures/hygiene_thin_justification.rs"),
        &LintContext::default(),
    );
    assert!(
        findings
            .iter()
            .any(|f| f.rule == SUPPRESSION_HYGIENE && f.message.contains("too thin")),
        "{findings:?}"
    );
}

#[test]
fn stale_allow_is_reported() {
    let findings = lint_source(
        "crates/fake/src/hygiene.rs",
        include_str!("fixtures/hygiene_stale.rs"),
        &LintContext::default(),
    );
    assert_eq!(rules_fired(&findings), [SUPPRESSION_HYGIENE]);
    assert!(findings[0].message.contains("stale"), "{findings:?}");
}

#[test]
fn test_code_is_exempt_from_code_rules() {
    let src = "\
#[cfg(test)]
mod tests {
    #[test]
    fn checks() {
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), 1);
        let eq = 0.1 + 0.2 == 0.3;
        assert!(!eq);
    }
}
";
    let findings = lint_source("crates/fake/src/lib.rs", src, &LintContext::default());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn registry_matches_rule_instances() {
    let mut names: Vec<&str> = proxima_lint::rules::all_rules()
        .iter()
        .map(|r| r.name())
        .collect();
    names.sort_unstable();
    let mut expected = RULES.to_vec();
    expected.sort_unstable();
    assert_eq!(names, expected);
}
