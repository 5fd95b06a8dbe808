//! Linter self-tests: seeded violations trip every rule, clean sources
//! pass, and the scanner survives the token-level edge cases that
//! would otherwise cause false positives.

use futurerd_check::lint::{self, LintConfig, Rule};

const MANIFEST: &[&str] = &[
    "session.ingest.events",
    "session.path.*",
    "freeze.assist.units.*",
    "obs.timeline.dropped",
    "reach.queries",
];

#[test]
fn seeded_violations_trip_every_rule() {
    let report = lint::seeded_violations(MANIFEST, &LintConfig::repo());
    assert!(!report.ok());
    for rule in [
        Rule::UnsafeAllowlist,
        Rule::SafetyComment,
        Rule::ObsName,
        Rule::RelaxedOrdering,
        Rule::InstantNow,
    ] {
        assert!(
            report.violations.iter().any(|v| v.rule == rule),
            "seeded sources failed to trip {rule}; report:\n{}",
            report.render()
        );
    }
}

fn lint_one(path: &str, text: &str, config: &LintConfig) -> Vec<lint::Violation> {
    lint::lint_sources(&[(path.to_string(), text.to_string())], MANIFEST, config).violations
}

#[test]
fn clean_file_passes() {
    let v = lint_one(
        "crates/core/src/freeze.rs",
        "pub fn stamp(&self) -> usize {\n    self.rows.len()\n}\n",
        &LintConfig::repo(),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn unsafe_in_allowlisted_file_needs_safety_comment() {
    let config = LintConfig::repo();
    let with_comment = lint_one(
        "crates/runtime/src/pool/job.rs",
        "fn g(p: *const u8) -> u8 {\n    // SAFETY: caller guarantees p is valid.\n    unsafe { *p }\n}\n",
        &config,
    );
    assert!(with_comment.is_empty(), "{with_comment:?}");

    let without = lint_one(
        "crates/runtime/src/pool/job.rs",
        "fn g(p: *const u8) -> u8 {\n    unsafe { *p }\n}\n",
        &config,
    );
    assert_eq!(without.len(), 1, "{without:?}");
    assert_eq!(without[0].rule, Rule::SafetyComment);
}

#[test]
fn unsafe_outside_allowlist_rejected_even_with_comment() {
    let v = lint_one(
        "crates/store/src/sidecar.rs",
        "fn f(p: *const u8) -> u8 {\n    // SAFETY: irrelevant, file not allowlisted.\n    unsafe { *p }\n}\n",
        &LintConfig::repo(),
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::UnsafeAllowlist);
}

#[test]
fn unsafe_in_string_or_comment_ignored() {
    let v = lint_one(
        "crates/store/src/sidecar.rs",
        "// this fn is not unsafe at all\nfn f() -> &'static str {\n    \"unsafe\"\n}\n",
        &LintConfig::repo(),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn unsafe_in_cfg_test_ignored() {
    let v = lint_one(
        "crates/store/src/sidecar.rs",
        "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    fn g(p: *const u8) -> u8 {\n        unsafe { *p }\n    }\n}\n",
        &LintConfig::repo(),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn obs_name_typo_caught_and_manifest_name_passes() {
    let config = LintConfig::repo();
    let bad = lint_one(
        "crates/futurerd/src/session.rs",
        "fn h() { futurerd_obs::counter_add(\"sesion.ingest.evnts\", 1); }\n",
        &config,
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::ObsName);

    let good = lint_one(
        "crates/futurerd/src/session.rs",
        "fn h() { futurerd_obs::counter_add(\"session.ingest.events\", 1); }\n",
        &config,
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn obs_name_wildcards_match_format_placeholders() {
    let config = LintConfig::repo();
    // `format!("session.path.{kind}")`-style literals normalize their
    // placeholder to `*` and match the manifest wildcard.
    let good = lint_one(
        "crates/futurerd/src/session.rs",
        "fn h(kind: &str) { futurerd_obs::counter_add(&format!(\"session.path.{kind}\"), 1); }\n",
        &config,
    );
    assert!(good.is_empty(), "{good:?}");

    let bad = lint_one(
        "crates/futurerd/src/session.rs",
        "fn h(kind: &str) { futurerd_obs::counter_add(&format!(\"session.paths.{kind}\"), 1); }\n",
        &config,
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::ObsName);
}

#[test]
fn obs_name_leading_placeholder_is_policed() {
    let config = LintConfig::repo();
    // A literal that opens with a `{prefix}` placeholder is still a name:
    // the placeholder normalizes to `*` and must match the manifest.
    let good = lint_one(
        "crates/core/src/stats.rs",
        "fn e(prefix: &str) { futurerd_obs::gauge_set(&format!(\"{prefix}.queries\"), 1); }\n",
        &config,
    );
    assert!(good.is_empty(), "{good:?}");

    let bad = lint_one(
        "crates/core/src/stats.rs",
        "fn e(prefix: &str) { futurerd_obs::gauge_set(&format!(\"{prefix}.querys\"), 1); }\n",
        &config,
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::ObsName);
}

#[test]
fn non_name_strings_not_policed() {
    let v = lint_one(
        "crates/store/src/sidecar.rs",
        "fn ext() -> &'static str { \".sidecar.json\" }\nfn msg() -> &'static str { \"checksum mismatch. retry\" }\nfn ver() -> &'static str { \"Frd.Sidecar.V2\" }\n",
        &LintConfig::repo(),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn format_spec_dots_are_not_names() {
    // `{:.3}s` has its only dot inside the placeholder — a duration
    // formatter, not an obs name.
    let v = lint_one(
        "crates/obs/src/lib.rs",
        "fn f(ns: f64) -> String { format!(\"{:.3}s\", ns) }\n",
        &LintConfig::repo(),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn relaxed_field_on_its_own_line_attributes_to_the_allowlist() {
    // Rustfmt splits long chains; the allowlisted stat counter must
    // still be attributed across `.injected\n    .fetch_add(…)`.
    let good = lint_one(
        "crates/runtime/src/pool/mod.rs",
        "fn f(c: &C, i: usize) {\n    c.counters[i]\n        .injected\n        .fetch_add(1, Ordering::Relaxed);\n}\n",
        &LintConfig::repo(),
    );
    assert!(good.is_empty(), "{good:?}");

    let bad = lint_one(
        "crates/runtime/src/pool/mod.rs",
        "fn f(c: &C, i: usize) {\n    c.counters[i]\n        .claimed\n        .fetch_add(1, Ordering::Relaxed);\n}\n",
        &LintConfig::repo(),
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::RelaxedOrdering);
}

#[test]
fn relaxed_on_policed_field_caught_allowlisted_field_passes() {
    let config = LintConfig::repo();
    let bad = lint_one(
        "crates/core/src/parallel/mod.rs",
        "impl ChunkIndex {\n    fn claim(&self) -> usize {\n        self.next.fetch_add(1, Ordering::Relaxed)\n    }\n}\n",
        &config,
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::RelaxedOrdering);

    let allowed = lint_one(
        "crates/core/src/parallel/mod.rs",
        "impl ChunkIndex {\n    fn miss(&self) {\n        self.misses.fetch_add(1, Ordering::Relaxed);\n    }\n}\n",
        &config,
    );
    assert!(allowed.is_empty(), "{allowed:?}");
}

#[test]
fn relaxed_across_line_break_caught() {
    let v = lint_one(
        "crates/runtime/src/pool/latch.rs",
        "fn set(&self) {\n    self.set.store(\n        true,\n        Ordering::Relaxed,\n    );\n}\n",
        &LintConfig::repo(),
    );
    assert_eq!(v.len(), 1, "{v:?}");
    assert_eq!(v[0].rule, Rule::RelaxedOrdering);
}

#[test]
fn relaxed_outside_policed_files_ignored() {
    let v = lint_one(
        "crates/obs/src/lib.rs",
        "fn f(&self) { self.flags.load(Ordering::Relaxed); }\n",
        &LintConfig::repo(),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn instant_now_placement() {
    let config = LintConfig::repo();
    let bad = lint_one(
        "crates/core/src/parallel/mod.rs",
        "fn t() { let _ = std::time::Instant::now(); }\n",
        &config,
    );
    assert_eq!(bad.len(), 1, "{bad:?}");
    assert_eq!(bad[0].rule, Rule::InstantNow);

    let good = lint_one(
        "crates/obs/src/lib.rs",
        "fn t() { let _ = std::time::Instant::now(); }\n",
        &config,
    );
    assert!(good.is_empty(), "{good:?}");
}

#[test]
fn scanner_handles_raw_strings_and_lifetimes() {
    // Raw strings with quotes inside, lifetimes, char literals — none
    // of it should confuse the scanner into seeing phantom tokens.
    let v = lint_one(
        "crates/store/src/sidecar.rs",
        concat!(
            "fn f<'a>(s: &'a str) -> char {\n",
            "    let _raw = r#\"say \"unsafe\" out loud\"#;\n",
            "    let _esc = \"quote: \\\" unsafe \\\" done\";\n",
            "    let _b = b\"unsafe bytes\";\n",
            "    '\\''\n",
            "}\n",
        ),
        &LintConfig::repo(),
    );
    assert!(v.is_empty(), "{v:?}");
}

#[test]
fn report_renders_path_line_rule() {
    let report = lint::lint_sources(
        &[(
            "crates/core/src/parallel/mod.rs".to_string(),
            "fn t() {\n    let _ = std::time::Instant::now();\n}\n".to_string(),
        )],
        MANIFEST,
        &LintConfig::repo(),
    );
    let rendered = report.render();
    assert!(
        rendered.contains("crates/core/src/parallel/mod.rs:2: [instant-now]"),
        "{rendered}"
    );
}
