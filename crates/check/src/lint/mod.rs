//! The workspace invariant linter behind `futurerd-trace lint`.
//!
//! A token-level pass (comment/string-aware, no rustc internals) over
//! `crates/*/src`, enforcing five repo invariants:
//!
//! 1. **unsafe allowlist** — `unsafe` only in the files that earned it,
//!    and every use sits under a `// SAFETY:` comment.
//! 2. **obs name manifest** — every dotted stage/metric name literal
//!    appears in the `obs::names` manifest; typos can't mint silent
//!    stray metrics.
//! 3. **ordering policy** — `Ordering::Relaxed` is banned on the
//!    claim-protocol and latch atomics (allowlisted stat-counter fields
//!    excepted).
//! 4. **time containment** — `Instant::now` only inside futurerd-obs
//!    and the bench harness.
//! 5. **panic audit** — in the policed files, every `.unwrap()`,
//!    `.expect(` and `panic!(` carries an `// INVARIANT:` comment saying
//!    why it cannot fire.
//!
//! The manifest is passed in by the caller (the CLI hands over
//! `futurerd_obs::names::MANIFEST`) so this crate stays
//! zero-dependency while obs remains the single source of truth.

mod rules;
mod scan;

use std::fmt;
use std::path::{Path, PathBuf};

/// Which rule a violation belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rule {
    /// `unsafe` outside the allowlisted file set.
    UnsafeAllowlist,
    /// `unsafe` without a `// SAFETY:` comment.
    SafetyComment,
    /// Dotted name literal missing from the obs manifest.
    ObsName,
    /// `Ordering::Relaxed` on a policed atomic.
    RelaxedOrdering,
    /// `Instant::now` outside the measurement edges.
    InstantNow,
    /// A panic site without an `// INVARIANT:` comment.
    InvariantComment,
}

impl Rule {
    /// Every rule, for "did the self-test trip them all" checks.
    pub const ALL: [Rule; 6] = [
        Rule::UnsafeAllowlist,
        Rule::SafetyComment,
        Rule::ObsName,
        Rule::RelaxedOrdering,
        Rule::InstantNow,
        Rule::InvariantComment,
    ];
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Rule::UnsafeAllowlist => "unsafe-allowlist",
            Rule::SafetyComment => "safety-comment",
            Rule::ObsName => "obs-name",
            Rule::RelaxedOrdering => "relaxed-ordering",
            Rule::InstantNow => "instant-now",
            Rule::InvariantComment => "invariant-comment",
        };
        f.write_str(s)
    }
}

/// One finding.
#[derive(Clone, Debug)]
pub struct Violation {
    /// The rule that fired.
    pub rule: Rule,
    /// Repo-relative path.
    pub path: String,
    /// 1-based line number.
    pub line: usize,
    /// What and why.
    pub message: String,
}

/// Lint results over a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// All findings, in file/line order.
    pub violations: Vec<Violation>,
    /// Files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// True when the tree is clean.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }

    /// One line per violation plus a summary, ready to print.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for v in &self.violations {
            out.push_str(&format!(
                "{}:{}: [{}] {}\n",
                v.path, v.line, v.rule, v.message
            ));
        }
        out.push_str(&format!(
            "lint: {} file(s) scanned, {} violation(s)\n",
            self.files_scanned,
            self.violations.len()
        ));
        out
    }
}

/// Linter policy. [`LintConfig::repo`] is the checked-in policy for
/// this workspace; tests construct custom ones.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Path suffixes where `unsafe` is permitted.
    pub unsafe_files: Vec<String>,
    /// Path suffixes where `Ordering::Relaxed` is policed.
    pub relaxed_files: Vec<String>,
    /// `(path suffix, field)` pairs exempt from the Relaxed ban.
    pub relaxed_allow: Vec<(String, String)>,
    /// Path prefixes where `Instant::now` is permitted.
    pub instant_allow: Vec<String>,
    /// Normalized dotted literals that are *not* obs names (file
    /// extensions and the like).
    pub name_allow: Vec<String>,
    /// Path prefixes whose panic sites need an `// INVARIANT:` comment.
    pub invariant_files: Vec<String>,
}

fn strings(items: &[&str]) -> Vec<String> {
    items.iter().map(|s| s.to_string()).collect()
}

impl LintConfig {
    /// The policy for this repository.
    pub fn repo() -> Self {
        Self {
            unsafe_files: strings(&[
                // The work-stealing pool's type-erased job handoff.
                "runtime/src/pool/job.rs",
                "runtime/src/pool/mod.rs",
                // Scoped-spawn lifetime transmute lives in mod.rs; the
                // deque is mutex-based and clean outside tests.
                // Zero-copy JSON string scanning.
                "bench/src/json.rs",
                // The model checker's own cells (single-runner baton
                // protocol makes them exclusive).
                "check/src/model/shim.rs",
            ]),
            relaxed_files: strings(&[
                "core/src/parallel/mod.rs",
                "runtime/src/pool/latch.rs",
                "runtime/src/pool/mod.rs",
                "runtime/src/pool/job.rs",
            ]),
            relaxed_allow: vec![
                // Contended-claim miss tally: observability only, never
                // guards memory.
                ("core/src/parallel/mod.rs".into(), "misses".into()),
                // Per-worker stat counters exported as gauges.
                ("runtime/src/pool/mod.rs".into(), "executed".into()),
                ("runtime/src/pool/mod.rs".into(), "steals".into()),
                ("runtime/src/pool/mod.rs".into(), "injected".into()),
            ],
            instant_allow: strings(&[
                // The observability layer is where time is measured.
                "crates/obs/",
                // Bench harness and CLI measure wall clocks by design.
                "crates/bench/",
                // Fuzz budget deadline.
                "crates/fuzz/src/lib.rs",
                // Session feeds obs::record_stage with measured spans.
                "crates/futurerd/src/session.rs",
            ]),
            name_allow: strings(&[]),
            invariant_files: strings(&[
                // The paper's reachability structures and their bitset:
                // every query of the detector runs through them.
                "crates/core/src/reachability/",
                "crates/core/src/bitset.rs",
                // The frozen index, its sidecar codec, the store that binds
                // a sidecar to its trace and the session that resumes from
                // it: sidecar and trace bytes reach all four.
                "crates/core/src/parallel/freeze.rs",
                "crates/store/src/codec.rs",
                "crates/store/src/lib.rs",
                "crates/futurerd/src/session.rs",
            ]),
        }
    }
}

/// Lints in-memory `(path, contents)` pairs — the engine behind both
/// [`lint_workspace`] and the seeded self-tests.
pub fn lint_sources(files: &[(String, String)], manifest: &[&str], config: &LintConfig) -> Report {
    let mut report = Report::default();
    for (path, text) in files {
        let scanned = scan::scan(path, text);
        rules::check_unsafe(&scanned, config, &mut report.violations);
        rules::check_obs_names(&scanned, manifest, config, &mut report.violations);
        rules::check_relaxed(&scanned, config, &mut report.violations);
        rules::check_instant(&scanned, config, &mut report.violations);
        rules::check_invariant(&scanned, config, &mut report.violations);
        report.files_scanned += 1;
    }
    report
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<_> = std::fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Lints every `crates/*/src/**/*.rs` under `root` (the workspace
/// root).
pub fn lint_workspace(
    root: &Path,
    manifest: &[&str],
    config: &LintConfig,
) -> std::io::Result<Report> {
    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<_> = std::fs::read_dir(&crates_dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_dir())
        .collect();
    crate_dirs.sort();

    let mut files = Vec::new();
    for crate_dir in crate_dirs {
        let src = crate_dir.join("src");
        if !src.is_dir() {
            continue;
        }
        let mut paths = Vec::new();
        collect_rs(&src, &mut paths)?;
        for path in paths {
            let text = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            files.push((rel, text));
        }
    }
    Ok(lint_sources(&files, manifest, config))
}

/// Seeded-violation self-test: fabricated sources that must trip every
/// rule. Returns the report; callers assert each expected rule fired.
/// Wired into CI so a silently broken linter cannot pass the gate.
pub fn seeded_violations(manifest: &[&str], config: &LintConfig) -> Report {
    let files = vec![
        (
            "crates/core/src/parallel/mod.rs".to_string(),
            "pub fn claim(&self) {\n    self.next.fetch_add(1, Ordering::Relaxed);\n}\n"
                .to_string(),
        ),
        (
            "crates/store/src/sidecar.rs".to_string(),
            "fn f() { let _x = unsafe { core::ptr::null::<u8>().read() }; }\n".to_string(),
        ),
        (
            "crates/runtime/src/pool/job.rs".to_string(),
            "fn g(p: *const u8) -> u8 { unsafe { *p } }\n".to_string(),
        ),
        (
            "crates/futurerd/src/session.rs".to_string(),
            "fn h() { futurerd_obs::counter_add(\"sesion.ingest.evnts\", 1); }\n".to_string(),
        ),
        (
            "crates/core/src/parallel/mod.rs".to_string(),
            "fn t() { let _ = std::time::Instant::now(); }\n".to_string(),
        ),
        (
            "crates/core/src/reachability/rgraph.rs".to_string(),
            "fn u(v: Option<u8>) -> u8 { v.unwrap() }\n".to_string(),
        ),
    ];
    lint_sources(&files, manifest, config)
}
