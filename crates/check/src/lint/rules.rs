//! The five invariant rules, each a pass over scanned files.

use super::scan::ScannedFile;
use super::{LintConfig, Rule, Violation};

fn word_positions(code: &str, word: &str) -> Vec<usize> {
    let mut out = Vec::new();
    let bytes = code.as_bytes();
    let mut from = 0;
    while let Some(pos) = code[from..].find(word) {
        let start = from + pos;
        let end = start + word.len();
        let before_ok = start == 0 || {
            let b = bytes[start - 1];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        let after_ok = end >= bytes.len() || {
            let b = bytes[end];
            !(b.is_ascii_alphanumeric() || b == b'_')
        };
        if before_ok && after_ok {
            out.push(start);
        }
        from = end;
    }
    out
}

/// How many lines above an `unsafe` token a SAFETY comment may sit.
const SAFETY_WINDOW: usize = 12;

/// Rule 1: `unsafe` only in allowlisted files, each use under a
/// `// SAFETY:` (or `# Safety` doc section) comment.
pub(super) fn check_unsafe(file: &ScannedFile, config: &LintConfig, out: &mut Vec<Violation>) {
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test || word_positions(&line.code, "unsafe").is_empty() {
            continue;
        }
        let allowed = config
            .unsafe_files
            .iter()
            .any(|suffix| file.path.ends_with(suffix.as_str()));
        if !allowed {
            out.push(Violation {
                rule: Rule::UnsafeAllowlist,
                path: file.path.clone(),
                line: i + 1,
                message: format!(
                    "`unsafe` in a file outside the allowlist ({}); move the code into an \
                     allowlisted module or extend LintConfig::unsafe_files deliberately",
                    file.path
                ),
            });
            continue;
        }
        let lo = i.saturating_sub(SAFETY_WINDOW);
        let documented = file.lines[lo..=i]
            .iter()
            .any(|l| l.comment.contains("SAFETY") || l.comment.contains("# Safety"));
        if !documented {
            out.push(Violation {
                rule: Rule::SafetyComment,
                path: file.path.clone(),
                line: i + 1,
                message: "`unsafe` without a `// SAFETY:` comment within the preceding 12 lines"
                    .to_string(),
            });
        }
    }
}

/// Is `text` shaped like an observability name: dotted, lowercase
/// identifier segments, possibly with `{…}` format placeholders?
fn is_namelike(text: &str) -> bool {
    if text.len() > 64 || !text.contains('.') {
        return false;
    }
    // A name may open with a `{prefix}` placeholder (call sites that take
    // the leading segment as a parameter), otherwise it must start with a
    // lowercase identifier character.
    if !text
        .chars()
        .next()
        .is_some_and(|c| c.is_ascii_lowercase() || c == '{')
    {
        return false;
    }
    if text.ends_with('.') || text.contains("..") {
        return false;
    }
    let mut has_alpha = false;
    let mut has_sep = false;
    let mut depth = 0u32;
    for c in text.chars() {
        match c {
            '{' => depth += 1,
            '}' => {
                if depth == 0 {
                    return false;
                }
                depth -= 1;
            }
            'a'..='z' | '0'..='9' | '_' if depth == 0 => has_alpha |= c.is_ascii_lowercase(),
            // Only a dot *between* segments makes a name; a dot inside a
            // placeholder (`"{:.3}s"` format specs) does not.
            '.' if depth == 0 => has_sep = true,
            _ if depth > 0 => {} // anything inside a placeholder
            _ => return false,
        }
    }
    has_alpha && has_sep && depth == 0
}

/// `{…}` placeholders → `*`, so `pool.worker.{i}.steals` matches a
/// manifest entry `pool.worker.*.steals`.
fn normalize(text: &str) -> String {
    let mut out = String::new();
    let mut depth = 0u32;
    for c in text.chars() {
        match c {
            '{' => {
                if depth == 0 {
                    out.push('*');
                }
                depth += 1;
            }
            '}' => depth = depth.saturating_sub(1),
            _ if depth > 0 => {}
            _ => out.push(c),
        }
    }
    out
}

fn manifest_matches(entry: &str, name: &str) -> bool {
    let es: Vec<&str> = entry.split('.').collect();
    let ns: Vec<&str> = name.split('.').collect();
    if es.len() != ns.len() {
        return false;
    }
    es.iter()
        .zip(ns.iter())
        .all(|(e, n)| *e == "*" || *n == "*" || e == n)
}

/// Rule 2: every name-shaped string literal must appear in the
/// `obs::names` manifest (or the explicit non-name allowlist). This is
/// the sweep that makes a typo'd `Span::enter("frezee")`-style stray
/// name a lint error instead of a silently minted metric.
pub(super) fn check_obs_names(
    file: &ScannedFile,
    manifest: &[&str],
    config: &LintConfig,
    out: &mut Vec<Violation>,
) {
    for lit in &file.strings {
        if lit.in_test || !is_namelike(&lit.text) {
            continue;
        }
        let name = normalize(&lit.text);
        if config.name_allow.iter().any(|a| manifest_matches(a, &name)) {
            continue;
        }
        if manifest.iter().any(|e| manifest_matches(e, &name)) {
            continue;
        }
        out.push(Violation {
            rule: Rule::ObsName,
            path: file.path.clone(),
            line: lit.line + 1,
            message: format!(
                "dotted name literal \"{}\" is not in the obs::names manifest \
                 (add it there, or to LintConfig::name_allow if it is not an obs name)",
                lit.text
            ),
        });
    }
}

const ATOMIC_METHODS: [&str; 9] = [
    "load",
    "store",
    "swap",
    "compare_exchange",
    "compare_exchange_weak",
    "fetch_add",
    "fetch_sub",
    "fetch_or",
    "fetch_and",
];

/// Receiver field of the atomic call containing byte offset `pos` in
/// `joined` (a few lines of code joined together).
fn relaxed_receiver(joined: &str, pos: usize) -> Option<String> {
    let head = &joined[..pos];
    let mut best: Option<(usize, usize)> = None; // (dot position, method)
    for m in ATOMIC_METHODS {
        let pat = format!(".{m}");
        let mut from = 0;
        while let Some(p) = head[from..].find(&pat) {
            let at = from + p;
            // Require an open paren right after the method name
            // (possibly with whitespace / newline).
            let after = head[at + pat.len()..].trim_start();
            if after.starts_with('(') || after.is_empty() {
                match best {
                    Some((b, _)) if b >= at => {}
                    _ => best = Some((at, pat.len())),
                }
            }
            from = at + pat.len();
        }
    }
    let (dot, _) = best?;
    // The field may sit on its own line (`.executed\n.fetch_add(…)`):
    // skip the whitespace between it and the method's dot.
    let ident: String = head[..dot]
        .trim_end()
        .chars()
        .rev()
        .take_while(|c| c.is_ascii_alphanumeric() || *c == '_')
        .collect();
    let ident: String = ident.chars().rev().collect();
    if ident.is_empty() {
        None
    } else {
        Some(ident)
    }
}

/// Rule 3: `Ordering::Relaxed` is forbidden on claim-protocol and latch
/// atomics. Policed per file; exceptions are allowlisted by
/// `(file suffix, receiver field)` — stat counters whose values never
/// guard memory.
pub(super) fn check_relaxed(file: &ScannedFile, config: &LintConfig, out: &mut Vec<Violation>) {
    let policed = config
        .relaxed_files
        .iter()
        .any(|suffix| file.path.ends_with(suffix.as_str()));
    if !policed {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        let Some(col) = line.code.find("Ordering::Relaxed") else {
            continue;
        };
        // Join up to 3 lines of context so multi-line calls attribute.
        let lo = i.saturating_sub(2);
        let mut joined = String::new();
        for l in &file.lines[lo..i] {
            joined.push_str(&l.code);
            joined.push('\n');
        }
        let pos = joined.len() + col;
        joined.push_str(&line.code);
        let receiver = relaxed_receiver(&joined, pos);
        let allowed = receiver.as_deref().is_some_and(|field| {
            config
                .relaxed_allow
                .iter()
                .any(|(suffix, f)| file.path.ends_with(suffix.as_str()) && f == field)
        });
        if !allowed {
            let who = receiver.unwrap_or_else(|| "<unattributed>".into());
            out.push(Violation {
                rule: Rule::RelaxedOrdering,
                path: file.path.clone(),
                line: i + 1,
                message: format!(
                    "Ordering::Relaxed on `{who}` in a claim-protocol/latch file; use \
                     Acquire/Release/AcqRel, or allowlist the field in LintConfig::relaxed_allow \
                     if it is a pure stat counter"
                ),
            });
        }
    }
}

/// Rule 4: `Instant::now` only at the allowlisted measurement edges —
/// everything else must flow through futurerd-obs so time stays
/// observable and mockable.
pub(super) fn check_instant(file: &ScannedFile, config: &LintConfig, out: &mut Vec<Violation>) {
    let allowed = config
        .instant_allow
        .iter()
        .any(|prefix| file.path.starts_with(prefix.as_str()));
    if allowed {
        return;
    }
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test {
            continue;
        }
        if line.code.contains("Instant::now") {
            out.push(Violation {
                rule: Rule::InstantNow,
                path: file.path.clone(),
                line: i + 1,
                message: "Instant::now outside the allowlisted measurement edges \
                          (futurerd-obs, bench); record through obs spans instead"
                    .to_string(),
            });
        }
    }
}

/// Does `code` (comments and string contents blanked) hold a panic site:
/// `.unwrap()`, `.expect(` or `panic!(`?
fn has_panic_site(code: &str) -> bool {
    code.contains(".unwrap()")
        || code.contains(".expect(")
        || word_positions(code, "panic")
            .into_iter()
            .any(|at| code[at + "panic".len()..].starts_with("!("))
}

/// Rule 5: in the policed files every panic site carries an
/// `// INVARIANT:` comment — on its own line, on a line above it that
/// continues the same method chain, or in the comment lines directly above
/// those — saying why it cannot fire.
pub(super) fn check_invariant(file: &ScannedFile, config: &LintConfig, out: &mut Vec<Violation>) {
    let policed = config
        .invariant_files
        .iter()
        .any(|prefix| file.path.starts_with(prefix.as_str()));
    if !policed {
        return;
    }
    let documented = |line: usize| file.lines[line].comment.contains("INVARIANT:");
    for (i, line) in file.lines.iter().enumerate() {
        if line.in_test || !has_panic_site(&line.code) {
            continue;
        }
        // Up over the chain the site ends (`.get(…)\n    .unwrap_or_else(…)`)
        // to the statement's first line, then over the comment block above.
        let mut at = i;
        let mut ok = documented(at);
        while !ok && at > 0 && file.lines[at].code.trim_start().starts_with('.') {
            at -= 1;
            ok = documented(at);
        }
        while !ok && at > 0 {
            let above = &file.lines[at - 1];
            if !above.code.trim().is_empty() || above.comment.is_empty() {
                break;
            }
            at -= 1;
            ok = documented(at);
        }
        if !ok {
            out.push(Violation {
                rule: Rule::InvariantComment,
                path: file.path.clone(),
                line: i + 1,
                message: "panic site (`.unwrap()`, `.expect(` or `panic!(`) without an \
                          `// INVARIANT:` comment on its line or just above it"
                    .to_string(),
            });
        }
    }
}
