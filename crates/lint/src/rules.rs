//! The workspace invariant rules.
//!
//! Each rule fires on a token in non-test library code and is silenced
//! by a named justification directive in a comment on the same line or
//! in the contiguous comment/attribute block immediately above. The
//! directive must *name its reason* — the colon is part of the
//! directive, so a bare `// det-ok` does not count.
//!
//! | rule id            | trigger                                   | directive        |
//! |--------------------|-------------------------------------------|------------------|
//! | `det-collections`  | `HashMap`/`HashSet` in a deterministic crate (`core`, `graph`, `sim`) | `// det-ok:` |
//! | `relaxed-ordering` | `Ordering::Relaxed` site                  | `// relaxed-ok:` |
//! | `safety-comment`   | any `unsafe` keyword                      | `// SAFETY:`     |
//! | `no-panic`         | `.unwrap()` / `.expect(` / `panic!` outside `main.rs`, `src/bin/` | `// panic-ok:` |
//! | `dispatch-loop`    | `fetch_add` outside `graph::parallel`     | `// dispatch-ok:` |

use crate::scan::{has_token, Line};

/// One lint finding, formatted as `path:line: [rule] message`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    pub path: String,
    /// 1-indexed source line.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path, self.line, self.rule, self.message
        )
    }
}

/// Crates whose iteration order is part of the byte-parity contract
/// (goldens, sweep aggregates, exhaustive censuses, per-tenant serving
/// reports).
const DETERMINISTIC_CRATES: [&str; 4] = [
    "crates/core/src",
    "crates/graph/src",
    "crates/sim/src",
    "crates/serve/src",
];

/// Files allowed to panic: binary entry points own their exit behavior.
fn panic_allowlisted(path: &str) -> bool {
    path.ends_with("/main.rs") || path == "main.rs" || path.contains("/bin/")
}

/// Is the flagged line excused by `directive` — on the same line or in
/// the contiguous comment/attribute block right above it?
fn excused(lines: &[Line], idx: usize, directive: &str) -> bool {
    if lines[idx].comment.contains(directive) {
        return true;
    }
    let mut k = idx;
    while k > 0 {
        k -= 1;
        let l = &lines[k];
        if !l.is_code_free() {
            return false;
        }
        if l.comment.contains(directive) {
            return true;
        }
    }
    false
}

/// Run every rule over one scanned file. `path` is workspace-relative
/// with forward slashes (rule scoping matches on it).
pub fn check(path: &str, lines: &[Line]) -> Vec<Diagnostic> {
    let deterministic = DETERMINISTIC_CRATES.iter().any(|p| path.starts_with(p));
    let in_parallel = path == "crates/graph/src/parallel.rs";
    let panics_allowed = panic_allowlisted(path);
    let mut out = Vec::new();
    let mut push = |line: usize, rule: &'static str, message: String| {
        out.push(Diagnostic {
            path: path.to_string(),
            line: line + 1,
            rule,
            message,
        });
    };

    for (i, l) in lines.iter().enumerate() {
        if l.is_test {
            continue;
        }
        let code = &l.code;

        if deterministic
            && (has_token(code, "HashMap") || has_token(code, "HashSet"))
            && !excused(lines, i, "det-ok:")
        {
            push(
                i,
                "det-collections",
                "hash collections iterate in randomized order; use BTreeMap/BTreeSet \
                 (or sorted drain) in deterministic crates, or justify with `// det-ok: <why>`"
                    .into(),
            );
        }

        if has_token(code, "Relaxed") && !excused(lines, i, "relaxed-ok:") {
            push(
                i,
                "relaxed-ordering",
                "every Ordering::Relaxed site must name the repair/fence that makes it \
                 sound with `// relaxed-ok: <why>` (and be covered by `make loom-check`)"
                    .into(),
            );
        }

        if has_token(code, "unsafe") && !excused(lines, i, "SAFETY:") {
            push(
                i,
                "safety-comment",
                "unsafe requires a `// SAFETY: <invariant>` comment on the line or the \
                 block above"
                    .into(),
            );
        }

        if !panics_allowed
            && (code.contains(".unwrap()")
                || code.contains(".expect(")
                || has_token(code, "panic!"))
            && !excused(lines, i, "panic-ok:")
        {
            push(
                i,
                "no-panic",
                "library code must not panic on reachable paths; return a Result, or \
                 justify the invariant with `// panic-ok: <why>`"
                    .into(),
            );
        }

        if !in_parallel && has_token(code, "fetch_add") && !excused(lines, i, "dispatch-ok:") {
            push(
                i,
                "dispatch-loop",
                "hand-rolled atomic work dispatch belongs in graph::parallel (parallel_fold, \
                 or WorkerPool for repeated rounds); a counter that is not a dispatch loop \
                 needs `// dispatch-ok: <why>`"
                    .into(),
            );
        }
    }
    out
}
