//! The lint rules and their allowlisting machinery.
//!
//! Seven rules, all driven by the token stream of [`crate::lexer`]:
//!
//! * **`unwrap`** — no `.unwrap()` / `.expect(…)` in non-test library code.
//!   Test modules (`#[cfg(test)]`), `#[test]` functions, and `tests/` /
//!   `benches/` / `examples/` trees are exempt. Doc-comment examples never
//!   trigger (comments are not tokens).
//! * **`relaxed`** — no `Ordering::Relaxed` unless the site carries a
//!   justified `audit:allow(relaxed): <why>` comment **and** the file is
//!   listed in the allowlist. Relaxed atomics are where informal
//!   "it's just a flag" arguments go to die; both halves are mandatory.
//! * **`cast`** — no narrowing `as` casts (`as u8/u16/u32/i8/i16/i32`) in
//!   the DP index-arithmetic files ([`DP_CAST_FILES`]) without a justified
//!   `audit:allow(cast)` comment. Index truncation is precisely the bug
//!   class that silently corrupts a wavefront table.
//! * **`trace-hot`** — no trace hooks *or metric-recording calls* inside
//!   the zero-allocation block kernel's loops. In [`TRACE_HOT_FILES`], a
//!   `for` loop is on the per-block or per-cell hot path when its body
//!   calls one of `KERNEL_MARKERS` (the block fill, or the audit seam's
//!   per-cell access hooks that every cell read and write carries) or when
//!   it lies inside one of `KERNEL_FNS`: even a disabled hook's atomic
//!   load there multiplies by the block or cell count, and an *enabled*
//!   metric's relaxed add is a guaranteed cache ping on every one. Spans
//!   belong *around* the block loop (chunk/level granularity) and metrics
//!   record per-chunk aggregates, never per block or cell; override only
//!   with a justified `audit:allow(trace-hot)` comment.
//! * **`alloc-hot`** — no allocation in the same loops: `.push(…)`,
//!   `.to_vec()`, `.collect()`, `.with_label(…)` (registry mutex +
//!   `Box::leak` on first use), `Vec::new` / `Vec::with_capacity`,
//!   `Box::new`, and the `format!` / `vec!` macros are all per-cell heap
//!   traffic that the kernel's zero-allocation contract (and the
//!   `kernel_allocs` counter the regression suite asserts on) forbids.
//!   Buffers are reserved *outside* the block loop (metric family children
//!   resolved once per sweep); override only with a justified
//!   `audit:allow(alloc-hot)` comment.
//! * **`guard-across-park`** — no [`pcmax_parallel::sync::Mutex`] guard binding held
//!   across a condvar wait or a thread park. A `let g = ….lock(…)…;`
//!   binding that is still live (not dropped, not consumed as the wait's
//!   own guard argument) when a `.wait(…)` / `.wait_timeout(…)` /
//!   `.wait_while(…)` / `park(…)` executes is the classic self-deadlock:
//!   the sleeper holds the lock its waker needs. The `crates/parallel`
//!   sync seam itself is exempt — it *implements* the guard handoff.
//! * **`artifacts`** — no build artifacts tracked in git (`target/`
//!   anywhere, `*.profraw`, object/metadata files).
//!
//! A violation is suppressed by a *site directive* (a nearby
//! `audit:allow(<rule>): reason` comment) or — for `unwrap` only — a
//! *file-level allowlist entry* (`lint.allow`), which is how the not-yet
//! burned-down crates are tracked explicitly instead of silently.

use crate::lexer::{lex, AllowDirective, Lexed, Tok};
use std::fmt;

/// Repo-relative files subject to the `cast` rule: everywhere DP table
/// indices are computed or narrowed.
pub const DP_CAST_FILES: &[&str] = &[
    "crates/ptas/src/table.rs",
    "crates/ptas/src/dp.rs",
    "crates/ptas/src/config.rs",
    "crates/ptas/src/uniform.rs",
    "crates/ptas/src/chassis.rs",
    "crates/parallel/src/wavefront.rs",
    "crates/pram/src/dp.rs",
];

/// Narrowing cast targets the `cast` rule rejects without justification.
const NARROWING_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Repo-relative files subject to the `trace-hot` and `alloc-hot` rules:
/// where the zero-allocation block kernel and the DP sweeps live.
pub const TRACE_HOT_FILES: &[&str] = &[
    "crates/parallel/src/wavefront.rs",
    "crates/ptas/src/table.rs",
    "crates/ptas/src/space.rs",
    "crates/ptas/src/uniform.rs",
    "crates/ptas/src/chassis.rs",
];

/// Identifiers that emit trace events or record metrics — the
/// free-function hooks of `pcmax-trace`, the request-level span of
/// `pcmax-core`, and the recording methods of `pcmax-metrics`
/// (`inc` / `inc_by` / `observe`). A metric record is one relaxed atomic
/// add when enabled — cheap per chunk, ruinous per cell.
const TRACE_HOOKS: &[&str] = &[
    "span",
    "span_enter",
    "span_exit",
    "instant",
    "counter",
    "trace_span",
    "inc",
    "inc_by",
    "observe",
];

/// Calls that put a `for` loop on the kernel's hot path: the block fill
/// (the per-block loop of a chunk) and the `sync` seam's per-cell access
/// hooks, which every cell read and write of a sweep carries.
const KERNEL_MARKERS: &[&str] = &["fill_block", "trace_read", "trace_write"];

/// Functions whose every loop is on the kernel's hot path: the block fill
/// runs once per block, and its loops once per cell or transition.
const KERNEL_FNS: &[&str] = &["fill_block"];

/// Allocating methods the `alloc-hot` rule rejects in the kernel's loops.
/// `with_label` is the metric-family child lookup: a registry mutex plus a
/// `Box::leak` on first use — resolve children once per sweep, outside the
/// block loop.
const ALLOC_METHODS: &[&str] = &["push", "to_vec", "collect", "with_label"];

/// Allocating macros the `alloc-hot` rule rejects there.
const ALLOC_MACROS: &[&str] = &["format", "vec"];

/// Files exempt from the `guard-across-park` rule: the sync seam itself
/// implements the atomic unlock-and-sleep handoff the rule polices.
const GUARD_PARK_EXEMPT: &[&str] = &["crates/parallel/src/sync.rs"];

/// How many lines above a violation a site directive may sit.
const DIRECTIVE_REACH: u32 = 3;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Repo-relative path.
    pub file: String,
    /// 1-based line (0 for repo-level findings like tracked artifacts).
    pub line: u32,
    /// Rule name (`unwrap`, `relaxed`, `cast`, `trace-hot`, `alloc-hot`,
    /// `guard-across-park`, `artifacts`).
    pub rule: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "{}: [{}] {}", self.file, self.rule, self.message)
        } else {
            write!(
                f,
                "{}:{}: [{}] {}",
                self.file, self.line, self.rule, self.message
            )
        }
    }
}

/// One parsed allowlist entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AllowEntry {
    /// Rule the entry applies to.
    pub rule: String,
    /// Repo-relative file path.
    pub path: String,
    /// Mandatory justification.
    pub reason: String,
}

/// The parsed `lint.allow` file.
#[derive(Debug, Clone, Default)]
pub struct Allowlist {
    /// Entries in file order.
    pub entries: Vec<AllowEntry>,
}

impl Allowlist {
    /// Parses the allowlist format: one `rule path reason…` entry per line,
    /// `#` comments and blank lines ignored. Every entry must carry a
    /// non-empty reason — an allowlist without justifications is just a
    /// second place to hide problems.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut entries = Vec::new();
        for (i, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.splitn(3, char::is_whitespace);
            let rule = parts.next().unwrap_or_default().to_string();
            let path = parts.next().unwrap_or_default().to_string();
            let reason = parts.next().unwrap_or_default().trim().to_string();
            if rule.is_empty() || path.is_empty() {
                return Err(format!("lint.allow:{}: malformed entry {line:?}", i + 1));
            }
            if reason.is_empty() {
                return Err(format!(
                    "lint.allow:{}: entry for {path} has no justification",
                    i + 1
                ));
            }
            entries.push(AllowEntry { rule, path, reason });
        }
        Ok(Self { entries })
    }

    /// Whether `(rule, path)` is allowlisted.
    pub fn allows(&self, rule: &str, path: &str) -> bool {
        self.entries
            .iter()
            .any(|e| e.rule == rule && e.path == path)
    }

    /// Entries that matched no violation in the run (candidates for
    /// deletion — the burn-down made them obsolete).
    pub fn stale<'a>(&'a self, used: &[(String, String)]) -> Vec<&'a AllowEntry> {
        self.entries
            .iter()
            .filter(|e| {
                !used
                    .iter()
                    .any(|(rule, path)| *rule == e.rule && *path == e.path)
            })
            .collect()
    }
}

/// The outcome of linting one file.
#[derive(Debug, Default)]
pub struct FileReport {
    /// Violations that survive directives and the allowlist.
    pub violations: Vec<Violation>,
    /// `(rule, path)` pairs suppressed by the allowlist (stale-tracking).
    pub allow_hits: Vec<(String, String)>,
}

/// Whether `path` is exempt from source rules altogether (test/bench/
/// example/fixture trees are not library code).
pub fn exempt_path(path: &str) -> bool {
    let parts: Vec<&str> = path.split('/').collect();
    parts.iter().any(|p| {
        matches!(
            *p,
            "tests" | "benches" | "examples" | "fixtures" | "target" | ".git"
        )
    })
}

/// Lints one file's source. `path` must be repo-relative with `/` separators.
pub fn lint_source(path: &str, src: &str, allow: &Allowlist) -> FileReport {
    let mut report = FileReport::default();
    if exempt_path(path) {
        return report;
    }
    let lexed = lex(src);
    let exempt = test_exempt_ranges(&lexed);

    check_unwrap(path, &lexed, &exempt, allow, &mut report);
    check_relaxed(path, &lexed, &exempt, allow, &mut report);
    if DP_CAST_FILES.contains(&path) {
        check_casts(path, &lexed, &exempt, &mut report);
    }
    if TRACE_HOT_FILES.contains(&path) {
        check_trace_hot(path, &lexed, &exempt, &mut report);
        check_alloc_hot(path, &lexed, &exempt, &mut report);
    }
    if !GUARD_PARK_EXEMPT.contains(&path) {
        check_guard_across_park(path, &lexed, &exempt, &mut report);
    }
    report
}

/// True if `line` falls in any exempt `[start, end]` range.
fn in_ranges(ranges: &[(u32, u32)], line: u32) -> bool {
    ranges.iter().any(|&(s, e)| s <= line && line <= e)
}

/// Finds a site directive for `rule` within reach of `line`; returns whether
/// one exists and whether it is justified.
fn directive_for(allows: &[AllowDirective], rule: &str, line: u32) -> Option<bool> {
    allows
        .iter()
        .filter(|d| d.rule == rule)
        .filter(|d| d.line <= line && line - d.line <= DIRECTIVE_REACH)
        .map(|d| d.justified)
        .max()
}

/// Computes the line ranges covered by test-only items: any item annotated
/// with an attribute whose token group mentions `test` (and not `not`), i.e.
/// `#[test]`, `#[cfg(test)] mod …`. The range runs from the attribute to the
/// item's closing brace (or terminating semicolon).
fn test_exempt_ranges(lexed: &Lexed) -> Vec<(u32, u32)> {
    let toks = &lexed.tokens;
    let mut ranges = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        let is_attr_start = toks[i].tok == Tok::Punct('#')
            && i + 1 < toks.len()
            && toks[i + 1].tok == Tok::Punct('[');
        if !is_attr_start {
            i += 1;
            continue;
        }
        let attr_line = toks[i].line;
        // Scan the bracket group.
        let mut j = i + 2;
        let mut depth = 1i32;
        let mut saw_test = false;
        let mut saw_not = false;
        while j < toks.len() && depth > 0 {
            match &toks[j].tok {
                Tok::Punct('[') => depth += 1,
                Tok::Punct(']') => depth -= 1,
                Tok::Ident(s) if s == "test" => saw_test = true,
                Tok::Ident(s) if s == "not" => saw_not = true,
                _ => {}
            }
            j += 1;
        }
        if !saw_test || saw_not {
            i = j;
            continue;
        }
        // Skip any further attributes, then find the item's `{…}` or `;`.
        let mut k = j;
        while k + 1 < toks.len()
            && toks[k].tok == Tok::Punct('#')
            && toks[k + 1].tok == Tok::Punct('[')
        {
            let mut d = 1i32;
            k += 2;
            while k < toks.len() && d > 0 {
                match toks[k].tok {
                    Tok::Punct('[') => d += 1,
                    Tok::Punct(']') => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        let mut end_line = attr_line;
        while k < toks.len() {
            match toks[k].tok {
                Tok::Punct(';') => {
                    end_line = toks[k].line;
                    k += 1;
                    break;
                }
                Tok::Punct('{') => {
                    let mut d = 1i32;
                    k += 1;
                    while k < toks.len() && d > 0 {
                        match toks[k].tok {
                            Tok::Punct('{') => d += 1,
                            Tok::Punct('}') => d -= 1,
                            _ => {}
                        }
                        end_line = toks[k].line;
                        k += 1;
                    }
                    break;
                }
                _ => {
                    k += 1;
                }
            }
        }
        ranges.push((attr_line, end_line));
        i = k;
    }
    ranges
}

/// Rule `unwrap`: `.unwrap()` / `.expect(` outside tests.
fn check_unwrap(
    path: &str,
    lexed: &Lexed,
    exempt: &[(u32, u32)],
    allow: &Allowlist,
    report: &mut FileReport,
) {
    let toks = &lexed.tokens;
    for w in 0..toks.len().saturating_sub(2) {
        let Tok::Punct('.') = toks[w].tok else {
            continue;
        };
        let Tok::Ident(name) = &toks[w + 1].tok else {
            continue;
        };
        if name != "unwrap" && name != "expect" {
            continue;
        }
        if toks[w + 2].tok != Tok::Punct('(') {
            continue;
        }
        let line = toks[w + 1].line;
        if in_ranges(exempt, line) {
            continue;
        }
        if directive_for(&lexed.allows, "unwrap", line) == Some(true) {
            continue;
        }
        if allow.allows("unwrap", path) {
            report
                .allow_hits
                .push(("unwrap".to_string(), path.to_string()));
            continue;
        }
        report.violations.push(Violation {
            file: path.to_string(),
            line,
            rule: "unwrap",
            message: format!(
                ".{name}() in non-test library code; return a Result (or add the \
                 file to lint.allow with a burn-down note)"
            ),
        });
    }
}

/// Rule `relaxed`: `Ordering::Relaxed` needs a justified site directive AND
/// an allowlist entry.
fn check_relaxed(
    path: &str,
    lexed: &Lexed,
    exempt: &[(u32, u32)],
    allow: &Allowlist,
    report: &mut FileReport,
) {
    let toks = &lexed.tokens;
    for w in 0..toks.len().saturating_sub(3) {
        let Tok::Ident(first) = &toks[w].tok else {
            continue;
        };
        if first != "Ordering" {
            continue;
        }
        if toks[w + 1].tok != Tok::Punct(':') || toks[w + 2].tok != Tok::Punct(':') {
            continue;
        }
        let Tok::Ident(last) = &toks[w + 3].tok else {
            continue;
        };
        if last != "Relaxed" {
            continue;
        }
        let line = toks[w + 3].line;
        if in_ranges(exempt, line) {
            continue;
        }
        let directive = directive_for(&lexed.allows, "relaxed", line);
        let listed = allow.allows("relaxed", path);
        match (directive, listed) {
            (Some(true), true) => {
                report
                    .allow_hits
                    .push(("relaxed".to_string(), path.to_string()));
            }
            (Some(true), false) => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "relaxed",
                message: "Ordering::Relaxed has a site justification but no lint.allow \
                          entry; add one"
                    .to_string(),
            }),
            (Some(false), _) => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "relaxed",
                message: "audit:allow(relaxed) directive lacks a justification after \
                          the colon"
                    .to_string(),
            }),
            (None, _) => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "relaxed",
                message: "Ordering::Relaxed without an audit:allow(relaxed): <why> \
                          comment; justify it or use Acquire/Release"
                    .to_string(),
            }),
        }
    }
}

/// Rule `cast`: narrowing `as` casts in DP index files need a justified
/// site directive.
fn check_casts(path: &str, lexed: &Lexed, exempt: &[(u32, u32)], report: &mut FileReport) {
    let toks = &lexed.tokens;
    for w in 0..toks.len().saturating_sub(1) {
        let Tok::Ident(kw) = &toks[w].tok else {
            continue;
        };
        if kw != "as" {
            continue;
        }
        let Tok::Ident(target) = &toks[w + 1].tok else {
            continue;
        };
        if !NARROWING_TARGETS.contains(&target.as_str()) {
            continue;
        }
        let line = toks[w].line;
        if in_ranges(exempt, line) {
            continue;
        }
        match directive_for(&lexed.allows, "cast", line) {
            Some(true) => {}
            Some(false) => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "cast",
                message: "audit:allow(cast) directive lacks a justification".to_string(),
            }),
            None => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "cast",
                message: format!(
                    "`as {target}` in DP index arithmetic; use a checked conversion or \
                     justify with audit:allow(cast): <why>"
                ),
            }),
        }
    }
}

/// Token-index ranges `(body_open, body_close)` of every `for` loop body.
/// `impl Trait for Type` and `for<'a>` bounds are filtered out by shape: a
/// loop's `for` is never preceded by an identifier and never followed by
/// `<`.
fn for_loop_bodies(toks: &[crate::lexer::Token]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    for i in 0..toks.len() {
        let Tok::Ident(kw) = &toks[i].tok else {
            continue;
        };
        if kw != "for" {
            continue;
        }
        if i > 0 && matches!(toks[i - 1].tok, Tok::Ident(_)) {
            continue; // `impl Trait for Type`
        }
        if matches!(toks.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('<'))) {
            continue; // `for<'a>` higher-ranked bound
        }
        // The iterator expression cannot contain a bare `{` (struct literals
        // need parens there), so the first `{` opens the loop body.
        let Some(open) = (i + 1..toks.len()).find(|&j| toks[j].tok == Tok::Punct('{')) else {
            continue;
        };
        let mut depth = 1i32;
        let mut close = open + 1;
        while close < toks.len() && depth > 0 {
            match toks[close].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
            close += 1;
        }
        bodies.push((open, close));
    }
    bodies
}

/// Token-index ranges `(open, close)` of the bodies of every function named
/// in `KERNEL_FNS`.
fn kernel_fn_bodies(toks: &[crate::lexer::Token]) -> Vec<(usize, usize)> {
    let mut bodies = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !matches!(&toks[i].tok, Tok::Ident(kw) if kw == "fn") {
            continue;
        }
        let Tok::Ident(name) = &toks[i + 1].tok else {
            continue;
        };
        if !KERNEL_FNS.contains(&name.as_str()) {
            continue;
        }
        // A signature holds no `{`, so the first one opens the body.
        let Some(open) = (i + 2..toks.len()).find(|&j| toks[j].tok == Tok::Punct('{')) else {
            continue;
        };
        let mut depth = 1i32;
        let mut close = open + 1;
        while close < toks.len() && depth > 0 {
            match toks[close].tok {
                Tok::Punct('{') => depth += 1,
                Tok::Punct('}') => depth -= 1,
                _ => {}
            }
            close += 1;
        }
        bodies.push((open, close));
    }
    bodies
}

/// For a candidate at token `w`: whether its innermost enclosing `for`
/// body is a kernel loop — it calls one of `KERNEL_MARKERS`, or it lies
/// inside one of `KERNEL_FNS`. Judging the *innermost* loop keeps spans
/// and buffers set up per level, around a block loop, legal.
fn in_kernel_loop(
    toks: &[crate::lexer::Token],
    loops: &[(usize, usize)],
    kernel_fns: &[(usize, usize)],
    w: usize,
) -> bool {
    let Some(&(open, close)) = loops
        .iter()
        .filter(|&&(open, close)| open < w && w < close)
        .min_by_key(|&&(open, close)| close - open)
    else {
        return false;
    };
    toks[open..close]
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if KERNEL_MARKERS.contains(&s.as_str())))
        || kernel_fns.iter().any(|&(fo, fc)| fo < open && close <= fc)
}

/// Rule `trace-hot`: no trace hooks inside a kernel loop (see
/// [`in_kernel_loop`]) — the per-block and per-cell paths where even a
/// disabled hook's atomic load multiplies by the block or cell count.
fn check_trace_hot(path: &str, lexed: &Lexed, exempt: &[(u32, u32)], report: &mut FileReport) {
    let toks = &lexed.tokens;
    let bodies = for_loop_bodies(toks);
    let kernel_fns = kernel_fn_bodies(toks);
    for w in 0..toks.len() {
        let Tok::Ident(name) = &toks[w].tok else {
            continue;
        };
        if !TRACE_HOOKS.contains(&name.as_str()) {
            continue;
        }
        // Hook *calls* only: `span(…)`, `trace_span(…)`, `pcmax_trace::instant(…)`.
        if toks.get(w + 1).map(|t| &t.tok) != Some(&Tok::Punct('(')) {
            continue;
        }
        if !in_kernel_loop(toks, &bodies, &kernel_fns, w) {
            continue;
        }
        let line = toks[w].line;
        if in_ranges(exempt, line) {
            continue;
        }
        match directive_for(&lexed.allows, "trace-hot", line) {
            Some(true) => {}
            Some(false) => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "trace-hot",
                message: "audit:allow(trace-hot) directive lacks a justification".to_string(),
            }),
            None => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "trace-hot",
                message: format!(
                    "trace/metric hook `{name}` inside a block-kernel loop; move it \
                     to chunk/level granularity outside the block loop"
                ),
            }),
        }
    }
}

/// Rule `alloc-hot`: no heap allocation inside a kernel loop. Shares the
/// loop scoping of [`check_trace_hot`]: a candidate is judged against its
/// *innermost* enclosing `for` body, so per-level buffer setup outside the
/// block loop stays legal.
fn check_alloc_hot(path: &str, lexed: &Lexed, exempt: &[(u32, u32)], report: &mut FileReport) {
    let toks = &lexed.tokens;
    let bodies = for_loop_bodies(toks);
    let kernel_fns = kernel_fn_bodies(toks);
    // (token index, line, human-readable description) of each allocation.
    let mut sites: Vec<(usize, u32, String)> = Vec::new();
    for w in 0..toks.len() {
        match &toks[w].tok {
            // `.push(…)` / `.to_vec()` / `.collect()` (incl. turbofish).
            Tok::Punct('.') => {
                let Some(Tok::Ident(name)) = toks.get(w + 1).map(|t| &t.tok) else {
                    continue;
                };
                if !ALLOC_METHODS.contains(&name.as_str()) {
                    continue;
                }
                let next = toks.get(w + 2).map(|t| &t.tok);
                if next == Some(&Tok::Punct('(')) || next == Some(&Tok::Punct(':')) {
                    sites.push((w + 1, toks[w + 1].line, format!(".{name}(…)")));
                }
            }
            // `Vec::new` / `Vec::with_capacity` / `Box::new`.
            Tok::Ident(head) if head == "Vec" || head == "Box" => {
                if toks.get(w + 1).map(|t| &t.tok) != Some(&Tok::Punct(':'))
                    || toks.get(w + 2).map(|t| &t.tok) != Some(&Tok::Punct(':'))
                {
                    continue;
                }
                let Some(Tok::Ident(ctor)) = toks.get(w + 3).map(|t| &t.tok) else {
                    continue;
                };
                if ctor == "new" || (head == "Vec" && ctor == "with_capacity") {
                    sites.push((w, toks[w].line, format!("{head}::{ctor}")));
                }
            }
            // `format!` / `vec!`.
            Tok::Ident(mac)
                if ALLOC_MACROS.contains(&mac.as_str())
                    && toks.get(w + 1).map(|t| &t.tok) == Some(&Tok::Punct('!')) =>
            {
                sites.push((w, toks[w].line, format!("{mac}!")));
            }
            _ => {}
        }
    }
    for (w, line, what) in sites {
        if !in_kernel_loop(toks, &bodies, &kernel_fns, w) {
            continue;
        }
        if in_ranges(exempt, line) {
            continue;
        }
        match directive_for(&lexed.allows, "alloc-hot", line) {
            Some(true) => {}
            Some(false) => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "alloc-hot",
                message: "audit:allow(alloc-hot) directive lacks a justification".to_string(),
            }),
            None => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "alloc-hot",
                message: format!(
                    "`{what}` allocates inside a block-kernel loop; reserve buffers \
                     outside the block loop (the kernel is zero-allocation by contract)"
                ),
            }),
        }
    }
}

/// Rule `guard-across-park`: a `MutexGuard` binding live across a condvar
/// wait or thread park. Purely lexical liveness: a guard is born at
/// `let [mut] NAME = ….lock(…)…;`, dies at the end of its block, at
/// `drop(NAME)`, at a shadowing re-`let`, or by being passed as the wait's
/// own first argument (the handoff pattern `guard = cv.wait(guard)`).
fn check_guard_across_park(
    path: &str,
    lexed: &Lexed,
    exempt: &[(u32, u32)],
    report: &mut FileReport,
) {
    let toks = &lexed.tokens;
    let mut depth = 0i32;
    // Live guards as (name, block depth at the binding).
    let mut guards: Vec<(String, i32)> = Vec::new();
    let flag = |line: u32, call: &str, held: &[(String, i32)], report: &mut FileReport| {
        if in_ranges(exempt, line) {
            return;
        }
        match directive_for(&lexed.allows, "guard-across-park", line) {
            Some(true) => {}
            Some(false) => report.violations.push(Violation {
                file: path.to_string(),
                line,
                rule: "guard-across-park",
                message: "audit:allow(guard-across-park) directive lacks a justification"
                    .to_string(),
            }),
            None => {
                let names: Vec<&str> = held.iter().map(|(n, _)| n.as_str()).collect();
                report.violations.push(Violation {
                    file: path.to_string(),
                    line,
                    rule: "guard-across-park",
                    message: format!(
                        "`{call}` while mutex guard(s) {names:?} are live; the sleeper \
                         holds a lock its waker may need — drop the guard first"
                    ),
                });
            }
        }
    };
    let mut w = 0usize;
    while w < toks.len() {
        match &toks[w].tok {
            Tok::Punct('{') => depth += 1,
            Tok::Punct('}') => {
                depth -= 1;
                guards.retain(|g| g.1 <= depth);
            }
            Tok::Ident(kw) if kw == "let" => {
                // `let [mut] NAME = <expr>;` — a guard binding iff the
                // expression calls `.lock(`. The lookahead only classifies
                // the binding; scanning then continues token-by-token, so
                // waits/parks *inside* the statement are still seen.
                let mut k = w + 1;
                if matches!(toks.get(k).map(|t| &t.tok), Some(Tok::Ident(m)) if m == "mut") {
                    k += 1;
                }
                let name = match toks.get(k).map(|t| &t.tok) {
                    Some(Tok::Ident(n))
                        if toks.get(k + 1).map(|t| &t.tok) == Some(&Tok::Punct('=')) =>
                    {
                        n.clone()
                    }
                    _ => {
                        w += 1;
                        continue;
                    }
                };
                let mut j = k + 2;
                let mut d = 0i32;
                let mut locks = false;
                while j < toks.len() {
                    match toks[j].tok {
                        Tok::Punct('{') | Tok::Punct('(') | Tok::Punct('[') => d += 1,
                        Tok::Punct('}') | Tok::Punct(')') | Tok::Punct(']') => d -= 1,
                        Tok::Punct(';') if d == 0 => break,
                        Tok::Punct('.')
                            if matches!(
                                toks.get(j + 1).map(|t| &t.tok),
                                Some(Tok::Ident(m)) if m == "lock"
                            ) && toks.get(j + 2).map(|t| &t.tok) == Some(&Tok::Punct('(')) =>
                        {
                            locks = true;
                        }
                        _ => {}
                    }
                    j += 1;
                }
                guards.retain(|g| g.0 != name); // shadowing kills the old binding
                if locks {
                    guards.push((name, depth));
                }
            }
            Tok::Ident(kw)
                if kw == "drop" && toks.get(w + 1).map(|t| &t.tok) == Some(&Tok::Punct('(')) =>
            {
                if let Some(Tok::Ident(name)) = toks.get(w + 2).map(|t| &t.tok) {
                    let name = name.clone();
                    guards.retain(|g| g.0 != name);
                }
            }
            Tok::Ident(kw)
                if (kw == "park" || kw == "park_timeout")
                    && toks.get(w + 1).map(|t| &t.tok) == Some(&Tok::Punct('('))
                    && !guards.is_empty() =>
            {
                flag(toks[w].line, kw, &guards, report);
            }
            Tok::Punct('.') => {
                let Some(Tok::Ident(m)) = toks.get(w + 1).map(|t| &t.tok) else {
                    w += 1;
                    continue;
                };
                if matches!(m.as_str(), "wait" | "wait_timeout" | "wait_while")
                    && toks.get(w + 2).map(|t| &t.tok) == Some(&Tok::Punct('('))
                {
                    // The wait's own guard argument is consumed, not held.
                    if let Some(Tok::Ident(arg)) = toks.get(w + 3).map(|t| &t.tok) {
                        let arg = arg.clone();
                        guards.retain(|g| g.0 != arg);
                    }
                    if !guards.is_empty() {
                        flag(toks[w + 1].line, &format!(".{m}(…)"), &guards, report);
                    }
                }
            }
            _ => {}
        }
        w += 1;
    }
}

/// Rule `artifacts`: build artifacts in the tracked-file list.
pub fn check_tracked_artifacts(tracked: &[String]) -> Vec<Violation> {
    let mut out = Vec::new();
    for path in tracked {
        let in_target = path
            .split('/')
            .any(|component| component == "target" || component == ".git");
        let bad_ext = [".profraw", ".rlib", ".rmeta", ".gcda", ".gcno", ".o"]
            .iter()
            .any(|ext| path.ends_with(ext));
        if in_target || bad_ext {
            out.push(Violation {
                file: path.clone(),
                line: 0,
                rule: "artifacts",
                message: "build artifact tracked in git; add to .gitignore and \
                          `git rm --cached`"
                    .to_string(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn no_allow() -> Allowlist {
        Allowlist::default()
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "
fn lib() { x.unwrap(); y.expect(\"m\"); }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { z.unwrap(); }
}
";
        let rep = lint_source("crates/foo/src/lib.rs", src, &no_allow());
        assert_eq!(rep.violations.len(), 2);
        assert!(rep.violations.iter().all(|v| v.rule == "unwrap"));
        assert_eq!(rep.violations[0].line, 2);
    }

    #[test]
    fn test_fn_attribute_exempts_function_body() {
        let src = "
#[test]
fn check() {
    a.unwrap();
}
fn lib() { b.unwrap(); }
";
        let rep = lint_source("crates/foo/src/lib.rs", src, &no_allow());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].line, 6);
    }

    #[test]
    fn cfg_not_test_does_not_exempt() {
        let src = "
#[cfg(not(test))]
fn lib() { a.unwrap(); }
";
        let rep = lint_source("crates/foo/src/lib.rs", src, &no_allow());
        assert_eq!(rep.violations.len(), 1);
    }

    #[test]
    fn allowlist_suppresses_unwrap_and_records_hit() {
        let allow =
            Allowlist::parse("unwrap crates/foo/src/lib.rs legacy, burn-down in PR 9").unwrap();
        let rep = lint_source("crates/foo/src/lib.rs", "fn f() { x.unwrap(); }", &allow);
        assert!(rep.violations.is_empty());
        assert_eq!(rep.allow_hits.len(), 1);
    }

    #[test]
    fn relaxed_needs_both_halves() {
        let bare = "fn f() { flag.store(true, Ordering::Relaxed); }";
        let rep = lint_source("crates/foo/src/lib.rs", bare, &no_allow());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "relaxed");

        let with_comment = "
fn f() {
    // audit:allow(relaxed): monotonic flag, no payload
    flag.store(true, Ordering::Relaxed);
}";
        let rep = lint_source("crates/foo/src/lib.rs", with_comment, &no_allow());
        assert_eq!(rep.violations.len(), 1, "directive alone is not enough");

        let allow = Allowlist::parse("relaxed crates/foo/src/lib.rs monotonic flag").unwrap();
        let rep = lint_source("crates/foo/src/lib.rs", with_comment, &allow);
        assert!(rep.violations.is_empty());

        let rep = lint_source("crates/foo/src/lib.rs", bare, &allow);
        assert_eq!(rep.violations.len(), 1, "allowlist alone is not enough");
    }

    #[test]
    fn narrowing_casts_only_checked_in_dp_files() {
        let src = "fn f(x: usize) -> u32 { x as u32 }";
        let rep = lint_source("crates/ptas/src/table.rs", src, &no_allow());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "cast");

        let rep = lint_source("crates/foo/src/lib.rs", src, &no_allow());
        assert!(rep.violations.is_empty());

        let justified = "
fn f(x: usize) -> u32 {
    // audit:allow(cast): x < 2^20 by the table guard
    x as u32
}";
        let rep = lint_source("crates/ptas/src/table.rs", justified, &no_allow());
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn widening_and_usize_casts_pass() {
        let src = "fn f(x: u16) -> u64 { let a = x as u64; let b = x as usize; a + b as u64 }";
        let rep = lint_source("crates/ptas/src/table.rs", src, &no_allow());
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn trace_hooks_inside_the_cell_kernel_loop_are_flagged() {
        let src = "
fn kernel(lo: usize, hi: usize) {
    for p in lo..hi {
        pcmax_trace::instant(\"cell\", p as u64);
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", src, &no_allow());
        assert_eq!(rep.violations.len(), 1);
        assert_eq!(rep.violations[0].rule, "trace-hot");
        assert_eq!(rep.violations[0].line, 4);
    }

    #[test]
    fn chunk_spans_around_the_walk_and_other_files_pass() {
        let src = "
fn kernel(w: usize, lo: usize, hi: usize) {
    let _chunk_span = pcmax_trace::span(\"chunk\", w as u64);
    for p in lo..hi {
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", src, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // Hooks in loops that touch no cell are fine.
        let cold = "
fn sweep(levels: usize) {
    for l in 1..levels {
        let _level_span = pcmax_trace::span(\"level\", l as u64);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", cold, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // The same hot pattern outside TRACE_HOT_FILES is not checked.
        let src_elsewhere = "
fn f(lo: usize, hi: usize) {
    for p in lo..hi {
        pcmax_trace::instant(\"cell\", 0);
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/foo/src/lib.rs", src_elsewhere, &no_allow());
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn trace_hot_respects_innermost_loop_and_justified_directives() {
        // Outer loop contains the hot inner loop; a hook between them is
        // judged against the *outer* loop, which has no direct cell access
        // outside the inner one — but the access hook is inside the outer
        // range too, so the outer loop counts as hot.
        let nested = "
fn sweep(levels: usize) {
    for l in 1..levels {
        let _level_span = pcmax_trace::span(\"level\", l as u64);
        for p in 0..10 {
            sync::trace_write(p);
        }
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", nested, &no_allow());
        assert_eq!(
            rep.violations.len(),
            1,
            "outer-loop hooks still sit on the per-level path when a cell \
             access is in the outer range: {:?}",
            rep.violations
        );

        let justified = "
fn kernel(lo: usize, hi: usize) {
    for p in lo..hi {
        // audit:allow(trace-hot): one-shot debug instant, removed before merge
        pcmax_trace::instant(\"cell\", p as u64);
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", justified, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn metric_recording_inside_the_cell_kernel_loop_is_flagged() {
        // `inc` / `inc_by` / `observe` are one relaxed add per call when
        // metrics are enabled — per-cell they dominate the kernel. All
        // three must flag inside a cell loop.
        let src = "
fn kernel(lo: usize, hi: usize) {
    for p in lo..hi {
        CELLS.inc();
        BYTES.inc_by(8);
        LATENCY.observe(p as u64);
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", src, &no_allow());
        let rules: Vec<_> = rep.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules, ["trace-hot"; 3],
            "inc/inc_by/observe in a cell loop must all flag: {:?}",
            rep.violations
        );

        // The sanctioned pattern: aggregate per chunk, record outside the
        // cell loop — one observe per chunk, not per cell.
        let per_chunk = "
fn kernel(lo: usize, hi: usize) {
    CHUNK_CELLS.observe((hi - lo) as u64);
    for p in lo..hi {
        sync::trace_write(p);
    }
    CHUNK_DONE.inc();
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", per_chunk, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // Field access without a call (`stats.observe` as a value) and
        // recording in non-hot files stay legal.
        let elsewhere = "
fn f(lo: usize, hi: usize) {
    for p in lo..hi {
        CELLS.inc();
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/foo/src/lib.rs", elsewhere, &no_allow());
        assert!(rep.violations.is_empty());
    }

    #[test]
    fn family_child_lookup_inside_the_cell_kernel_loop_is_flagged() {
        // `.with_label(…)` takes the registry mutex and may Box::leak a new
        // child — allocation plus contention on the per-cell path.
        let src = "
fn kernel(w: usize, lo: usize, hi: usize) {
    for p in lo..hi {
        BUSY.with_label(worker_label(w));
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", src, &no_allow());
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        assert_eq!(rep.violations[0].rule, "alloc-hot");
        assert!(rep.violations[0].message.contains("with_label"));

        // Resolving the child once before the loop is the sanctioned fix.
        let hoisted = "
fn kernel(w: usize, lo: usize, hi: usize) {
    let busy = BUSY.with_label(worker_label(w));
    for p in lo..hi {
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", hoisted, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn impl_for_and_hrtb_are_not_loops() {
        let src = "
impl Walker for Kernel {
    fn visit(&self) {
        pcmax_trace::instant(\"setup\", 0);
        sync::trace_write(0);
    }
}
fn hrtb<F: for<'a> Fn(&'a u32)>(f: F) {
    pcmax_trace::instant(\"setup\", 0);
    sync::trace_write(0);
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", src, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn allocation_in_the_cell_kernel_loop_is_flagged() {
        let src = "
fn kernel(lo: usize, hi: usize) {
    let mut out = Vec::new();
    for p in lo..hi {
        out.push(p);
        sync::trace_write(p);
        let copy = scratch.to_vec();
        let s = format!(\"cell {p}\");
        let boxed = Box::new(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", src, &no_allow());
        let rules: Vec<_> = rep.violations.iter().map(|v| v.rule).collect();
        assert_eq!(
            rules, ["alloc-hot"; 4],
            "push/to_vec/format!/Box::new in a cell loop must all flag: {:?}",
            rep.violations
        );
        // `Vec::new` *outside* the loop (line 3) is the sanctioned pattern.
        assert!(rep.violations.iter().all(|v| v.line >= 5));
    }

    #[test]
    fn alloc_hot_scopes_to_the_innermost_kernel_loop_and_other_files() {
        // Allocation in an outer loop whose *inner* loop touches cells is
        // judged against the outer body — which still contains the access
        // hook, so per-level setup must sit outside any loop or carry a
        // directive.
        let per_level_setup = "
fn sweep(levels: usize) {
    let mut buf = Vec::with_capacity(64);
    for l in 1..levels {
        buf.clear();
        for p in 0..10 {
            sync::trace_write(p);
        }
    }
}";
        let rep = lint_source(
            "crates/parallel/src/wavefront.rs",
            per_level_setup,
            &no_allow(),
        );
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // Loops that touch no cell may allocate freely.
        let cold = "
fn collect_levels(levels: usize) -> Vec<usize> {
    let mut out = Vec::new();
    for l in 0..levels {
        out.push(l);
    }
    out
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", cold, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // Files outside TRACE_HOT_FILES are not checked.
        let hot_elsewhere = "
fn f(lo: usize, hi: usize) {
    for p in lo..hi {
        let v = vec![p];
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/foo/src/lib.rs", hot_elsewhere, &no_allow());
        assert!(rep.violations.is_empty());

        // A justified directive overrides.
        let justified = "
fn kernel(lo: usize, hi: usize) {
    for p in lo..hi {
        // audit:allow(alloc-hot): one-shot diagnostic buffer, cold path
        let v = vec![p];
        sync::trace_write(p);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", justified, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn hooks_and_allocations_in_the_block_kernel_shape_are_flagged() {
        // The chunk's block loop: a hook or an allocation per block sits on
        // the hot path even though no cell access appears in the loop.
        let block_loop = "
fn kernel(w: usize, lo: usize, hi: usize) {
    let _chunk_span = pcmax_trace::span(\"chunk\", w as u64);
    for at in lo..hi {
        pcmax_trace::instant(\"block\", at as u64);
        let blocks = vec![at];
        fill_block(at);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", block_loop, &no_allow());
        let rules: Vec<_> = rep.violations.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            rules,
            [("trace-hot", 5), ("alloc-hot", 6)],
            "{:?}",
            rep.violations
        );

        // Inside the block fill every loop is per cell or per transition —
        // including a run loop that carries no access hook of its own.
        let fill = "
fn fill_block(acc: &mut [u16], lanes: &[u16]) {
    acc.fill(0);
    for (best, &lane) in acc.iter_mut().zip(lanes) {
        CELLS.inc();
        let copy = lanes.to_vec();
        *best = (*best).min(lane);
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", fill, &no_allow());
        let rules: Vec<_> = rep.violations.iter().map(|v| (v.rule, v.line)).collect();
        assert_eq!(
            rules,
            [("trace-hot", 5), ("alloc-hot", 6)],
            "{:?}",
            rep.violations
        );

        // Outside the kernel function a loop without a marker stays cold.
        let cold = "
fn plan(acc: &mut Vec<u16>, lanes: &[u16]) {
    for &lane in lanes {
        acc.push(lane);
        CELLS.inc();
    }
}";
        let rep = lint_source("crates/parallel/src/wavefront.rs", cold, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn guard_live_across_wait_or_park_is_flagged() {
        // Holding guard `a` while waiting on a condvar with guard `b`: the
        // sleeper keeps `a` locked while parked — flagged.
        let two_guards = "
fn f(ma: &Mutex<u32>, mb: &Mutex<u32>, cv: &Condvar) {
    let a = ma.lock();
    let b = mb.lock();
    let b = cv.wait(b);
}";
        let rep = lint_source("crates/foo/src/lib.rs", two_guards, &no_allow());
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        assert_eq!(rep.violations[0].rule, "guard-across-park");
        assert!(rep.violations[0].message.contains("\"a\""));

        let parked = "
fn f(m: &Mutex<u32>) {
    let g = m.lock();
    std::thread::park();
}";
        let rep = lint_source("crates/foo/src/lib.rs", parked, &no_allow());
        assert_eq!(rep.violations.len(), 1, "{:?}", rep.violations);
        assert_eq!(rep.violations[0].rule, "guard-across-park");
    }

    #[test]
    fn guard_handoff_drop_and_scope_exit_are_clean() {
        // The pool's actual pattern: the wait consumes its own guard.
        let handoff = "
fn f(m: &Mutex<u32>, cv: &Condvar) {
    let mut ctl = m.lock();
    while !ctl.ready {
        ctl = cv.wait(ctl);
    }
}";
        let rep = lint_source("crates/foo/src/lib.rs", handoff, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // Explicit drop before parking is the sanctioned fix.
        let dropped = "
fn f(m: &Mutex<u32>) {
    let g = m.lock();
    drop(g);
    std::thread::park();
}";
        let rep = lint_source("crates/foo/src/lib.rs", dropped, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // A guard whose block closed before the park is dead.
        let scoped = "
fn f(m: &Mutex<u32>) {
    {
        let g = m.lock();
        *g += 1;
    }
    std::thread::park();
}";
        let rep = lint_source("crates/foo/src/lib.rs", scoped, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);

        // The sync seam itself is exempt: it implements the handoff.
        let seam = "
fn wait_impl(m: &Mutex<u32>, cv: &Condvar) {
    let g = m.lock();
    std::thread::park();
}";
        let rep = lint_source("crates/parallel/src/sync.rs", seam, &no_allow());
        assert!(rep.violations.is_empty(), "{:?}", rep.violations);
    }

    #[test]
    fn artifact_rule_flags_target_and_profraw() {
        let tracked = vec![
            "target/debug/foo.rlib".to_string(),
            "crates/core/src/lib.rs".to_string(),
            "perf/data.profraw".to_string(),
        ];
        let v = check_tracked_artifacts(&tracked);
        assert_eq!(v.len(), 2);
    }

    #[test]
    fn allowlist_rejects_reasonless_entries() {
        assert!(Allowlist::parse("unwrap crates/foo/src/lib.rs").is_err());
        assert!(Allowlist::parse("unwrap").is_err());
        assert!(Allowlist::parse("# comment\n\nunwrap a/b.rs why not").is_ok());
    }

    #[test]
    fn stale_entries_detected() {
        let allow = Allowlist::parse("unwrap a.rs x\nunwrap b.rs y").unwrap();
        let used = vec![("unwrap".to_string(), "a.rs".to_string())];
        let stale = allow.stale(&used);
        assert_eq!(stale.len(), 1);
        assert_eq!(stale[0].path, "b.rs");
    }

    #[test]
    fn doc_examples_never_trigger() {
        let src = "
/// ```
/// let x = foo().unwrap();
/// ```
fn documented() {}
";
        let rep = lint_source("crates/foo/src/lib.rs", src, &no_allow());
        assert!(rep.violations.is_empty());
    }
}
