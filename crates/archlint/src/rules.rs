//! The rule registry: file-scoped token rules over the workspace.
//!
//! Each rule sees one file as a lexed token stream plus two masks the
//! grep wall could never compute: which tokens are trivia (comments,
//! strings — the lexer's job) and which live inside `#[cfg(test)]` /
//! `#[test]` items (test code may use raw primitives; it never runs under
//! `--cfg model`). Findings can be suppressed two ways, both explicit:
//!
//! * **per file** via `archlint.toml` (`[allow.<rule>] "path" = "reason"`);
//! * **per site** via a comment on the finding's line or the line above:
//!   `// archlint: allow(<rule>) — reason`.

use crate::config::Config;
use crate::lexer::{lex, Token, TokenKind};
use std::collections::BTreeMap;

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub message: String,
}

/// A registered rule.
pub struct Rule {
    pub name: &'static str,
    pub summary: &'static str,
    /// Path filter (repo-relative, `/`-separated).
    pub applies: fn(&str) -> bool,
    pub check: fn(&FileCtx<'_>, &Config, &mut Vec<Finding>),
}

/// Every rule, in report order. The first four are the ported CI greps;
/// the last three are new (inexpressible as greps).
pub fn registry() -> &'static [Rule] {
    &[
        Rule {
            name: "facade-only-sync",
            summary: "synchronization in model-checked crates goes through stack2d::sync",
            applies: |p| {
                const CRATES: [&str; 7] =
                    ["core", "adaptive", "baselines", "telemetry", "quality", "workload", "server"];
                p != "crates/core/src/sync.rs"
                    && CRATES.iter().any(|c| p.starts_with(&format!("crates/{c}/src/")))
            },
            check: check_facade_only_sync,
        },
        Rule {
            name: "clock-via-telemetry",
            summary: "core reads time only through telemetry::clock::now_ns",
            applies: |p| p.starts_with("crates/core/src/") && p != "crates/core/src/telemetry.rs",
            check: check_clock_via_telemetry,
        },
        Rule {
            name: "no-bespoke-sweeps",
            summary: "window sweeps live in engine.rs, not in structure modules",
            applies: |p| {
                matches!(
                    p,
                    "crates/core/src/stack.rs"
                        | "crates/core/src/queue2d.rs"
                        | "crates/core/src/counter2d.rs"
                        | "crates/core/src/window2d.rs"
                )
            },
            check: check_no_bespoke_sweeps,
        },
        Rule {
            name: "builder-only-construction",
            summary: "examples and harness bins construct through the builder",
            applies: |p| p.starts_with("examples/") || p.starts_with("crates/harness/src/bin/"),
            check: check_builder_only_construction,
        },
        Rule {
            name: "safety-comment-coverage",
            summary: "every unsafe block/fn/impl carries a SAFETY comment (vendor included)",
            applies: |p| {
                (p.starts_with("crates/") && p.contains("/src/"))
                    || (p.starts_with("vendor/") && p.contains("/src/"))
                    || p.starts_with("src/")
            },
            check: check_safety_comment_coverage,
        },
        Rule {
            name: "deprecation-expiry",
            summary: "deprecated shims name their PR and live at most one PR",
            applies: |p| !p.starts_with("vendor/"),
            check: check_deprecation_expiry,
        },
        Rule {
            name: "no-panic-in-hot-path",
            summary: "no unwrap/expect/panic! in hot-path modules outside tests",
            applies: |p| {
                matches!(
                    p,
                    "crates/core/src/engine.rs"
                        | "crates/core/src/substack.rs"
                        | "crates/core/src/window.rs"
                        | "crates/core/src/window2d.rs"
                        | "crates/core/src/queue2d.rs"
                        | "crates/core/src/counter2d.rs"
                        | "crates/server/src/protocol.rs"
                        | "crates/server/src/frame.rs"
                        | "crates/server/src/conn.rs"
                )
            },
            check: check_no_panic_in_hot_path,
        },
        Rule {
            name: "no-raw-alloc-in-hot-path",
            summary: "per-op allocation in the engine core goes through the node pool",
            // The two modules every operation funnels through. The pool
            // itself and the structure facades (which allocate only at
            // construction/retune time) are deliberately out of scope.
            applies: |p| matches!(p, "crates/core/src/engine.rs" | "crates/core/src/substack.rs"),
            check: check_no_raw_alloc_in_hot_path,
        },
    ]
}

/// Rule names, for config validation.
pub fn rule_names() -> Vec<&'static str> {
    registry().iter().map(|r| r.name).collect()
}

// ---------------------------------------------------------------------------
// File context
// ---------------------------------------------------------------------------

/// One file, lexed and masked, ready for rules.
pub struct FileCtx<'a> {
    /// Repo-relative path, `/`-separated.
    pub path: String,
    pub src: &'a str,
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-trivia tokens, in order.
    pub code: Vec<usize>,
    /// Per-`code`-index: inside a `#[cfg(test)]` / `#[test]` item.
    pub in_test: Vec<bool>,
    /// Comment tokens by starting line.
    comments_by_line: BTreeMap<u32, Vec<usize>>,
    /// Lines that contain at least one code token; value is the index (in
    /// `tokens`) of the first code token on that line.
    first_code_on_line: BTreeMap<u32, usize>,
}

impl<'a> FileCtx<'a> {
    pub fn new(path: String, src: &'a str) -> Self {
        let tokens = lex(src);
        let code: Vec<usize> = (0..tokens.len()).filter(|&i| !tokens[i].is_trivia()).collect();
        let mut comments_by_line: BTreeMap<u32, Vec<usize>> = BTreeMap::new();
        let mut first_code_on_line: BTreeMap<u32, usize> = BTreeMap::new();
        for (i, t) in tokens.iter().enumerate() {
            if t.is_trivia() {
                comments_by_line.entry(t.line).or_default().push(i);
            } else {
                first_code_on_line.entry(t.line).or_insert(i);
            }
        }
        let in_test = test_mask(src, &tokens, &code);
        FileCtx { path, src, tokens, code, in_test, comments_by_line, first_code_on_line }
    }

    /// Text of the `ci`-th code token.
    pub fn code_text(&self, ci: usize) -> &'a str {
        self.tokens[self.code[ci]].text(self.src)
    }

    pub fn code_line(&self, ci: usize) -> u32 {
        self.tokens[self.code[ci]].line
    }

    /// Whether the code tokens starting at `ci` spell out `pat`.
    pub fn seq_at(&self, ci: usize, pat: &[&str]) -> bool {
        pat.len() <= self.code.len() - ci
            && pat.iter().enumerate().all(|(k, p)| self.code_text(ci + k) == *p)
    }

    /// Emits a finding unless a per-site allow comment covers it.
    fn emit(&self, rule: &'static str, line: u32, message: String, out: &mut Vec<Finding>) {
        if self.site_allowed(rule, line) {
            return;
        }
        out.push(Finding { rule, file: self.path.clone(), line, message });
    }

    /// `// archlint: allow(<rule>)` on the finding's line or in the
    /// comment block directly above it.
    fn site_allowed(&self, rule: &str, line: u32) -> bool {
        let needle = format!("archlint: allow({rule})");
        self.comment_block_above(line, &|t: &Token| t.text(self.src).contains(&needle))
    }

    /// Whether a satisfying SAFETY comment precedes (or trails on) `line`.
    ///
    /// Accepted: a comment containing `SAFETY:` on `line` itself, or in
    /// the contiguous comment/attribute run directly above. With
    /// `accept_doc`, a doc comment containing `# Safety` also satisfies.
    fn safety_comment_above(&self, line: u32, accept_doc: bool) -> bool {
        self.comment_block_above(line, &|t: &Token| {
            t.text(self.src).contains("SAFETY:")
                || (accept_doc && t.is_doc(self.src) && t.text(self.src).contains("# Safety"))
        })
    }

    /// Runs `pred` over the comments on `line` and over the contiguous
    /// run of comment- or attribute-only lines directly above it (code or
    /// blank lines stop the walk — a detached comment does not bind).
    fn comment_block_above(&self, line: u32, pred: &dyn Fn(&Token) -> bool) -> bool {
        let line_ok = |l: u32| {
            self.comments_by_line
                .get(&l)
                .is_some_and(|cs| cs.iter().any(|&i| pred(&self.tokens[i])))
        };
        if line_ok(line) {
            return true;
        }
        let mut l = line.saturating_sub(1);
        while l >= 1 {
            if line_ok(l) {
                return true;
            }
            let has_comment = self.comments_by_line.contains_key(&l);
            match self.first_code_on_line.get(&l) {
                // Attribute lines (`#[inline]`) sit between doc and item.
                Some(&i) if self.tokens[i].text(self.src) == "#" => {}
                Some(_) => return false,
                None if has_comment => {}
                // Blank line: the comment above no longer binds.
                None => return false,
            }
            l -= 1;
        }
        false
    }
}

/// Marks code tokens inside `#[cfg(test)]` / `#[test]` items.
fn test_mask(src: &str, tokens: &[Token], code: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    let text = |ci: usize| tokens[code[ci]].text(src);
    let mut ci = 0usize;
    while ci < code.len() {
        if text(ci) != "#" || ci + 1 >= code.len() || text(ci + 1) != "[" {
            ci += 1;
            continue;
        }
        // Scan the attribute body up to its matching `]`.
        let mut j = ci + 2;
        let mut depth = 1usize;
        let mut idents: Vec<&str> = Vec::new();
        while j < code.len() && depth > 0 {
            match text(j) {
                "[" => depth += 1,
                "]" => depth -= 1,
                t => {
                    if tokens[code[j]].kind == TokenKind::Ident {
                        idents.push(t);
                    }
                }
            }
            j += 1;
        }
        let is_test_attr = match idents.first() {
            Some(&"test") => true,
            Some(&"cfg") => {
                idents.contains(&"test") && !idents.windows(2).any(|w| w == ["not", "test"])
            }
            _ => false,
        };
        if !is_test_attr {
            ci = j;
            continue;
        }
        // Skip any further attributes, then mask the next item: up to a
        // `;` at depth 0, or through a top-level `{...}` body.
        let mut k = j;
        while k + 1 < code.len() && text(k) == "#" && text(k + 1) == "[" {
            let mut d = 1usize;
            k += 2;
            while k < code.len() && d > 0 {
                match text(k) {
                    "[" => d += 1,
                    "]" => d -= 1,
                    _ => {}
                }
                k += 1;
            }
        }
        let item_start = ci;
        let mut brace = 0usize;
        while k < code.len() {
            match text(k) {
                "{" => brace += 1,
                "}" => {
                    brace = brace.saturating_sub(1);
                    if brace == 0 {
                        break;
                    }
                }
                ";" if brace == 0 => break,
                _ => {}
            }
            k += 1;
        }
        for m in mask.iter_mut().take((k + 1).min(code.len())).skip(item_start) {
            *m = true;
        }
        ci = k + 1;
    }
    mask
}

// ---------------------------------------------------------------------------
// Ported grep rules
// ---------------------------------------------------------------------------

/// Denied token paths, with the message each produces.
const SYNC_DENIED: &[(&[&str], &str)] = &[
    (&["std", "::", "sync", "::"], "direct std::sync path (route it through stack2d::sync)"),
    (&["core", "::", "sync", "::"], "direct core::sync path (route it through stack2d::sync)"),
    (&["parking_lot"], "direct parking_lot use (stack2d::sync re-exports Mutex/MutexGuard)"),
    (
        &["std", "::", "thread", "::", "spawn"],
        "direct std::thread::spawn (use stack2d::sync::thread)",
    ),
    (
        &["std", "::", "thread", "::", "sleep"],
        "direct std::thread::sleep (use stack2d::sync::thread)",
    ),
    (
        &["std", "::", "thread", "::", "yield_now"],
        "direct std::thread::yield_now (use stack2d::sync::thread)",
    ),
    (
        &["use", "std", "::", "thread", ";"],
        "bare `use std::thread` hides which functions are called; spell paths out or use the facade",
    ),
];

fn check_facade_only_sync(ctx: &FileCtx<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
    for ci in 0..ctx.code.len() {
        if ctx.in_test[ci] {
            continue;
        }
        for (pat, why) in SYNC_DENIED {
            if ctx.seq_at(ci, pat) {
                ctx.emit("facade-only-sync", ctx.code_line(ci), (*why).to_string(), out);
                break;
            }
        }
    }
}

fn check_clock_via_telemetry(ctx: &FileCtx<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
    for ci in 0..ctx.code.len() {
        if !ctx.in_test[ci] && ctx.seq_at(ci, &["std", "::", "time", "::", "Instant"]) {
            ctx.emit(
                "clock-via-telemetry",
                ctx.code_line(ci),
                "direct std::time::Instant in core (use telemetry::clock::now_ns; under --cfg model it must be a logical tick)".to_string(),
                out,
            );
        }
    }
}

fn check_no_bespoke_sweeps(ctx: &FileCtx<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
    for ci in 0..ctx.code.len() {
        if !ctx.in_test[ci] && ctx.seq_at(ci, &["for", "step", "in", "0", "..", "width"]) {
            ctx.emit(
                "no-bespoke-sweeps",
                ctx.code_line(ci),
                "descriptor-sweep loop outside engine.rs (use the unified search engine)"
                    .to_string(),
                out,
            );
        }
    }
}

fn check_builder_only_construction(ctx: &FileCtx<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
    const DENIED: &[(&[&str], &str)] = &[
        (
            &["Params", "::", "new", "("],
            "hand-built Params (use the builder: .width/.depth/.shift or a preset)",
        ),
        (&["ElasticRunner", "::", "spawn"], "manual runner wiring (use .adaptive(...) / Managed)"),
    ];
    for ci in 0..ctx.code.len() {
        if ctx.in_test[ci] {
            continue;
        }
        for (pat, why) in DENIED {
            if ctx.seq_at(ci, pat) {
                ctx.emit("builder-only-construction", ctx.code_line(ci), (*why).to_string(), out);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// New rules (inexpressible as greps)
// ---------------------------------------------------------------------------

fn check_safety_comment_coverage(ctx: &FileCtx<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
    for ci in 0..ctx.code.len() {
        if ctx.in_test[ci] || ctx.code_text(ci) != "unsafe" || ci + 1 >= ctx.code.len() {
            continue;
        }
        let line = ctx.code_line(ci);
        let (what, accept_doc) = match ctx.code_text(ci + 1) {
            // `unsafe fn name(...)` is a declaration; `unsafe fn(...)` is
            // a function-pointer *type* and carries no obligation site.
            "fn" => {
                if ci + 2 < ctx.code.len() && ctx.tokens[ctx.code[ci + 2]].kind == TokenKind::Ident
                {
                    ("unsafe fn", true)
                } else {
                    continue;
                }
            }
            "impl" => ("unsafe impl", true),
            "trait" => ("unsafe trait", true),
            "{" => ("unsafe block", false),
            _ => continue,
        };
        if !ctx.safety_comment_above(line, accept_doc) {
            let hint = if accept_doc {
                "precede it with `// SAFETY:` or a `# Safety` doc section"
            } else {
                "precede it with a `// SAFETY:` comment stating the obligation"
            };
            ctx.emit(
                "safety-comment-coverage",
                line,
                format!("{what} without a SAFETY comment ({hint})"),
                out,
            );
        }
    }
}

fn check_deprecation_expiry(ctx: &FileCtx<'_>, cfg: &Config, out: &mut Vec<Finding>) {
    let mut ci = 0usize;
    while ci + 2 < ctx.code.len() {
        if !(ctx.code_text(ci) == "#"
            && ctx.code_text(ci + 1) == "["
            && ctx.code_text(ci + 2) == "deprecated")
        {
            ci += 1;
            continue;
        }
        let line = ctx.code_line(ci);
        // Collect string literals inside the attribute.
        let mut depth = 1usize;
        let mut j = ci + 2;
        let mut note = String::new();
        while j < ctx.code.len() && depth > 0 {
            match ctx.code_text(j) {
                "[" => depth += 1,
                "]" => depth -= 1,
                t => {
                    if matches!(ctx.tokens[ctx.code[j]].kind, TokenKind::Str | TokenKind::RawStr) {
                        note.push_str(t);
                        note.push(' ');
                    }
                }
            }
            j += 1;
        }
        match pr_in_note(&note) {
            None => ctx.emit(
                "deprecation-expiry",
                line,
                "deprecated shim must name its PR in the note (e.g. note = \"... since PR 8; remove next PR\")".to_string(),
                out,
            ),
            Some(pr) if cfg.current_pr >= pr + 2 => ctx.emit(
                "deprecation-expiry",
                line,
                format!(
                    "shim deprecated in PR {pr} has outlived the one-PR window (current PR is {}; remove it)",
                    cfg.current_pr
                ),
                out,
            ),
            Some(_) => {}
        }
        ci = j;
    }
}

/// Extracts the first `PR <n>` mention from a deprecation note.
fn pr_in_note(note: &str) -> Option<u32> {
    let bytes = note.as_bytes();
    for (idx, _) in note.match_indices("PR") {
        let mut k = idx + 2;
        while k < bytes.len() && bytes[k] == b' ' {
            k += 1;
        }
        let digits: String = note[k..].chars().take_while(|c| c.is_ascii_digit()).collect();
        if let Ok(n) = digits.parse() {
            return Some(n);
        }
    }
    None
}

fn check_no_panic_in_hot_path(ctx: &FileCtx<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
    for ci in 0..ctx.code.len() {
        if ctx.in_test[ci] {
            continue;
        }
        let t = ctx.code_text(ci);
        let prev_dot = ci > 0 && ctx.code_text(ci - 1) == ".";
        let next = |k: usize| ctx.code.get(ci + k).map(|&i| ctx.tokens[i].text(ctx.src));
        let hit = match t {
            "unwrap" | "expect" => prev_dot && next(1) == Some("("),
            "panic" => next(1) == Some("!"),
            _ => false,
        };
        if hit {
            ctx.emit(
                "no-panic-in-hot-path",
                ctx.code_line(ci),
                format!(
                    "`{t}` in hot-path module outside tests (return the error, or allow the site with a justified `// archlint: allow(no-panic-in-hot-path)`)"
                ),
                out,
            );
        }
    }
}

fn check_no_raw_alloc_in_hot_path(ctx: &FileCtx<'_>, _cfg: &Config, out: &mut Vec<Finding>) {
    // The hot-path memory overhaul (DESIGN.md §14) routes every per-op
    // node and descriptor through `pool::alloc` / `pool::recycle`; a raw
    // `Box::new` or a growable `Vec` sneaking back into the engine core
    // reintroduces a malloc per operation — exactly the cost PR 10
    // removed. `Box::from_raw` stays legal (it is the deallocation side),
    // and pre-sized batch buffers may be allowed per site.
    for ci in 0..ctx.code.len() {
        if ctx.in_test[ci] {
            continue;
        }
        let t = ctx.code_text(ci);
        let prev_dot = ci > 0 && ctx.code_text(ci - 1) == ".";
        let next = |k: usize| ctx.code.get(ci + k).map(|&i| ctx.tokens[i].text(ctx.src));
        let hit = match t {
            "Box" => ctx.seq_at(ci, &["Box", "::", "new"]),
            "Vec" => {
                ctx.seq_at(ci, &["Vec", "::", "new"])
                    || ctx.seq_at(ci, &["Vec", "::", "with_capacity"])
            }
            "vec" => next(1) == Some("!"),
            // A reallocating append: growable buffers on the op path must
            // be pre-sized and justified.
            "push" => prev_dot && next(1) == Some("("),
            _ => false,
        };
        if hit {
            ctx.emit(
                "no-raw-alloc-in-hot-path",
                ctx.code_line(ci),
                format!(
                    "`{t}` allocates on the hot path (route nodes through pool::alloc/recycle, or allow the site with a justified `// archlint: allow(no-raw-alloc-in-hot-path)`)"
                ),
                out,
            );
        }
    }
}
