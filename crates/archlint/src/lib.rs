//! `stack2d-archlint` — a token-aware architecture linter for this
//! workspace, replacing the CI grep wall (DESIGN.md §12).
//!
//! The repo's architecture invariants (all synchronization through the
//! `stack2d::sync` facade, clock reads through `telemetry::clock`, window
//! sweeps only in the engine, builder-only construction in user-facing
//! code) were enforced by four `grep -rnE` deny-steps in CI. Greps match
//! bytes, not Rust: they fire on doc comments and strings (so each step
//! grew fragile `grep -v` exemption pipes) and they miss everything a
//! token can hide (`use parking_lot::Mutex` in a crate the grep didn't
//! scan). This crate replaces them with a real lexer
//! ([`lexer`]) and a rule engine ([`rules`]) running file-scoped token
//! rules over the workspace — plus three rules a grep cannot express at
//! all: SAFETY-comment coverage of `unsafe` sites (vendor included),
//! one-PR expiry of `#[deprecated]` shims, and a panic ban in the
//! hot-path modules.
//!
//! Exemptions are explicit and reviewed: per-file in `archlint.toml`
//! ([`config`]), per-site via `// archlint: allow(<rule>)` comments.
//!
//! # Examples
//!
//! ```
//! use stack2d_archlint::{rules::FileCtx, rules::registry, config::Config};
//!
//! let cfg = Config::parse("current_pr = 8\n", &stack2d_archlint::rules::rule_names()).unwrap();
//! let src = "// parking_lot in a comment is fine\nuse parking_lot::Mutex;\n";
//! let ctx = FileCtx::new("crates/core/src/stack.rs".into(), src);
//! let rule = &registry()[0];
//! let mut findings = Vec::new();
//! (rule.check)(&ctx, &cfg, &mut findings);
//! assert_eq!(findings.len(), 1); // the import, not the comment
//! assert_eq!(findings[0].line, 2);
//! ```

pub mod config;
pub mod lexer;
pub mod loc;
pub mod report;
pub mod rules;

use config::{Config, ConfigError};
use rules::{registry, rule_names, FileCtx, Finding};
use std::path::{Path, PathBuf};

/// A completed scan.
#[derive(Debug)]
pub struct Scan {
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
    /// Non-test code lines per tracked crate ([`loc::tracked`]).
    pub code_lines: Vec<(&'static str, usize)>,
}

/// Runs every rule (or just `only`, if non-empty) over the tree at
/// `root`, which must contain an `archlint.toml`.
pub fn run(root: &Path, only: &[String]) -> Result<Scan, ConfigError> {
    let names = rule_names();
    for o in only {
        if !names.contains(&o.as_str()) {
            return Err(ConfigError(format!("--rule {o}: unknown rule")));
        }
    }
    let cfg = Config::load(root, &names)?;
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    for file in workspace_files(root) {
        let rel = file
            .strip_prefix(root)
            .expect("walker yields paths under root")
            .to_string_lossy()
            .replace('\\', "/");
        let active: Vec<_> = registry()
            .iter()
            .filter(|r| (only.is_empty() || only.iter().any(|o| o == r.name)) && (r.applies)(&rel))
            .filter(|r| !cfg.is_allowed(r.name, &rel))
            .collect();
        if active.is_empty() {
            continue;
        }
        let src = match std::fs::read_to_string(&file) {
            Ok(s) => s,
            // Non-UTF-8 or unreadable: nothing token-shaped to check.
            Err(_) => continue,
        };
        files_scanned += 1;
        let ctx = FileCtx::new(rel, &src);
        for rule in active {
            (rule.check)(&ctx, &cfg, &mut findings);
        }
    }
    findings.sort_by(|a, b| (a.rule, &a.file, a.line).cmp(&(b.rule, &b.file, b.line)));
    Ok(Scan { findings, files_scanned, code_lines: loc::tracked(root) })
}

/// Collects the `.rs` files the rules may apply to: everything under
/// `crates/`, `src/`, `examples/`, `tests/` and `vendor/`, skipping build
/// output and the linter's own fixture mini-trees
/// (`crates/archlint/fixtures` holds deliberately-bad files).
fn workspace_files(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for top in ["crates", "src", "examples", "tests", "vendor"] {
        walk(&root.join(top), root, &mut out);
    }
    out.sort();
    out
}

fn walk(dir: &Path, root: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        let rel = path.strip_prefix(root).unwrap_or(&path).to_string_lossy().replace('\\', "/");
        if path.is_dir() {
            if rel == "crates/archlint/fixtures" || rel.ends_with("/target") || rel == "target" {
                continue;
            }
            walk(&path, root, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Finds the tree to lint: the first ancestor of `start` (inclusive)
/// containing an `archlint.toml`.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        if d.join("archlint.toml").is_file() {
            return Some(d.to_path_buf());
        }
        dir = d.parent();
    }
    None
}
