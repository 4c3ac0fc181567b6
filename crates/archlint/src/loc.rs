//! Non-test code lines of the tracked crates — the size figure ROADMAP
//! aim 2 tracks like a benchmark, printed on every archlint run.
//!
//! The count is defined to match this shell pipeline exactly, so a figure
//! can be checked on any commit without building the linter:
//!
//! ```text
//! for f in crates/core/src/*.rs; do [ $(basename $f) = layout.rs ] || \
//!   awk '/^#\[cfg\(test\)\]/{getline n; if (n ~ /^mod tests/) exit; next} {print}' $f; \
//! done | grep -v '^\s*//' | grep -v '^\s*$' | wc -l
//! ```
//!
//! That is: the `*.rs` files directly in `src/` (not subdirectories),
//! except `layout.rs` (test-only layout pins); each file up to its
//! `#[cfg(test)]` + `mod tests` pair; a `#[cfg(test)]` line followed by
//! anything else is dropped together with that next line; comment lines
//! (including doc comments) and blank lines do not count.

use std::path::Path;

/// The crates whose size is reported, as repo-relative directories.
pub const TRACKED: [&str; 2] = ["crates/core", "crates/server"];

/// Non-test code lines of one source file (see the module docs).
///
/// # Examples
///
/// ```
/// let src = "//! docs\nfn f() {}\n\n#[cfg(test)]\nmod layout;\n#[cfg(test)]\nmod tests {\n    fn t() {}\n}\n";
/// assert_eq!(stack2d_archlint::loc::code_lines(src), 1);
/// ```
pub fn code_lines(src: &str) -> usize {
    let mut count = 0;
    let mut lines = src.lines();
    while let Some(line) = lines.next() {
        if line.starts_with("#[cfg(test)]") {
            match lines.next() {
                Some(next) if next.starts_with("mod tests") => break,
                _ => continue,
            }
        }
        let code = line.trim_start();
        if !code.is_empty() && !code.starts_with("//") {
            count += 1;
        }
    }
    count
}

/// Non-test code lines of the crate at `root/krate`, summed over
/// `src/*.rs` without `layout.rs`; `None` when it has no `src` directory.
pub fn crate_code_lines(root: &Path, krate: &str) -> Option<usize> {
    let entries = std::fs::read_dir(root.join(krate).join("src")).ok()?;
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let counted = path.is_file()
            && path.extension().is_some_and(|e| e == "rs")
            && path.file_name().is_some_and(|n| n != "layout.rs");
        if counted {
            total += std::fs::read_to_string(&path).map_or(0, |src| code_lines(&src));
        }
    }
    Some(total)
}

/// `(crate, lines)` for every [`TRACKED`] crate present under `root`.
pub fn tracked(root: &Path) -> Vec<(&'static str, usize)> {
    TRACKED.iter().filter_map(|&k| Some((k, crate_code_lines(root, k)?))).collect()
}
