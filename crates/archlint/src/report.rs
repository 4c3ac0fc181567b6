//! Finding output: an aligned human table and a machine-readable JSON
//! document (hand-rolled — the crate is dependency-free).

use crate::rules::{registry, Finding};
use std::collections::BTreeMap;

/// Renders the human table (findings grouped by rule, aligned columns)
/// plus a one-line summary.
pub fn human(findings: &[Finding], files_scanned: usize) -> String {
    let mut out = String::new();
    if findings.is_empty() {
        out.push_str(&format!(
            "archlint: clean — {} rules over {} files, 0 findings\n",
            registry().len(),
            files_scanned
        ));
        return out;
    }
    let loc_width =
        findings.iter().map(|f| f.file.len() + 1 + f.line.to_string().len()).max().unwrap_or(0);
    let mut by_rule: BTreeMap<&str, Vec<&Finding>> = BTreeMap::new();
    for f in findings {
        by_rule.entry(f.rule).or_default().push(f);
    }
    for (rule, fs) in &by_rule {
        out.push_str(&format!(
            "{rule} ({} finding{}):\n",
            fs.len(),
            if fs.len() == 1 { "" } else { "s" }
        ));
        for f in fs {
            let loc = format!("{}:{}", f.file, f.line);
            out.push_str(&format!("  {loc:<loc_width$}  {}\n", f.message));
        }
    }
    let files_hit = by_rule
        .values()
        .flatten()
        .map(|f| f.file.as_str())
        .collect::<std::collections::BTreeSet<_>>()
        .len();
    out.push_str(&format!(
        "archlint: {} finding{} across {} file{} ({} files scanned)\n",
        findings.len(),
        if findings.len() == 1 { "" } else { "s" },
        files_hit,
        if files_hit == 1 { "" } else { "s" },
        files_scanned
    ));
    out
}

/// Renders the non-test code line counts as one line (empty when no
/// tracked crate exists under the scanned root).
pub fn code_lines(counts: &[(&str, usize)]) -> String {
    if counts.is_empty() {
        return String::new();
    }
    let parts: Vec<String> = counts.iter().map(|(k, n)| format!("{k} {n}")).collect();
    format!("archlint: non-test code lines — {}\n", parts.join(", "))
}

/// Renders the findings as a JSON document:
/// `{"findings": [...], "counts": {...}, "files_scanned": N}`.
pub fn json(findings: &[Finding], files_scanned: usize) -> String {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for f in findings {
        *counts.entry(f.rule).or_insert(0) += 1;
    }
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
            escape(f.rule),
            escape(&f.file),
            f.line,
            escape(&f.message)
        ));
    }
    if !findings.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("],\n  \"counts\": {");
    for (i, (rule, n)) in counts.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{}: {n}", escape(rule)));
    }
    out.push_str(&format!("}},\n  \"files_scanned\": {files_scanned}\n}}\n"));
    out
}

/// JSON string escaping.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding() -> Finding {
        Finding {
            rule: "facade-only-sync",
            file: "crates/core/src/stack.rs".into(),
            line: 7,
            message: "direct \"std::sync\" path".into(),
        }
    }

    #[test]
    fn clean_report_mentions_counts() {
        let s = human(&[], 42);
        assert!(s.contains("clean"), "{s}");
        assert!(s.contains("42 files"), "{s}");
    }

    #[test]
    fn human_table_lists_location() {
        let s = human(&[finding()], 1);
        assert!(s.contains("crates/core/src/stack.rs:7"), "{s}");
    }

    #[test]
    fn code_lines_line_lists_each_crate() {
        assert_eq!(code_lines(&[]), "");
        let s = code_lines(&[("crates/core", 12), ("crates/server", 3)]);
        assert_eq!(s, "archlint: non-test code lines — crates/core 12, crates/server 3\n");
    }

    #[test]
    fn json_escapes_and_counts() {
        let s = json(&[finding()], 1);
        assert!(s.contains("\\\"std::sync\\\""), "{s}");
        assert!(s.contains("\"facade-only-sync\": 1"), "{s}");
    }
}
