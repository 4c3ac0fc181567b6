//! Fixture test for the non-test code line count archlint reports on
//! every run: `tests/loc_tree` is a mini workspace whose expected counts
//! are also what the shell pipeline in `loc.rs`'s module docs gives.

use std::path::{Path, PathBuf};

use stack2d_archlint::loc;

fn tree() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/loc_tree")
}

#[test]
fn fixture_tree_counts_match_the_shell_rule() {
    // core: lib.rs 4 (`pub mod a;`, `pub fn f`, `1`, `}`; nothing past
    // the tests module) + a.rs 4 (the cfg(test) line takes the next line
    // with it; a whitespace-only line is blank); layout.rs and nested/
    // are skipped.
    assert_eq!(loc::crate_code_lines(&tree(), "crates/core"), Some(8));
    assert_eq!(loc::crate_code_lines(&tree(), "crates/server"), Some(3));
    assert_eq!(loc::tracked(&tree()), vec![("crates/core", 8), ("crates/server", 3)]);
}

#[test]
fn missing_crates_are_not_reported() {
    assert_eq!(loc::crate_code_lines(&tree(), "crates/nope"), None);
    // A fixture tree with a core crate but no server crate.
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/clock_via_telemetry");
    let names: Vec<&str> = loc::tracked(&fixture).into_iter().map(|(k, _)| k).collect();
    assert_eq!(names, ["crates/core"]);
}

#[test]
fn every_scan_carries_the_counts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let scan = stack2d_archlint::run(&root, &[]).expect("workspace scan");
    let names: Vec<&str> = scan.code_lines.iter().map(|(k, _)| *k).collect();
    assert_eq!(names, loc::TRACKED);
    assert!(scan.code_lines.iter().all(|&(_, n)| n > 0), "{:?}", scan.code_lines);
}
