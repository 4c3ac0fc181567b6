//! `archlint` — CLI for the workspace architecture linter.
//!
//! ```text
//! archlint [--root DIR] [--rule NAME]... [--json PATH|-] [--ci] [--list-rules]
//! ```
//!
//! Exit codes: `0` clean, `1` findings (with `--ci`), `2` usage or
//! configuration error. Without `--ci`, findings are reported but the
//! exit code stays `0` — the CI job is the enforcement point.

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut rules: Vec<String> = Vec::new();
    let mut json_out: Option<String> = None;
    let mut ci = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(d) => root = Some(PathBuf::from(d)),
                None => return usage("--root needs a directory"),
            },
            "--rule" => match args.next() {
                Some(r) => rules.push(r),
                None => return usage("--rule needs a rule name"),
            },
            "--json" => match args.next() {
                Some(p) => json_out = Some(p),
                None => return usage("--json needs a path (or `-` for stdout)"),
            },
            "--ci" => ci = true,
            "--list-rules" => {
                for r in stack2d_archlint::rules::registry() {
                    println!("{:<28} {}", r.name, r.summary);
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "archlint — token-aware architecture linter (DESIGN.md §12)\n\n\
                     USAGE: archlint [--root DIR] [--rule NAME]... [--json PATH|-] [--ci] [--list-rules]"
                );
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("current dir");
            match stack2d_archlint::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("archlint: no archlint.toml found from {} upward", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    let scan = match stack2d_archlint::run(&root, &rules) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("archlint: {e}");
            return ExitCode::from(2);
        }
    };

    print!("{}", stack2d_archlint::report::human(&scan.findings, scan.files_scanned));
    print!("{}", stack2d_archlint::report::code_lines(&scan.code_lines));
    if let Some(path) = json_out {
        let doc = stack2d_archlint::report::json(&scan.findings, scan.files_scanned);
        if path == "-" {
            print!("{doc}");
        } else if let Err(e) = std::fs::write(&path, doc) {
            eprintln!("archlint: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }

    if ci && !scan.findings.is_empty() {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("archlint: {msg} (see --help)");
    ExitCode::from(2)
}
