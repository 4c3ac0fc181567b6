//! Steadiness mode: runs one workload several times, each in its own
//! process with its own seed, and prints each metric's median, quartiles,
//! (q3 - q1)/median and (max - min)/median. Used to set the bounds in
//! `BENCHMARK.json`.

use std::process::{Command, ExitCode, Stdio};

use crate::{stats, E2E};

/// The number after `"<name>": {"value": ` in a result line.
fn value(line: &str, name: &str) -> Option<f64> {
    let key = format!(r#""{name}": {{"value": "#);
    let rest = &line[line.find(&key)? + key.len()..];
    rest[..rest.find(',')?].trim().parse().ok()
}

pub fn run(workload: &str, runs: usize, seconds: f64, trace: bool, first_seed: u64) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench steady: {e}");
            return ExitCode::FAILURE;
        }
    };
    let names: Vec<String> = if trace {
        crate::layer_table().into_iter().map(|(n, _)| n).collect()
    } else {
        E2E.iter().map(|(n, _)| n.to_string()).collect()
    };
    let mut series: Vec<Vec<f64>> = vec![Vec::new(); names.len()];
    let mut ok = true;
    for i in 0..runs {
        let seed = first_seed + i as u64;
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(o) => o,
            Err(e) => {
                eprintln!("perfbench steady: run {i}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let last = stdout.lines().last().unwrap_or_default().to_string();
        if !out.status.success() || !last.contains(r#""correct": true"#) {
            ok = false;
            println!("run {i} (seed {seed}) failed:\n{stdout}");
        }
        for (s, name) in series.iter_mut().zip(&names) {
            if let Some(v) = value(&last, name) {
                s.push(v);
            }
        }
        if let Some(ctx) = stdout.lines().find(|l| l.starts_with("context:")) {
            println!("run {i} seed {seed} {ctx}");
        }
        println!("run {i} seed {seed}: {last}");
    }
    println!("{workload}: {runs} runs of {seconds} s");
    println!(
        "{:<34} {:>14} {:>14} {:>14} {:>9} {:>9}",
        "metric", "median", "q1", "q3", "iqr/med", "rng/med"
    );
    for (name, s) in names.iter().zip(&series) {
        let med = stats::median(s);
        let (q1, q3) = stats::quartiles(s);
        let (lo, hi) = s.iter().fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
        let rel = |x: f64| if med != 0.0 { x / med.abs() } else { 0.0 };
        println!(
            "{name:<34} {med:>14.4} {q1:>14.4} {q3:>14.4} {:>9.4} {:>9.4}",
            rel(q3 - q1),
            rel(hi - lo)
        );
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reads_values_from_a_result_line() {
        let line = r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"p50_us": {"value": 12.5, "unit": "us"}, "tail_us": {"value": 1e3, "unit": "us"}}}"#;
        assert_eq!(super::value(line, "p50_us"), Some(12.5));
        assert_eq!(super::value(line, "tail_us"), Some(1000.0));
        assert_eq!(super::value(line, "setup_s"), None);
    }
}
