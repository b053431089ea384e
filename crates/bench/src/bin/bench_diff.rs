//! Fails when a regenerated `BENCH_*.json` moves a deterministic field.
//!
//! ```sh
//! bench_diff BENCH_live.json              # against `git show HEAD:BENCH_live.json`
//! bench_diff old/BENCH_live.json BENCH_live.json
//! ```
//!
//! Every metric except the host-dependent ones (`wall_ms`,
//! `sessions_per_second`, `speedup_vs_330k_baseline`, and the `host`
//! entry) must be identical, and both files must have the same entries
//! and metrics. Prints each difference and exits 1 if there is any.

use std::process::{Command, ExitCode};

use mmbench::perf::{deterministic_diff, parse_report};

fn committed(path: &str) -> Result<String, String> {
    let out = Command::new("git")
        .args(["show", &format!("HEAD:{path}")])
        .output()
        .map_err(|e| format!("git show: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "git show HEAD:{path}: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("HEAD:{path}: {e}"))
}

fn run(args: &[String]) -> Result<Vec<String>, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let (old, new) = match args {
        [file] => (committed(file)?, read(file)?),
        [old, new] => (read(old)?, read(new)?),
        _ => return Err("usage: bench_diff <file> | bench_diff <old> <new>".to_string()),
    };
    let old = parse_report(&old).map_err(|e| format!("old report: {e}"))?;
    let new = parse_report(&new).map_err(|e| format!("new report: {e}"))?;
    Ok(deterministic_diff(&old, &new))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(diffs) if diffs.is_empty() => {
            println!("{}: every deterministic field matches", args.join(" vs "));
            ExitCode::SUCCESS
        }
        Ok(diffs) => {
            for d in &diffs {
                eprintln!("changed: {d}");
            }
            eprintln!("{} deterministic fields changed", diffs.len());
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("bench_diff: {e}");
            ExitCode::from(2)
        }
    }
}
