//! The host stamp printed with every result: CPU count and model, the
//! compiler, and the source revision when the checkout has one.

use std::process::Command;

#[derive(Debug, Clone)]
pub struct Host {
    pub cpus: usize,
    pub cpu_model: String,
    pub rustc: String,
    pub git_rev: String,
}

pub fn cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
}

pub fn stamp() -> Host {
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    // Only a `.git` in the working directory counts: a source export
    // has none, and git must not wander into enclosing directories.
    let git_rev = if std::path::Path::new(".git").exists() {
        command_line(
            "git",
            &["--git-dir=.git", "rev-parse", "--short=12", "HEAD"],
        )
    } else {
        None
    };
    Host {
        cpus: cpus(),
        cpu_model,
        rustc: command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".to_string()),
        git_rev: git_rev.unwrap_or_else(|| "none".to_string()),
    }
}
