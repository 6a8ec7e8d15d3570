//! Provenance of a result (tree and machine) and process memory.

use pov_scenario::Json;
use std::process::Command;

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`); 0 where the
/// file is unavailable.
pub fn rss_kb(field: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git").args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The worker count the batch runner uses: the machine's parallelism.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Commit SHA, dirty flag, `nproc` and CPU model of this run. Outside a
/// git checkout the commit is `null` and so is the dirty flag.
pub fn stamp() -> Json {
    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain", "--untracked-files=no"]))
        .map(|s| !s.is_empty());
    let cpu = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|v| v.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
    });
    Json::obj()
        .with("commit", commit)
        .with("dirty", dirty)
        .with("nproc", nproc())
        .with("cpu_model", cpu)
}
