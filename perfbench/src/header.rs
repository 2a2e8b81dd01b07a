//! The run header: what was measured, on what.

use std::process::Command;

use crate::cli::Args;
use crate::report::escape;

/// One JSON line describing the run: commit, toolchain, machine and workload.
#[must_use]
pub fn header(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    format!(
        "{{\"perfbench\": {{\"commit\": \"{}\", \"rustc\": \"{}\", \"nproc\": {nproc}, \"cpu\": \"{}\", \"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}}}}}",
        escape(&commit()),
        escape(&rustc()),
        escape(&cpu_model()),
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    )
}

/// The checked-out commit, read from `.git` in the working directory ("unknown"
/// in an export without git metadata).
fn commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (hash, name) = line.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

/// `rustc --version` of the toolchain on the path.
fn rustc() -> String {
    Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map_or_else(
            || "unknown".into(),
            |out| String::from_utf8_lossy(&out.stdout).trim().to_string(),
        )
}

/// The CPU model from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines().find_map(|line| {
                let (key, value) = line.split_once(':')?;
                (key.trim() == "model name").then(|| value.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}
