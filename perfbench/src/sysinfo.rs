//! The run header (where a number was measured) and the peak-RSS reading.

use std::path::Path;
use std::process::Command;

use crate::Args;

/// Header lines: git rev with a dirty flag, core count, CPU model, kernel,
/// and the run's arguments. A number measured elsewhere reads as a
/// reference, not as a gate.
pub fn header(args: &Args) -> Vec<String> {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    vec![
        format!(
            "perfbench {} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace)
        ),
        format!("git {}", git_rev()),
        format!("nproc {cores}"),
        format!("cpu {}", cpu_model()),
        format!(
            "kernel {}",
            read_trim("/proc/sys/kernel/osrelease").unwrap_or_else(|| "unknown".into())
        ),
    ]
}

/// `<rev> clean|dirty`, or `unknown` outside a git work tree (such as a
/// checkout exported as plain files).
fn git_rev() -> String {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let git = |args: &[&str]| -> Option<String> {
        let out = Command::new("git")
            .arg("-C")
            .arg(dir)
            .args(args)
            .output()
            .ok()?;
        out.status
            .success()
            .then(|| String::from_utf8_lossy(&out.stdout).trim().to_owned())
    };
    match (
        git(&["rev-parse", "--short=12", "HEAD"]),
        git(&["status", "--porcelain"]),
    ) {
        (Some(rev), Some(status)) => {
            format!(
                "{rev} {}",
                if status.is_empty() { "clean" } else { "dirty" }
            )
        }
        _ => "unknown (not a git work tree)".into(),
    }
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into())
}

fn read_trim(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_owned())
}

/// Resident-set high-water mark of this process (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
