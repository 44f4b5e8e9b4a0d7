//! The host record printed with every result: core count, an fsync
//! latency measured in the benchmark's own data directory, the source
//! revision and the compiler; and the process's peak memory.

use crate::stats::median;
use std::fs::{self, File};
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// Write + `sync_all` rounds behind `fsync_us`.
const FSYNC_ROUNDS: usize = 16;

/// Where and with what a result was taken.
#[derive(Debug, Clone)]
pub struct Host {
    /// Cores available to the process.
    pub nproc: usize,
    /// Median µs of a 4 KiB write plus `sync_all` in the data directory.
    pub fsync_us: f64,
    /// Source revision, or `unknown` outside a git checkout.
    pub git_rev: String,
    /// `rustc -V`, or `unknown`.
    pub rustc: String,
}

impl Host {
    /// Measures the host; `data_dir` must exist.
    pub fn probe(data_dir: &Path) -> io::Result<Self> {
        Ok(Self {
            nproc: nproc(),
            fsync_us: fsync_us(data_dir)?,
            git_rev: git_rev(),
            rustc: rustc_version(),
        })
    }

    /// The record as a JSON object.
    pub fn to_json(&self, seed: u64, workload: &str) -> String {
        format!(
            "{{\"nproc\": {}, \"fsync_us\": {:.1}, \"git_rev\": \"{}\", \
             \"rustc\": \"{}\", \"seed\": {}, \"workload\": \"{}\"}}",
            self.nproc,
            self.fsync_us,
            escape(&self.git_rev),
            escape(&self.rustc),
            seed,
            escape(workload),
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .map(|c| match c {
            '"' => "\\\"".to_owned(),
            '\\' => "\\\\".to_owned(),
            c => c.to_string(),
        })
        .collect()
}

/// Cores available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

fn fsync_us(dir: &Path) -> io::Result<f64> {
    let path = dir.join("fsync-probe");
    let mut f = File::create(&path)?;
    let block = [0xA5u8; 4096];
    let mut samples = Vec::with_capacity(FSYNC_ROUNDS);
    for _ in 0..FSYNC_ROUNDS {
        let t = Instant::now();
        f.write_all(&block)?;
        f.sync_all()?;
        samples.push(t.elapsed().as_secs_f64() * 1e6);
    }
    drop(f);
    fs::remove_file(&path)?;
    Ok(median(&samples))
}

/// The commit `HEAD` names, read from `.git` in the working directory.
fn git_rev() -> String {
    let head = match fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = fs::read_to_string(Path::new(".git").join(reference)) {
        return rev.trim().to_owned();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|rev| rev.trim().to_owned())
                    .filter(|rev| !rev.is_empty())
            })
        })
        .unwrap_or_else(|| "unknown".to_owned())
}

fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".to_owned(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_owned(),
        )
}

/// The process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
