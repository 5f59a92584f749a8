//! Host and provenance facts printed with every result, plus the peak
//! resident set read from `/proc`.

use crate::report::quote;

/// Where and from what a result was measured.
#[derive(Debug, Clone)]
pub struct Provenance {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Rustflags the benchmark was compiled with.
    pub rustflags: &'static str,
    /// Commit of the checkout, when it is a git checkout.
    pub commit: String,
    /// Workload seed.
    pub seed: u64,
}

impl Provenance {
    /// Probes the host.
    pub fn probe(seed: u64) -> Self {
        Self {
            nproc: nproc(),
            cpu: cpu_model().unwrap_or_else(|| "unknown".into()),
            rustflags: env!("OCCUBENCH_RUSTFLAGS"),
            commit: git_commit().unwrap_or_else(|| "unknown (not a git checkout)".into()),
            seed,
        }
    }

    /// One JSON object line.
    pub fn to_json(&self, workload: &str, trace: bool) -> String {
        format!(
            "{{\"host\": {{\"nproc\": {}, \"cpu\": {}, \"rustflags\": {}}}, \"commit\": {}, \"workload\": {}, \"seed\": {}, \"trace\": {}}}",
            self.nproc,
            quote(&self.cpu),
            quote(self.rustflags),
            quote(&self.commit),
            quote(workload),
            self.seed,
            trace
        )
    }
}

/// Usable hardware threads.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn cpu_model() -> Option<String> {
    let text = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    text.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `.git/HEAD` without running git.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .filter_map(|l| l.split_once(' '))
        .find(|(_, name)| *name == reference)
        .map(|(id, _)| id.to_string())
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn rss_peak_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kib: f64 = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))?
        .split_whitespace()
        .nth(1)?
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}
