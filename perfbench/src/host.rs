//! The host shape recorded with every result.

use fnp_bench::json::Json;

/// CPU model from `/proc/cpuinfo`, or `"unknown"`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|line| line.starts_with("model name"))
                .and_then(|line| line.split_once(':'))
                .map(|(_, model)| model.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether `.cargo/config.toml` in the working directory (the repository
/// root the benchmark is built from) asks for `target-cpu=native`.
fn native_cpu_build() -> bool {
    std::fs::read_to_string(".cargo/config.toml")
        .is_ok_and(|config| config.contains("target-cpu=native"))
}

/// Hardware threads available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The host record: thread count, CPU model, build flags.
pub fn host_json() -> Json {
    Json::obj([
        ("nproc", Json::from(nproc())),
        ("cpu_model", Json::from(cpu_model())),
        ("os", Json::from(std::env::consts::OS)),
        ("arch", Json::from(std::env::consts::ARCH)),
        ("target_cpu_native", Json::from(native_cpu_build())),
        ("avx2", Json::from(cfg!(target_feature = "avx2"))),
        ("avx512f", Json::from(cfg!(target_feature = "avx512f"))),
    ])
}

/// Peak resident memory of this process in kB (`VmHWM`), if known.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
}
