//! The host fingerprint recorded with every result, and peak RSS.

use algas_core::obs::json::{obj, Value};

/// Hardware threads available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// `nproc`, SIMD kernel, build profile, `obs` feature, and the
/// environment variables that change what the program does.
pub fn fingerprint() -> Value {
    let mut fields = vec![
        ("nproc", Value::Uint(nproc() as u64)),
        ("simd_kernel", Value::Str(algas_vector::simd::kernel_name().into())),
        ("profile", Value::Str(if cfg!(debug_assertions) { "debug" } else { "release" }.into())),
        ("obs", Value::Bool(algas_core::obs::recorder::OBS_ENABLED)),
    ];
    for var in ["ALGAS_BUILD_THREADS", "ALGAS_QUANTIZE"] {
        if let Ok(v) = std::env::var(var) {
            fields.push((var, Value::Str(v)));
        }
    }
    obj(fields)
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
