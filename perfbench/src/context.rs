//! What a host-time number depends on besides the code: the WHD kernel the
//! dispatcher picked, the thread count, and the process's memory peak.

use std::io;

/// Worker threads a workload may use: one, the calling thread, so that
/// every time the benchmark reads from that thread's CPU clock
/// ([`crate::clock`]) covers all of the work. A second worker on a 2-vCPU
/// shared host mostly measured how the host scheduled it.
pub fn threads() -> usize {
    1
}

/// One line naming the kernel, the `IR_KERNEL` override, the threads and
/// the clock.
/// Wall numbers taken under different kernels are not comparable.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let request = std::env::var("IR_KERNEL").unwrap_or_else(|_| "unset".to_string());
    let downgrade = ir_core::kernel::active_diagnostic()
        .map(|d| format!(" ({d})"))
        .unwrap_or_default();
    format!(
        "context: kernel={} IR_KERNEL={request}{downgrade} threads={} nproc={nproc} \
         clock=thread-cpu",
        ir_core::kernel::active().name(),
        threads(),
    )
}

/// Peak resident set of this process in MB (`VmHWM`).
///
/// # Errors
///
/// Fails where `/proc/self/status` is missing or has no `VmHWM` line.
pub fn peak_rss_mb() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no VmHWM in /proc/self/status"))
}
