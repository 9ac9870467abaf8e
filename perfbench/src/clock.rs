//! The clock every benchmark time is read from: CPU time of the calling
//! thread (`CLOCK_THREAD_CPUTIME_ID`).
//!
//! Every workload runs on one thread (see [`crate::context::threads`]), so
//! on an idle machine this clock reads the same as wall-clock time. On a
//! shared host it leaves out the time the thread spent waiting for a CPU:
//! behind other processes in the guest, or while the hypervisor ran
//! another guest on its vCPU (steal time, on kernels built with
//! paravirtual time accounting). Wall-clock time counts that wait, and it
//! changes from minute to minute with the host's load, not with the code.

#![allow(unsafe_code)]

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads the thread CPU clock of 64-bit Linux");

/// A reading of the calling thread's CPU clock.
#[derive(Debug, Clone, Copy)]
pub struct CpuInstant(f64);

impl CpuInstant {
    /// The calling thread's CPU time so far.
    pub fn now() -> Self {
        CpuInstant(thread_cpu_secs())
    }

    /// CPU seconds the calling thread has used since `self` was read.
    pub fn elapsed_secs(self) -> f64 {
        thread_cpu_secs() - self.0
    }
}

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec`, the only memory
    // the call writes.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_work_and_not_sleep() {
        let start = CpuInstant::now();
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert!(start.elapsed_secs() < 0.025, "sleeping used no CPU");
        let start = CpuInstant::now();
        let mut x = 0u64;
        while start.elapsed_secs() < 0.01 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(start.elapsed_secs() >= 0.01);
    }
}
