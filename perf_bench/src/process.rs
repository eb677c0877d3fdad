//! This process's CPU time and peak resident memory.

use std::fs;

/// `struct timespec` of the C library on 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

/// CPU seconds this process has used so far, all threads, user and system.
///
/// Read from the kernel's per-process CPU clock and not from
/// `/proc/self/stat`, whose 10 ms ticks are too coarse to time one batch.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `timespec` of the layout the C library
    // expects on this target, and the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc == 0 {
        ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
    } else {
        0.0
    }
}

/// `VmHWM` in KiB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    line.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kib(&status).map(|kib| kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status =
            "Name:\tperf_bench\nVmPeak:\t  200000 kB\nVmHWM:\t    1832 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status), Some(1832));
        assert_eq!(parse_vm_hwm_kib("Name:\tx\n"), None);
        assert_eq!(parse_vm_hwm_kib("VmHWM:\t12 pages\n"), None);
    }

    #[test]
    fn cpu_time_advances_with_work_and_memory_is_reported() {
        let before = cpu_seconds();
        let mut x = 0u64;
        while cpu_seconds() - before < 0.005 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(cpu_seconds() > before);
        assert!(peak_rss_mib().is_some_and(|m| m > 0.0));
    }
}
