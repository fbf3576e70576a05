//! CPU time of a whole process from the kernel's per-process CPU clock:
//! the time of every thread, exited ones included, in nanoseconds; and of
//! the calling thread alone. `/proc/<pid>/stat` counts the same time in
//! 10 ms ticks, too coarse to time a set-up of 0.1 s.

use std::os::raw::{c_int, c_long};

/// The C `struct timespec` on Linux: seconds and nanoseconds, each a C
/// `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

extern "C" {
    fn clock_getcpuclockid(pid: c_int, clock_id: *mut c_int) -> c_int;
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// The C `CLOCK_THREAD_CPUTIME_ID` on Linux.
const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

fn read_clock(clock: c_int, what: &str) -> Result<f64, String> {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live local laid out as the C `struct timespec`,
    // which the call fills and keeps no pointer to.
    if unsafe { clock_gettime(clock, &mut ts) } != 0 {
        return Err(format!(
            "reading the CPU clock of {what}: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
}

/// CPU seconds the calling thread has used so far.
pub fn thread_cpu_s() -> Result<f64, String> {
    read_clock(CLOCK_THREAD_CPUTIME_ID, "this thread")
}

/// CPU seconds process `pid` has used so far; pid 0 is this process. The
/// process must still be running.
pub fn process_cpu_s(pid: u32) -> Result<f64, String> {
    let pid = c_int::try_from(pid).map_err(|_| format!("pid {pid} out of range"))?;
    let mut clock: c_int = 0;
    // SAFETY: `clock` is a live local of the C `clockid_t` type on Linux
    // (an `int`); the call only writes the clock id into it.
    let err = unsafe { clock_getcpuclockid(pid, &mut clock) };
    if err != 0 {
        return Err(format!(
            "CPU clock of pid {pid}: {}",
            std::io::Error::from_raw_os_error(err)
        ));
    }
    read_clock(clock, &format!("pid {pid}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_clock_counts_work_done() {
        let before = process_cpu_s(0).unwrap();
        let mut x = 0u64;
        while process_cpu_s(0).unwrap() < before + 0.02 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        assert!(process_cpu_s(0).unwrap() >= before + 0.02);
    }

    #[test]
    fn thread_clock_counts_only_this_thread() {
        let before = thread_cpu_s().unwrap();
        std::thread::spawn(|| {
            let t = thread_cpu_s().unwrap();
            while thread_cpu_s().unwrap() < t + 0.02 {}
        })
        .join()
        .unwrap();
        assert!(thread_cpu_s().unwrap() - before < 0.02);
        assert!(process_cpu_s(0).unwrap() >= 0.02);
    }

    #[test]
    fn a_running_child_has_a_clock_and_a_reaped_one_has_none() {
        let mut child = std::process::Command::new("sleep")
            .arg("5")
            .spawn()
            .unwrap();
        let t = process_cpu_s(child.id()).unwrap();
        assert!((0.0..1.0).contains(&t));
        child.kill().unwrap();
        child.wait().unwrap();
        assert!(process_cpu_s(child.id()).is_err());
    }
}
