//! A probe of the host's memory latency. The host is a shared VM whose
//! speed drifts from one minute to the next, on the same code and inputs,
//! and CPU time follows it: a busier memory system makes the same
//! instructions take longer. The drift is in memory latency, not in the
//! core: over five 30-s runs in a row, an arithmetic chain's time stayed
//! within 2.4% while a pointer chase over 64 MiB moved by 14% and the
//! workloads' CPU time per operation by 12–17%; CPU time over the chase's
//! time spread by 5–6.5% (perfbench/NOTES.md, "Memory-latency probe").
//!
//! The probe is that chase, run beside the workload — between batch calls
//! and mutate chunks, while the program is idle, and through the serve
//! window beside a lightly loaded server: dependent loads over a 64 MiB
//! ring, timed by the thread's CPU clock. `norm_cpu_ms_per_op` and `setup_s` are the program's CPU times
//! scaled by `NOMINAL_NS` over the run's median latency per load. The
//! probe's work is the harness's own and never changes with the program,
//! so a change to the program moves the scaled metrics in the same
//! proportion as its CPU time.
//!
//! The probe runs in a child process (`perfbench probe`), so its ring
//! stays out of the peak RSS of the benchmark process, which
//! `batch_pubmed` and `mutate_cora` report as the program's. The child
//! waits on its standard input and takes one sample per line it reads.

use std::io::{BufRead as _, BufReader, Write as _};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

use crate::{cpuclock, stats};

/// The chase ring has 2^RING_BITS entries: 64 MiB of `u32`, far beyond
/// the L2 caches and a large share of the shared L3.
const RING_BITS: u32 = 24;
/// Dependent loads per sample: 20–27 ms at this host's 200–270 ns.
const STEPS: u32 = 100_000;
/// The latency per load the CPU times are scaled to, in ns: a round
/// figure near this host's.
pub const NOMINAL_NS: f64 = 200.0;

/// A ring of 2^bits entries, each holding the index of the next: a
/// full-period linear congruential step (multiplier 1 mod 4, odd
/// increment), so one cycle runs through every entry, in an order no
/// prefetcher follows.
fn ring(bits: u32) -> Vec<u32> {
    let mask = (1u32 << bits) - 1;
    (0..=mask)
        .map(|i| i.wrapping_mul(0x0019_660d).wrapping_add(0x3c6e_f35f) & mask)
        .collect()
}

/// The child's side: builds the ring, then answers each line of standard
/// input with one sample, the CPU ns per load, until end of input. Each
/// sample starts where the last one stopped.
pub fn child_main() -> Result<(), String> {
    let ring = ring(RING_BITS);
    let mut out = std::io::stdout().lock();
    let mut p = 0u32;
    for line in std::io::stdin().lock().lines() {
        line.map_err(|e| format!("probe input: {e}"))?;
        let t0 = cpuclock::thread_cpu_s()?;
        for _ in 0..STEPS {
            p = ring[p as usize];
        }
        p = std::hint::black_box(p);
        let t1 = cpuclock::thread_cpu_s()?;
        writeln!(out, "{}", (t1 - t0) * 1e9 / f64::from(STEPS))
            .and_then(|()| out.flush())
            .map_err(|e| format!("probe output: {e}"))?;
    }
    Ok(())
}

/// The harness's side: a running probe child and the samples it returned.
pub struct Probe {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    /// ns per load of each sample.
    samples: Vec<f64>,
}

impl Probe {
    pub fn spawn() -> Result<Probe, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating perfbench: {e}"))?;
        let mut child = Command::new(exe)
            .arg("probe")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawning the probe: {e}"))?;
        let (Some(stdin), Some(stdout)) = (child.stdin.take(), child.stdout.take()) else {
            let _ = child.kill();
            let _ = child.wait();
            return Err("the probe has no pipes".into());
        };
        Ok(Probe {
            child,
            stdin: Some(stdin),
            stdout: BufReader::new(stdout),
            samples: Vec::new(),
        })
    }

    /// Runs one sample and waits for it.
    pub fn sample(&mut self) -> Result<(), String> {
        let stdin = self.stdin.as_mut().ok_or("the probe is closed")?;
        stdin
            .write_all(b"\n")
            .and_then(|()| stdin.flush())
            .map_err(|e| format!("probe request: {e}"))?;
        let mut line = String::new();
        self.stdout
            .read_line(&mut line)
            .map_err(|e| format!("probe reply: {e}"))?;
        let ns = line
            .trim()
            .parse()
            .map_err(|_| format!("bad probe reply {line:?}"))?;
        self.samples.push(ns);
        Ok(())
    }

    /// The median sample, in ns per load.
    pub fn median_ns(&self) -> Option<f64> {
        stats::median(&self.samples)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }
}

impl Drop for Probe {
    fn drop(&mut self) {
        // End of input ends the child; kill it in case it is mid-sample
        // or stuck, then reap it.
        drop(self.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_through_every_entry() {
        let r = ring(12);
        let (mut p, mut steps) = (0u32, 0usize);
        loop {
            p = r[p as usize];
            steps += 1;
            if p == 0 {
                break;
            }
        }
        assert_eq!(steps, 1 << 12);
    }
}
