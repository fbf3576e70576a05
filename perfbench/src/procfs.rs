//! Parsers for the `/proc` files the benchmark reads: host CPU time by
//! mode (for steal) and a process's peak resident memory.

/// Host-wide CPU time from the first (`cpu`) line of `/proc/stat`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct HostCpu {
    /// user + nice + system + idle + iowait + irq + softirq + steal.
    pub total: u64,
    pub steal: u64,
}

impl HostCpu {
    pub fn read() -> Result<HostCpu, String> {
        let text = std::fs::read_to_string("/proc/stat").map_err(|e| format!("/proc/stat: {e}"))?;
        parse_host_cpu(&text)
    }

    /// Share of the host's CPU time stolen by the hypervisor since `self`.
    pub fn steal_share_until(&self, later: &HostCpu) -> f64 {
        let total = later.total.saturating_sub(self.total);
        if total == 0 {
            return 0.0;
        }
        later.steal.saturating_sub(self.steal) as f64 / total as f64
    }
}

pub fn parse_host_cpu(text: &str) -> Result<HostCpu, String> {
    let line = text
        .lines()
        .find(|l| l.starts_with("cpu "))
        .ok_or("/proc/stat: no aggregate cpu line")?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .map(|f| {
            f.parse()
                .map_err(|_| format!("/proc/stat: bad field {f:?}"))
        })
        .collect::<Result<_, _>>()?;
    if fields.len() < 8 {
        return Err(format!("/proc/stat: cpu line has {} fields", fields.len()));
    }
    // guest and guest_nice (fields 9, 10) are already counted in user.
    Ok(HostCpu {
        total: fields[..8].iter().sum(),
        steal: fields[7],
    })
}

/// VmHWM (peak resident set) in KiB from `/proc/<pid>/status`.
pub fn parse_vm_hwm_kib(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("status: no VmHWM line")?;
    line.split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("status: bad VmHWM line {line:?}"))
}

/// Peak resident memory of a process so far, in MiB.
pub fn peak_rss_mib(pid: &str) -> Result<f64, String> {
    let path = format!("/proc/{pid}/status");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
    Ok(parse_vm_hwm_kib(&text)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_cpu_sums_the_first_eight_modes() {
        let text = "cpu  100 5 50 1000 10 1 2 30 7 0\ncpu0 50 2 25 500 5 0 1 15 3 0\nintr 1\n";
        let c = parse_host_cpu(text).unwrap();
        assert_eq!(
            c,
            HostCpu {
                total: 1198,
                steal: 30
            }
        );
        let later = HostCpu {
            total: 1398,
            steal: 80,
        };
        assert_eq!(c.steal_share_until(&later), 0.25);
        assert_eq!(c.steal_share_until(&c), 0.0);
        assert!(parse_host_cpu("cpu0 1 2 3\n").is_err());
        assert!(parse_host_cpu("cpu  1 2 3\n").is_err());
    }

    #[test]
    fn vm_hwm_is_read_in_kib() {
        let status = "Name:\tcod\nVmPeak:\t  200000 kB\nVmHWM:\t   90112 kB\nVmRSS:\t 80000 kB\n";
        assert_eq!(parse_vm_hwm_kib(status).unwrap(), 90112);
        assert!(parse_vm_hwm_kib("Name:\tcod\n").is_err());
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(HostCpu::read().unwrap().total > 0);
        assert!(peak_rss_mib("self").unwrap() > 0.0);
    }
}
