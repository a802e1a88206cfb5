//! Process memory and CPU time from `/proc/self`: with `unsafe` forbidden
//! there is no counting allocator and no `getrusage`, so the kernel's own
//! accounting is the source.

/// Kernel clock ticks per second for the `utime`/`stime` fields of
/// `/proc/<pid>/stat` (USER_HZ, 100 on every Linux ABI).
const USER_HZ: f64 = 100.0;

/// `VmHWM` (peak resident set) in kB from the text of `/proc/<pid>/status`.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let rest = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))?;
    rest.trim().strip_suffix("kB")?.trim().parse().ok()
}

/// `(utime, stime)` in clock ticks from one `/proc/<pid>/stat` line. The
/// command name (field 2) is parenthesised and may itself hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu_ticks(stat: &str) -> Option<(u64, u64)> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are 14 and 15.
    let mut fields = after_comm.split_ascii_whitespace().skip(11);
    let utime = fields.next()?.parse().ok()?;
    let stime = fields.next()?.parse().ok()?;
    Some((utime, stime))
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = parse_vm_hwm_kb(&status).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

/// User + system CPU seconds this process (all threads, exited ones
/// included) has used so far.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    let (utime, stime) = parse_stat_cpu_ticks(&stat).ok_or("unparsable /proc/self/stat")?;
    Ok((utime + stime) as f64 / USER_HZ)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vm_hwm_from_a_status_fixture() {
        let status =
            "Name:\tphbench\nVmPeak:\t  400000 kB\nVmHWM:   312064 kB\nVmRSS:\t  1000 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(312_064));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\nVmRSS:\t 5 kB\n"), None);
        assert_eq!(parse_vm_hwm_kb("VmHWM:\t lots kB\n"), None);
    }

    #[test]
    fn cpu_ticks_survive_a_hostile_comm() {
        // comm = "a) (b c" — spaces and both kinds of parenthesis.
        let stat = "4242 (a) (b c) S 1 4242 4242 0 -1 4194304 500 0 0 0 \
                    1234 56 0 0 20 0 3 0 100 1000000 250 18446744073709551615";
        assert_eq!(parse_stat_cpu_ticks(stat), Some((1234, 56)));
        assert_eq!(parse_stat_cpu_ticks("1 (x) S 1 2"), None);
        assert_eq!(parse_stat_cpu_ticks("no parens here"), None);
    }

    #[test]
    fn live_proc_files_parse() {
        assert!(peak_rss_mib().unwrap() > 0.0);
        assert!(cpu_seconds().unwrap() >= 0.0);
    }
}
