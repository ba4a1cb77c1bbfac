//! Process CPU time and peak memory, read from Linux `/proc/self`.

/// Clock ticks per second in `/proc/<pid>/stat`. Linux reports these
/// fields in `USER_HZ`, which its ABI fixes at 100 on every mainstream
/// architecture, whatever the kernel's internal tick rate.
const USER_HZ: f64 = 100.0;

/// User plus system CPU time in milliseconds, from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may itself hold spaces
/// and parentheses, so fields are counted after its last `)`: `utime` and
/// `stime` are fields 14 and 15 of the line, the 12th and 13th after it.
pub fn parse_cpu_ms(stat: &str) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 * 1000.0 / USER_HZ)
}

/// `VmHWM` (peak resident set size) in kB, from the text of
/// `/proc/<pid>/status`.
pub fn parse_vmhwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let kb = parts.next()?.parse().ok()?;
    (parts.next()? == "kB").then_some(kb)
}

/// This process's CPU time so far, milliseconds.
pub fn cpu_ms() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    parse_cpu_ms(&text).ok_or_else(|| format!("unexpected /proc/self/stat: {text}"))
}

/// This process's peak resident set size so far, MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let text = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kb = parse_vmhwm_kb(&text).ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_fields_after_the_command_name() {
        // utime = 250 ticks, stime = 30 ticks -> 2.8 s.
        let stat = "4242 (perf bench) R 1 2 3 0 -1 4194304 100 0 0 0 250 30 0 0 20 0 3 0";
        assert_eq!(parse_cpu_ms(stat), Some(2800.0));
        // A name holding ") " must not shift the fields.
        let odd = "7 (a) b (c)) S 1 2 3 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0";
        assert_eq!(parse_cpu_ms(odd), Some(110.0));
        assert_eq!(parse_cpu_ms("7 (short) R 1 2"), None);
        assert_eq!(parse_cpu_ms("no parenthesis"), None);
    }

    #[test]
    fn vmhwm_is_read_in_kilobytes() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   61676 kB\nVmRSS:\t 60852 kB\n";
        assert_eq!(parse_vmhwm_kb(status), Some(61676));
        assert_eq!(parse_vmhwm_kb("VmRSS:\t 1 kB\n"), None);
        assert_eq!(parse_vmhwm_kb("VmHWM:\t 12 MB\n"), None);
    }

    #[test]
    fn live_readers_see_this_process() {
        let spin: u64 = (0..5_000_000u64).fold(0, |a, x| a ^ x.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_ms().unwrap() >= 0.0);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
