//! Small numeric helpers shared by the untraced and traced runs.

/// Median of the values (mean of the middle two for an even count);
/// `0.0` for none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or `0.0` when `den` is zero.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Clock ticks per second of `/proc/self/stat`'s CPU fields (`USER_HZ`,
/// 100 on every Linux ABI this runs on).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of the whole process, exited threads
/// included (the pool runtime's workers are scoped threads that exit
/// every step; per-thread counters would lose their time).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("cannot read /proc/self/stat: {e}"))?;
    // The command name may hold spaces; fields resume after its `)`.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Fields 14 (utime) and 15 (stime), counting `state` as field 3.
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| "malformed /proc/self/stat".to_owned())
    };
    Ok(tick(11)? + tick(12)?)
}
