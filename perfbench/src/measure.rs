//! Timing, process counters, order statistics and the result line.

use std::time::Instant;

/// Runs `f` and returns its value with its wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed().as_secs_f64())
}

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let sorted = sorted(xs);
    match sorted.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The highest percentile of `xs` with at least ten samples above it, as
/// `(value, percentile)`, when that percentile is p90 or higher. With fewer
/// than 100 samples it would be lower, and a percentile under p90 is not a
/// tail; the maximum is reported instead and labelled p100. Every run
/// reports the same statistic regardless of how many whole cycles it fitted.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let sorted = sorted(xs);
    let n = sorted.len();
    if n < 100 {
        return (sorted.last().copied().unwrap_or(f64::NAN), 100.0);
    }
    let rank = n - 11;
    (sorted[rank], 100.0 * (rank + 1) as f64 / n as f64)
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Process CPU time (user + system, all threads, reaped ones included) in
/// seconds, read from `/proc/self/stat` in clock ticks of 1/100 s.
pub fn process_cpu_s() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name may contain spaces; fields restart after its `)`.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest.split_whitespace().collect())
        .unwrap_or_default();
    let tick = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    // utime and stime are fields 14 and 15 of the line, 12 and 13 after `)`.
    match (tick(11), tick(12)) {
        (Some(utime), Some(stime)) => (utime + stime) / 100.0,
        _ => f64::NAN,
    }
}

/// Resets the process's peak resident set size to its current one, so the
/// next [`peak_rss_mb`] reads the peak of what ran in between. A kernel
/// without the reset leaves the peak of the whole process.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of the process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Shorthand constructor for [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// The result line: `correct`, `attempted`, `failed` and the metrics, each
/// value printed with every digit Rust's shortest round-trip form has.
/// Non-finite values are printed as `null`, which fails the reader loudly.
pub fn result_line(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A JSON string literal (quotes, backslashes and control characters escaped).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_has_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        let (value, pct) = tail(&xs);
        assert_eq!(xs.iter().filter(|&&x| x > value).count(), 10);
        assert_eq!(value, 190.0);
        assert_eq!(pct, 95.0);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (3.0, 100.0));
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
