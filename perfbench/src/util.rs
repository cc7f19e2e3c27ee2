//! Small shared pieces: a seeded generator, order statistics, a JSON
//! writer, and process probes.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// SplitMix64: the benchmark's own seeded stream, so its inputs do not
/// depend on the program's random-number code.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5DEE_CE66_D1CE_4E5B)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }
}

/// Order statistics of one sample set, in the sample's unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn with_capacity(n: usize) -> Samples {
        Samples(Vec::with_capacity(n))
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn sum(&self) -> f64 {
        self.0.iter().sum()
    }

    pub fn mean(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum() / self.0.len() as f64
        }
    }

    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Nearest-rank percentile, `q` in `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        let v = self.sorted();
        if v.is_empty() {
            return 0.0;
        }
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }
}

/// Per-query latencies kept per one-second slice of a measured window.
///
/// Query figures are taken per slice and the run reports their median
/// over the window's full slices: a disturbance from the host that
/// covers less than half of the window does not move them. Samples
/// completed after the window's nominal end (the rest of the last
/// round) are not counted.
#[derive(Debug, Clone, Default)]
pub struct Sliced {
    slices: Vec<Samples>,
}

impl Sliced {
    /// Records `value`, completed `at_s` seconds into the window.
    pub fn push(&mut self, at_s: f64, value: f64) {
        let k = at_s as usize;
        if self.slices.len() <= k {
            self.slices.resize_with(k + 1, Samples::default);
        }
        self.slices[k].push(value);
    }

    fn full(&self, window_s: f64) -> &[Samples] {
        &self.slices[..(window_s as usize).min(self.slices.len())]
    }

    /// Median over the full slices of the completions per second.
    pub fn rate(&self, window_s: f64) -> f64 {
        let mut rates = Samples::default();
        for s in self.full(window_s) {
            rates.push(s.len() as f64);
        }
        rates.median()
    }

    /// Median over the full slices of each slice's `q` quantile.
    pub fn quantile(&self, q: f64, window_s: f64) -> f64 {
        let mut per = Samples::default();
        for s in self.full(window_s).iter().filter(|s| s.len() > 0) {
            per.push(s.quantile(q));
        }
        per.median()
    }
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// The process's peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    status_kib("VmHWM:") / 1024.0
}

fn status_kib(key: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .unwrap_or(0.0)
}

/// Metric name → (value, unit), printed in name order.
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

pub fn put(metrics: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    metrics.insert(name.to_string(), (value, unit));
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number; non-finite values (which JSON cannot carry) print
/// as `null` so a broken metric is visible rather than malformed.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

pub fn metrics_json(metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(name),
                json_num(*value),
                json_str(unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        let mut s = Samples::default();
        for k in [3.0, 1.0, 4.0, 2.0] {
            s.push(k);
        }
        assert_eq!(s.median(), 2.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn sliced_figures_are_medians_over_full_slices() {
        let mut s = Sliced::default();
        // Three full slices with 2, 4 and 6 samples; the fourth slice is
        // past the 3-second window and is not counted.
        for (k, n) in [2, 4, 6, 50].into_iter().enumerate() {
            for j in 0..n {
                s.push(k as f64 + 0.01 * j as f64, (10 * k + j) as f64);
            }
        }
        assert_eq!(s.rate(3.0), 4.0);
        // Slice maxima 1, 13, 25: their median is 13.
        assert_eq!(s.quantile(1.0, 3.0), 13.0);
    }

    #[test]
    fn rng_is_deterministic_and_in_range() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..1000 {
            let x = a.range(2.0, 5.0);
            assert_eq!(x, b.range(2.0, 5.0));
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn json_escapes() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "null");
    }
}
