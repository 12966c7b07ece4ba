//! Sample summaries and the metric sheet a run prints.

use std::fmt::Write as _;

/// Nearest-rank quantile of `samples` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// `part / whole`, 0 when `whole` is 0.
pub fn share(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
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
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time the hypervisor gave to other guests while this process
/// measured (`steal` in `/proc/stat`, in 10 ms ticks), as a share of
/// the machine's CPU time since [`Steal::start`]. A noisy host shows
/// here first.
pub struct Steal {
    ticks: u64,
    at: std::time::Instant,
}

impl Steal {
    pub fn start() -> Self {
        Steal {
            ticks: Self::ticks(),
            at: std::time::Instant::now(),
        }
    }

    pub fn share(&self, cores: usize) -> f64 {
        let stolen = Self::ticks().saturating_sub(self.ticks) as f64 / 100.0;
        share(stolen, self.at.elapsed().as_secs_f64() * cores as f64)
    }

    fn ticks() -> u64 {
        std::fs::read_to_string("/proc/stat")
            .ok()
            .and_then(|stat| stat.lines().next()?.split_whitespace().nth(8)?.parse().ok())
            .unwrap_or(0)
    }
}

/// Named metrics with units, in insertion order.
#[derive(Default)]
pub struct Sheet {
    entries: Vec<(String, f64, &'static str)>,
    /// Names filled in as 0 because the workload has no such layer.
    pub absent: Vec<String>,
}

impl Sheet {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        match self.entries.iter_mut().find(|(n, _, _)| n == name) {
            Some(entry) => {
                entry.1 = value;
                entry.2 = unit;
            }
            None => self.entries.push((name.to_string(), value, unit)),
        }
    }

    /// Sets every metric of `declared` that was not measured to 0.
    pub fn fill_absent(&mut self, declared: &[(&str, &'static str)]) {
        for &(name, unit) in declared {
            if !self.entries.iter().any(|(n, _, _)| n == name) {
                self.entries.push((name.to_string(), 0.0, unit));
                self.absent.push(name.to_string());
            }
        }
    }

    /// One `name value unit` line per metric.
    pub fn print(&self, heading: &str) {
        println!("# {heading}");
        for (name, value, unit) in &self.entries {
            println!("{name:<34} {value:>16.6} {unit}");
        }
    }

    /// The `metrics` object for `wanted` (name, unit) pairs, which must
    /// all be present with those units.
    pub fn json(&self, wanted: &[(&str, &str)]) -> Result<String, String> {
        let mut out = String::from("{");
        for (i, (name, want_unit)) in wanted.iter().enumerate() {
            let (_, value, unit) = self
                .entries
                .iter()
                .find(|(n, _, _)| n == name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if unit != want_unit {
                return Err(format!(
                    "metric {name} is in {unit}, declared in {want_unit}"
                ));
            }
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            );
        }
        out.push('}');
        Ok(out)
    }
}

/// A JSON number with every digit Rust keeps (non-finite → 0).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

/// Per-window values of named metrics. A run's timings are its best
/// window's (highest rate, lowest latency), so bursts of outside load on
/// a shared host do not move them; other figures are medians over the
/// windows.
#[derive(Default)]
pub struct Windows {
    series: Vec<(&'static str, &'static str, Vec<f64>)>,
}

impl Windows {
    pub fn add(&mut self, name: &'static str, value: f64, unit: &'static str) {
        match self.series.iter_mut().find(|(n, _, _)| *n == name) {
            Some((_, _, values)) => values.push(value),
            None => self.series.push((name, unit, vec![value])),
        }
    }

    pub fn put_medians(&self, sheet: &mut Sheet) {
        for (name, unit, values) in &self.series {
            sheet.put(name, median(values), unit);
        }
    }

    pub fn put_minima(&self, sheet: &mut Sheet) {
        for (name, unit, values) in &self.series {
            sheet.put(
                name,
                values.iter().copied().fold(f64::INFINITY, f64::min),
                unit,
            );
        }
    }

    pub fn put_maxima(&self, sheet: &mut Sheet) {
        for (name, unit, values) in &self.series {
            sheet.put(
                name,
                values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
                unit,
            );
        }
    }
}

/// Blocks until `t`: sleeps most of the way, then spins, so scheduled
/// sends are not late by the sleep's wake-up slack.
pub fn wait_until(t: std::time::Instant) {
    const SPIN: std::time::Duration = std::time::Duration::from_micros(300);
    let now = std::time::Instant::now();
    if t > now + SPIN {
        std::thread::sleep(t - now - SPIN);
    }
    while std::time::Instant::now() < t {
        std::hint::spin_loop();
    }
}
