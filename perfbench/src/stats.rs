//! Quantiles that carry their sample count, and the metric sheet a run
//! prints.

/// A quantile is reported only when at least this many samples lie
/// beyond its rank; below that it would just be the maximum.
pub const MIN_TAIL: usize = 10;

/// One quantile of a sample, with the sample count it came from.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    /// The nearest-rank value, or `None` when fewer than [`MIN_TAIL`]
    /// samples lie beyond its rank.
    pub value: Option<f64>,
    /// Samples the quantile was taken over.
    pub n: usize,
}

/// The nearest-rank `q`-quantile of `samples` (`q` in `[0, 1]`).
pub fn quantile(samples: &[f64], q: f64) -> Quantile {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return Quantile { value: None, n };
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Quantile {
        value: (n - rank >= MIN_TAIL).then(|| sorted[rank - 1]),
        n,
    }
}

/// The plain median of a few repeated measurements (set-up times),
/// where the tail rule does not apply.
pub fn median(samples: &[f64]) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// The median of per-round values, skipping rounds without one — the
/// run's figure for a statistic taken round by round, so a transient
/// stall in one round does not move it.
pub fn median_of_rounds(per_round: &[Option<f64>]) -> Option<f64> {
    let values: Vec<f64> = per_round.iter().flatten().copied().collect();
    median(&values)
}

/// `part / whole`, or 0 when nothing was attempted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// A send more than this many ms behind its due instant is late.
const LATE_MS: f64 = 1.0;

/// Share of sends more than [`LATE_MS`] behind their due instant (the
/// schedule in the open loop; the moment a pipeline slot opened in the
/// closed loop).
pub fn late_share(send_lag_ms: &[f64]) -> f64 {
    let late = send_lag_ms.iter().filter(|&&l| l > LATE_MS).count();
    ratio(late as f64, send_lag_ms.len() as f64)
}

/// One named metric of a run.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Measured value (`None` = not enough samples).
    pub value: Option<f64>,
    /// Unit string.
    pub unit: &'static str,
    /// Sample count behind the value, where it is a statistic.
    pub n: Option<usize>,
}

/// The ordered metrics of one run.
#[derive(Debug, Default)]
pub struct Sheet {
    metrics: Vec<Metric>,
}

impl Sheet {
    /// Adds a plain value.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: Some(value),
            unit,
            n: None,
        });
    }

    /// Adds a quantile with its sample count.
    pub fn put_q(&mut self, name: &str, q: Quantile, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: q.value,
            unit,
            n: Some(q.n),
        });
    }

    /// Adds a value with the count of samples it summarizes.
    pub fn put_n(&mut self, name: &str, value: Option<f64>, n: usize, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            n: Some(n),
        });
    }

    /// Looks a metric up by name.
    pub fn get(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }

    /// Every metric in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Metric> {
        self.metrics.iter()
    }

    /// Prints one `metric <name> = <value> <unit> (n=..)` line per
    /// metric, under a heading.
    pub fn print(&self, heading: &str) {
        println!("# {heading}");
        for m in &self.metrics {
            let value = match m.value {
                Some(v) => format!("{v:.6}"),
                None => "null".to_string(),
            };
            match m.n {
                Some(n) => println!("metric {:<34} = {value} {} (n={n})", m.name, m.unit),
                None => println!("metric {:<34} = {value} {}", m.name, m.unit),
            }
        }
    }
}

/// Renders an `f64` for JSON (`null` for non-finite values).
pub fn json_num(v: Option<f64>) -> String {
    match v {
        Some(v) if v.is_finite() => format!("{v}"),
        _ => "null".to_string(),
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
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
    fn quantile_needs_ten_samples_beyond_its_rank() {
        let samples: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.95).value, Some(190.0));
        assert_eq!(quantile(&samples, 0.99).value, None);
        assert_eq!(quantile(&samples, 0.99).n, 200);
        assert_eq!(quantile(&samples[..20], 0.5).value, Some(10.0));
        assert_eq!(quantile(&samples[..19], 0.5).value, None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
