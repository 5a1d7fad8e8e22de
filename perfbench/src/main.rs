//! The repository benchmark: one binary, three workloads.
//!
//! ```text
//! perfbench --workload <batch_adhoc|serve_live|ingest_flood> --seed N
//!           --seconds S --trace <0|1> [--tiny] [--out-dir DIR]
//! perfbench serve-child --workload <serve_live|ingest_flood> --seed N [--tiny]
//! ```
//!
//! A run prints a report (every metric by name with its unit and
//! sample count), then, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics untraced, the per-layer metrics traced. `serve-child` is the
//! server process the server workloads start.

mod batch;
mod live;
mod probe;
mod stats;
mod trace;
mod world;

use std::path::PathBuf;

use stats::{json_num, json_str, Sheet};
use trace::Tracer;

/// The end-to-end metrics every workload reports untraced, in
/// `BENCHMARK.json` order.
pub const END_TO_END: [&str; 5] = [
    "setup_s",
    "latency_ms_p50",
    "latency_ms_p90",
    "throughput_per_s",
    "peak_rss_mb",
];

/// Command-line arguments of a run.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Tiny inputs for the self-test.
    pub tiny: bool,
    /// Where the traced run writes its spans.
    pub out_dir: PathBuf,
}

/// What a workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (queries, batches, boundaries, checks).
    pub attempted: u64,
    /// Operations that failed or were refused, and failed checks.
    pub failed: u64,
    /// An open-loop run whose backlog grew: its latencies are invalid.
    pub overloaded: bool,
    /// The workload's own metrics by the names reports quote them.
    pub report: Sheet,
    /// The end-to-end metrics ([`END_TO_END`]).
    pub e2e: Sheet,
    /// The per-layer metrics (traced runs only).
    pub layers: Sheet,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        tiny: false,
        out_dir: PathBuf::from(".bench_build/perfbench"),
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?.clone(),
            "--seed" => args.seed = value()?.parse().map_err(|_| "--seed: not an integer")?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|_| "--seconds: not a number")?;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace: expected 0 or 1, got {other:?}")),
                }
            }
            "--tiny" => args.tiny = true,
            "--out-dir" => args.out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_string());
    }
    Ok(args)
}

/// Peak resident set (VmHWM) of this process, MB.
pub fn vm_hwm_mb() -> Result<f64, String> {
    let path = "/proc/self/status";
    let status = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("{path}: no VmHWM line"))
}

fn result_line(correct: bool, outcome: &Outcome, sheet: &Sheet) -> String {
    let metrics: Vec<String> = sheet
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        metrics.join(", ")
    )
}

/// Milliseconds a fixed single-threaded integer loop takes (median of
/// five). Shared hosts change speed between runs; printing this with
/// every run tells a slow host apart from a slow program.
fn host_spin_ms() -> f64 {
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let t = std::time::Instant::now();
            let mut x = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..std::hint::black_box(5_000_000u32) {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

fn run(args: &Args) -> Result<bool, String> {
    let tracer = Tracer::new(args.trace);
    let spin_start = host_spin_ms();
    let outcome = match args.workload.as_str() {
        "batch_adhoc" => batch::run(args, &tracer)?,
        "serve_live" | "ingest_flood" => live::run(args, &tracer)?,
        other => return Err(format!("unknown workload {other:?}")),
    };
    let mut host = Sheet::default();
    host.put("host.spin_ms_start", spin_start, "ms");
    host.put("host.spin_ms_end", host_spin_ms(), "ms");
    host.print("host speed (a fixed integer loop; lower is a faster host)");
    outcome
        .report
        .print(&format!("{} (seed {})", args.workload, args.seed));
    let sheet = if args.trace {
        let path = args
            .out_dir
            .join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        tracer.print_report();
        println!("trace spans written to {}", path.display());
        outcome.e2e.print("end-to-end metrics under tracing");
        outcome.layers.print("per-layer metrics (traced run)");
        &outcome.layers
    } else {
        outcome.e2e.print("end-to-end metrics");
        &outcome.e2e
    };
    // Every reported metric needs its samples; a null end-to-end value
    // (too few samples beyond a quantile) is a failed run, not a number.
    let complete = args.trace
        || END_TO_END
            .iter()
            .all(|n| sheet.get(n).is_some_and(|m| m.value.is_some()));
    if outcome.overloaded {
        println!(
            "over capacity: the acked-record backlog grew across the run; latencies are not valid"
        );
    }
    let correct = outcome.failed == 0 && !outcome.overloaded && complete;
    println!("{}", result_line(correct, &outcome, sheet));
    Ok(correct)
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = if raw.first().map(String::as_str) == Some("serve-child") {
        parse_args(&raw[1..]).and_then(|a| live::serve_child(&a))
    } else {
        parse_args(&raw).and_then(|a| run(&a).map(|_| ()))
    };
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
