//! One benchmark for the embedstab workspace: three workloads driven in one
//! process through the library crates' public APIs.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload grid_train|measure_select|serve_churn --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans; `--trace 1`
//! runs the traced variant and reports the per-layer metrics. Standard
//! output ends with a stamp line (`{"stamp": ...}`: environment, scale and
//! workload facts) and, last, the result object
//! `{"correct", "attempted", "failed", "metrics"}`. A failed output check
//! prints the result with `"correct": false` and exits 1. See
//! `perfbench/README.md` for the workloads and every metric.

mod grid;
mod serve;
mod setup;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::{Command, ExitCode};

const USAGE: &str = "usage: perfbench --workload grid_train|measure_select|serve_churn \
                     --seed N --seconds S --trace 0|1";

/// End-to-end metrics, reported by every workload with tracing off.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("work_s", "s"),
    ("op_latency_us", "us"),
];

/// Per-layer metrics, reported by every workload in the traced run; a
/// layer the workload does not touch reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("corpus.temporal_pair_build_s", "s"),
    ("embeddings.corpus_stats_s", "s"),
    ("downstream.dataset_gen_s", "s"),
    ("embeddings.train_s.cbow", "s"),
    ("embeddings.train_s.glove", "s"),
    ("embeddings.train_s.mc", "s"),
    ("embeddings.train_calls", "count"),
    ("embeddings.align_s", "s"),
    ("quant.quantize_pair_s", "s"),
    ("downstream.train_eval_s.sst2", "s"),
    ("downstream.train_eval_s.subj", "s"),
    ("downstream.train_eval_s.ner", "s"),
    ("downstream.train_eval_calls.sst2", "count"),
    ("downstream.train_eval_calls.subj", "count"),
    ("downstream.train_eval_calls.ner", "count"),
    ("pipeline.pool_busy_frac", "frac"),
    ("core.measures.reference_s", "s"),
    ("core.measures.basis_s", "s"),
    ("core.measures.eis_s", "s"),
    ("core.measures.knn_s", "s"),
    ("core.measures.displacement_s", "s"),
    ("core.measures.pip_s", "s"),
    ("core.measures.overlap_s", "s"),
    ("core.selection_s", "s"),
    ("core.selection.eis_mean_gap", "frac"),
    ("serve.capacity_qps", "1/s"),
    ("serve.quiet_p50_us", "us"),
    ("serve.quiet_p99_us", "us"),
    ("serve.lookup_p50_us", "us"),
    ("serve.lookup_p99_us", "us"),
    ("serve.nearest_p50_us", "us"),
    ("serve.nearest_p99_us", "us"),
    ("serve.snapshot.lookup_batch_us", "us"),
    ("serve.snapshot.nearest_batch_us", "us"),
    ("serve.queue_wire_us", "us"),
    ("serve.errors_by_code.overloaded", "count"),
    ("serve.errors_by_code.other", "count"),
    ("serve.refused", "count"),
    ("serve.gate_score_ms", "ms"),
    ("serve.promote_ms", "ms"),
    ("stream.ingest_ms", "ms"),
    ("stream.refresh_ms", "ms"),
    ("stream.retrain_ms", "ms"),
    ("stream.steps", "count"),
    ("stream.gate_rejects", "count"),
    ("loadgen.lag_us_p99", "us"),
    ("trace.overhead_s", "s"),
    ("trace.span_coverage", "frac"),
    ("trace.intended_share", "frac"),
];

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Output checks: every checked operation counts as attempted, every
/// failing one as failed (with its reason printed).
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Records one checked operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: CHECK FAILED: {}", what());
        }
    }

    /// Records `n` operations of which `failed` failed.
    pub fn count(&mut self, n: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += n;
        if failed > 0 {
            self.failed += failed;
            eprintln!("perfbench: CHECK FAILED: {failed} of {n} {}", what());
        }
    }
}

/// What a workload hands back: its checks, metric values by name, and
/// workload facts for the stamp line (values as JSON text).
#[derive(Default)]
pub struct Report {
    pub checks: Checks,
    pub values: BTreeMap<&'static str, f64>,
    pub stamp: Vec<(&'static str, String)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets every per-layer metric in seconds that `spans` recorded.
    pub fn set_span_secs(&mut self, spans: &trace::Spans) {
        for &(name, unit) in PER_LAYER {
            let secs = spans.secs(name);
            if unit == "s" && secs > 0.0 {
                self.set(name, secs);
            }
        }
    }

    /// Sets `trace.span_coverage`: span time over the worker capacity of
    /// the traced phases, `wall` seconds on the calling thread plus what
    /// the pool sections added.
    pub fn set_coverage(&mut self, spans: &trace::Spans, wall: f64) {
        self.set(
            "trace.span_coverage",
            spans.total() / (wall + spans.pool_extra()),
        );
    }
}

/// Worker threads of the pipeline pool: `EMBEDSTAB_THREADS`, which `main`
/// pins to the machine's available parallelism.
pub fn threads() -> usize {
    std::env::var(embedstab_pipeline::pool::THREADS_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = value("--workload")?.to_string();
    if !["grid_train", "measure_select", "serve_churn"].contains(&workload.as_str()) {
        return Err(format!("unknown workload '{workload}'"));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not '{other}'")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The machine's CPU time counters so far (`/proc/stat`): (steal, total)
/// in clock ticks. Steal is time the hypervisor gave this VM's CPUs to
/// others while they had work.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let ticks: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|t| t.parse().ok())
        .collect::<Option<_>>()?;
    // Fields: user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    Some((*ticks.get(7)?, ticks.iter().take(8).sum()))
}

/// First line of a command's standard output, or "unknown".
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

fn json_str(s: &str) -> String {
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

fn stamp_line(args: &Args, report: &Report) -> String {
    let p = setup::params();
    let commit = if std::path::Path::new(".git").exists() {
        command_line("git", &["rev-parse", "HEAD"])
    } else {
        "unknown (not a git checkout)".into()
    };
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let precisions: Vec<String> = p.precisions.iter().map(|x| x.bits().to_string()).collect();
    let mut fields = vec![
        ("workload", json_str(&args.workload)),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", nproc().to_string()),
        ("embedstab_threads", threads().to_string()),
        (
            "scale",
            format!(
                "{{\"name\": \"small\", \"vocab_size\": {}, \"corpus_tokens\": {}, \
                 \"window\": {}, \"dims\": {:?}, \"precision_bits\": [{}]}}",
                p.vocab_size,
                p.corpus_tokens,
                p.window,
                p.dims,
                precisions.join(", ")
            ),
        ),
        ("rustc", json_str(&command_line(&rustc, &["--version"]))),
        ("commit", json_str(&commit)),
    ];
    fields.extend(report.stamp.iter().cloned());
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    format!("{{\"stamp\": {{{}}}}}", body.join(", "))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Pin the pipeline pool to the machine's cores before any pool starts.
    std::env::set_var(embedstab_pipeline::pool::THREADS_ENV, nproc().to_string());

    let ticks_before = cpu_ticks();
    let mut report = match args.workload.as_str() {
        "grid_train" => grid::grid_train(&args),
        "measure_select" => grid::measure_select(&args),
        _ => serve::serve_churn(&args),
    };
    // Host contention: the share of the run's CPU time the hypervisor
    // stole. Timings from a run with a high share say more about the host
    // than about the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (ticks_before, cpu_ticks()) {
        let steal = (s1 - s0) as f64 / (t1 - t0).max(1) as f64;
        report.stamp.push(("host_steal_frac", steal.to_string()));
    }
    let Some(rss) = peak_rss_mb() else {
        eprintln!("perfbench: cannot read peak RSS from /proc/self/status");
        return ExitCode::from(1);
    };
    let checks = &report.checks;
    let ok_frac = 1.0 - checks.failed as f64 / checks.attempted.max(1) as f64;
    report.set("peak_rss_mb", rss);
    report.set("ok_frac", ok_frac);

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut correct = report.checks.failed == 0 && report.checks.attempted > 0;
    let mut metrics = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match report.values.get(name) {
            Some(&v) => v,
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: workload did not measure {name}");
                correct = false;
                0.0
            }
        };
        if !value.is_finite() {
            eprintln!("perfbench: {name} is not finite ({value})");
            correct = false;
        }
        let value = if value.is_finite() { value } else { 0.0 };
        eprintln!("  {name:<34} {value:>16.6} {unit}");
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!("{}", stamp_line(&args, &report));
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.checks.attempted.max(1),
        report.checks.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
