//! `dyncomp-perfbench` — the repository's end-to-end and per-layer host
//! benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold-start|hot-loop|serve-open> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` the run measures the workload with tracing off and
//! prints the end-to-end metrics; with `--trace 1` it replays the same
//! work with in-memory spans around every layer call and prints the
//! per-layer metrics. Every call result is checked against a host
//! reference that is not the compiler under test (see `oracle.rs`); a
//! mismatch or a failed operation makes the run exit non-zero. The last
//! line of standard output is one JSON object:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`.
//! README.md lists the workloads, the metrics and the layer → metric map.

mod cold;
mod hot;
mod jobs;
mod layers;
mod oracle;
mod serve;
mod spans;
mod stats;

use std::alloc::{GlobalAlloc, Layout, System};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// The system allocator, counting live bytes and their peak for
/// `peak_heap_mb`. The resident-set high-water mark is not steady enough
/// to gate: whether glibc keeps a freed 16 MiB session memory resident
/// depends on its dynamic mmap threshold, so `VmHWM` flips by 16 MiB
/// between runs of the same work. Every call forwards to `System`
/// unchanged (`alloc_zeroed` stays `calloc`), so the program allocates
/// as it would without the benchmark.
struct CountingAlloc;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static PEAK_BYTES: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE_BYTES.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every method passes its arguments unchanged to `System`, whose
// implementation meets the `GlobalAlloc` contract; the counters are
// statistics that no allocation depends on.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator (so from `System`) with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout` and `new_size`
        // meets `realloc`'s contract, as the caller guarantees.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
            grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Parsed command line.
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// How a run went: operation counts and the metrics it measured.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (calls, compiles, frames).
    pub attempted: u64,
    /// Operations that failed or returned a result the oracle rejects.
    pub failed: u64,
    /// First few failure descriptions, for the error stream.
    pub problems: Vec<String>,
    /// `(name, value, unit)` in output order: the metrics of this run.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Informational figures printed before the result line.
    pub info: Vec<(String, f64, &'static str)>,
    /// Informational text lines printed before the result line.
    pub notes: Vec<String>,
}

impl Report {
    /// Count one operation; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.problems.len() < 8 {
                self.problems.push(e);
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn info(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.info.push((name.into(), value, unit));
    }
}

/// Compare an observed value with its reference.
pub fn expect_eq(what: &str, got: u64, want: u64) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what}: got {} want {}", got as i64, want as i64))
    }
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<String, String> {
        let at = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(at + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<u64, String> {
        value(flag)?
            .parse()
            .map_err(|_| format!("{flag} needs a whole number"))
    };
    let workload = value("--workload")?;
    if !["cold-start", "hot-loop", "serve-open"].contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    let trace = match value("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds: number("--seconds")?.max(1),
        trace,
    })
}

/// Peak resident set size of this process in MB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// Time one call of `f`, in seconds.
pub fn timed<T>(f: impl FnOnce() -> Result<T, String>) -> Result<(f64, T), String> {
    let t0 = Instant::now();
    let value = f()?;
    Ok((t0.elapsed().as_secs_f64(), value))
}

/// `setup_s`: the median time of the run's own set-up (`first`) and of
/// four more set-ups made by `again` after the measured phase, so that a
/// burst of noise from other tenants of the host at one moment does not
/// set it.
pub fn setup_seconds<T>(
    first: f64,
    mut again: impl FnMut() -> Result<T, String>,
) -> Result<f64, String> {
    let mut times = vec![first];
    for _ in 0..4 {
        times.push(timed(&mut again)?.0);
    }
    Ok(stats::median(&times))
}

/// Turn a traced run's spans into the per-layer metrics.
///
/// A layer the workload does not reach itself (the server on
/// `cold-start`, persistence on `hot-loop`, the native backend on
/// `serve-open`, …) is measured by a probe instead: a few traced
/// cold-start jobs and a short serve-open stream, recorded separately.
/// Which metrics came from the probe is printed; README.md's layer table
/// names the workload each metric belongs to.
pub fn finish_traced(args: &Args, report: &mut Report, spans: spans::Spans) -> Result<(), String> {
    let mut values = layers::per_layer(&spans);
    let missing = |values: &[f64], server: bool| {
        layers::PER_LAYER.iter().zip(values).any(|((name, _), v)| {
            v.is_nan() && (name.starts_with("server.") || name.starts_with("cache.")) == server
        })
    };
    let mut probe = spans::Spans::new(true);
    if missing(&values, false) {
        cold::probe(&mut probe, args.seed)?;
    }
    if missing(&values, true) {
        serve::probe(&mut probe, args.seed)?;
    }
    let probed = layers::per_layer(&probe);
    let mut from_probe = Vec::new();
    for (i, (name, unit)) in layers::PER_LAYER.iter().enumerate() {
        if values[i].is_nan() {
            values[i] = probed[i];
            from_probe.push(*name);
        }
        if values[i].is_nan() {
            report.check(Err(format!("layer metric {name} was not measured")));
        }
        report.metric(name, values[i], unit);
    }
    report
        .notes
        .push(format!("measured by the probe: {}", from_probe.join(" ")));
    let out = std::path::Path::new(".bench_work");
    let name = format!("spans-{}", args.workload);
    spans
        .write_jsonl(&out.join(format!("{name}.jsonl")))
        .and_then(|()| probe.write_jsonl(&out.join(format!("{name}-probe.jsonl"))))
        .map_err(|e| format!("writing spans: {e}"))?;
    report
        .notes
        .push(format!("spans written to .bench_work/{name}.jsonl"));
    Ok(())
}

/// Directory for this run's scratch files, inside the working directory.
pub fn work_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_work").join(format!("run-{}", std::process::id()))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <cold-start|hot-loop|serve-open> --seed N --seconds S --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let budget = Duration::from_secs(args.seconds);
    let run = match args.workload.as_str() {
        "cold-start" => cold::run(&args, budget),
        "hot-loop" => hot::run(&args, budget),
        _ => serve::run(&args, budget),
    };
    let _ = std::fs::remove_dir_all(work_dir());
    let mut report = match run {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    if !args.trace {
        let peak = PEAK_BYTES.load(Ordering::Relaxed) as f64;
        report.metric("peak_heap_mb", peak / (1024.0 * 1024.0), "MB");
        match peak_rss_mb() {
            Ok(mb) => report.info("peak_rss_mb", mb, "MB"),
            Err(e) => report.check(Err(e)),
        }
    }
    for (name, value, _) in &report.metrics {
        if !value.is_finite() {
            report.failed += 1;
            eprintln!("perfbench: metric {name} is {value}");
        }
    }
    let failed_frac = report.failed as f64 / report.attempted.max(1) as f64;
    report.info("failed_frac", failed_frac, "frac");

    for note in &report.notes {
        println!("# {note}");
    }
    for (name, value, unit) in &report.info {
        println!(
            "# {:<34} {value:>16.4} {unit}",
            format!("{}.{name}", args.workload)
        );
    }
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { -1.0 };
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
