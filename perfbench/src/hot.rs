//! `hot-loop`: the paper-scale Table 2 configurations plus protomsg and
//! queryexec at `inline_bench` scale, each run on three paths — static
//! code on the VM, dynamic code on the VM, and dynamic code on the native
//! backend with chaining — and timed call by call after the first.
//!
//! Compilation happens in set-up, so the timed phase is execution: the
//! stitcher appears only through first calls and smatmul's per-scalar
//! keyed stitches. Every result is checked against a host reference, the
//! three paths must agree on every result and the two dynamic paths on
//! every simulated cycle, and the first pass cross-checks simulated
//! cycles and checksums against the committed `BENCH_table2.json` and
//! `BENCH_inline.json`.

use crate::layers;
use crate::oracle;
use crate::spans::Spans;
use crate::stats::{best, geomean, median, percentile};
use crate::{expect_eq, setup_seconds, timed, Args, Report};
use dyncomp::server::fold_checksum;
use dyncomp::{Compiler, EngineOptions, KernelSetup, Program, Session};
use dyncomp_bench::kernels::{calculator, dispatch, protomsg, queryexec, smatmul, sorter, spmv};
use std::sync::Arc;
use std::time::{Duration, Instant};

const TABLE2: &str = include_str!("../../BENCH_table2.json");
const INLINE: &str = include_str!("../../BENCH_inline.json");

/// Reference result of call `i`, given the call's arguments.
type Reference = Box<dyn Fn(u64, &[u64]) -> u64>;

struct Config {
    name: &'static str,
    setup: KernelSetup<'static>,
    /// Inline depth the dynamic program is compiled with.
    depth: u32,
    /// The committed row this configuration must reproduce: its line in
    /// `BENCH_table2.json`, or its object in `BENCH_inline.json`.
    committed: Committed,
    reference: Reference,
    static_prog: Arc<Program>,
    dyn_prog: Arc<Program>,
}

enum Committed {
    Table2(usize),
    Inline(&'static str),
}

/// The nine configurations, compiled (static baseline and dynamic).
fn compile_configs() -> Result<Vec<Config>, String> {
    let spmv_ref = |n: u64, per_row: u64| -> Reference {
        let chk = spmv::reference_checksum(&spmv::gen_matrix(n, per_row, 42)) as u64;
        Box::new(move |_, _| chk)
    };
    let sorter_ref = |nkeys: u64| -> Reference {
        let chk = oracle::sorter_checksum(&sorter::gen_records(500, nkeys, 5));
        Box::new(move |_, _| chk)
    };
    let guards = dispatch::gen_guards(10, 11);
    let layout = protomsg::gen_layout(16, 17);
    let msgs: Vec<Vec<i64>> = (0..protomsg::MSG_ROTATION)
        .map(|m| protomsg::gen_msg(16, 100 + m))
        .collect();
    let query_chk = queryexec::reference(
        &queryexec::gen_query(12, queryexec::WIDTH, 23),
        &queryexec::gen_rows(200, queryexec::WIDTH, 29),
    ) as u64;
    let rows: Vec<(&str, KernelSetup<'static>, u32, Committed, Reference)> = vec![
        (
            "calculator",
            calculator::setup(2000),
            0,
            Committed::Table2(0),
            Box::new(|_, a| calculator::expected(a[1] as i64, a[2] as i64) as u64),
        ),
        (
            "smatmul",
            smatmul::setup(100, 800, 100),
            0,
            Committed::Table2(1),
            Box::new(|_, a| oracle::smatmul_last(a[1], a[0])),
        ),
        (
            "spmv-200",
            spmv::setup(200, 10, 300),
            0,
            Committed::Table2(2),
            spmv_ref(200, 10),
        ),
        (
            "spmv-96",
            spmv::setup(96, 5, 300),
            0,
            Committed::Table2(3),
            spmv_ref(96, 5),
        ),
        (
            "dispatch",
            dispatch::setup(10, 2000),
            0,
            Committed::Table2(4),
            Box::new(move |_, a| dispatch::reference(&guards, a[1] as i64, a[2] as i64) as u64),
        ),
        (
            "sorter-4",
            sorter::setup(500, 4, 20),
            0,
            Committed::Table2(5),
            sorter_ref(4),
        ),
        (
            "sorter-12",
            sorter::setup(500, 12, 20),
            0,
            Committed::Table2(6),
            sorter_ref(12),
        ),
        (
            "protomsg",
            protomsg::setup(16, 2000),
            2,
            Committed::Inline("Protocol message field decoder"),
            Box::new(move |i, _| {
                protomsg::reference(&layout, &msgs[(i % protomsg::MSG_ROTATION) as usize]) as u64
            }),
        ),
        (
            "queryexec",
            queryexec::setup(12, 200, 50),
            2,
            Committed::Inline("Query-compiler row filter"),
            Box::new(move |_, _| query_chk),
        ),
    ];
    rows.into_iter()
        .map(|(name, setup, depth, committed, reference)| {
            let compile = |c: Compiler| {
                c.compile(setup.src)
                    .map(Arc::new)
                    .map_err(|e| format!("{name}: compile: {e}"))
            };
            let static_prog = compile(Compiler::static_baseline())?;
            let dyn_prog = compile(if depth == 0 {
                Compiler::new()
            } else {
                Compiler::with_inline_depth(depth)
            })?;
            Ok(Config {
                name,
                setup,
                depth,
                committed,
                reference,
                static_prog,
                dyn_prog,
            })
        })
        .collect()
}

/// One path's run of one configuration.
struct PathRun {
    /// Host ns of every call after the first.
    call_ns: Vec<f64>,
    /// Host ns of the first call alone.
    first_ns: f64,
    results: Vec<u64>,
    /// Simulated cycles of all calls, and of the calls after the first.
    call_cycles: u64,
    rest_cycles: u64,
    session: Session,
}

/// Run every call of `c` on a fresh session of `program`, checking each
/// result against the reference. Calls after the first are recorded as
/// `span` spans when tracing.
fn run_path(
    spans: &mut Spans,
    c: &Config,
    program: &Arc<Program>,
    options: EngineOptions,
    span: &'static str,
    job: u64,
) -> Result<PathRun, String> {
    let mut s = Session::with_options(Arc::clone(program), options);
    let prepared = (c.setup.prepare)(&mut s);
    let n = c.setup.iterations;
    let mut results = Vec::with_capacity(n as usize);
    let mut call_ns = Vec::with_capacity(n as usize);
    let (mut first_ns, mut call_cycles, mut rest_cycles) = (0.0, 0, 0);
    for i in 0..n {
        let args = (c.setup.args)(i, &prepared);
        let before = s.cycles();
        let start = Instant::now();
        let r = s
            .call(c.setup.func, &args)
            .map_err(|e| format!("{} call {i}: {e}", c.name))?;
        let ns = start.elapsed().as_nanos() as f64;
        let cycles = s.cycles() - before;
        call_cycles += cycles;
        if i == 0 {
            first_ns = ns;
        } else {
            rest_cycles += cycles;
            call_ns.push(ns);
            spans.record_ns(span, job, ns);
        }
        expect_eq(&format!("{} call {i}", c.name), r, (c.reference)(i, &args))?;
        results.push(r);
    }
    Ok(PathRun {
        call_ns,
        first_ns,
        results,
        call_cycles,
        rest_cycles,
        session: s,
    })
}

/// The committed simulated figures of a configuration:
/// `(static_cycles, dynamic_cycles, checksum)` as written in the file.
fn committed(c: &Config) -> Result<(String, String, String), String> {
    let field = |obj: &str, key: &str| -> Result<String, String> {
        let at = obj
            .find(&format!("\"{key}\": "))
            .ok_or_else(|| format!("{}: committed row has no {key}", c.name))?;
        let rest = &obj[at + key.len() + 4..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        Ok(rest[..end].trim().to_string())
    };
    match c.committed {
        Committed::Table2(row) => {
            let line = TABLE2
                .lines()
                .filter(|l| l.trim_start().starts_with('{'))
                .nth(row)
                .ok_or_else(|| format!("{}: BENCH_table2.json has no row {row}", c.name))?;
            Ok((
                field(line, "static_cycles")?,
                field(line, "dynamic_cycles")?,
                field(line, "checksum")?,
            ))
        }
        Committed::Inline(name) => {
            let line = INLINE
                .lines()
                .find(|l| l.contains(&format!("\"name\": \"{name}\"")))
                .ok_or_else(|| format!("{}: BENCH_inline.json has no row {name}", c.name))?;
            let inlined = &line[line
                .find("\"inline\": {")
                .ok_or("BENCH_inline.json row has no inline object")?..];
            Ok((
                field(line, "static_cycles")?,
                field(inlined, "dynamic_cycles")?,
                field(inlined, "checksum")?,
            ))
        }
    }
}

/// Cross-check one configuration's simulated figures against the
/// committed artifact (the same formulas `measure_kernel_full` uses).
fn cross_check(c: &Config, stat: &PathRun, dynamic: &PathRun) -> Result<(), String> {
    let n = c.setup.iterations as f64;
    let setup: u64 = (0..c.dyn_prog.region_count())
        .map(|r| dynamic.session.region_report(r).setup_cycles)
        .sum();
    let checksum = dynamic
        .results
        .iter()
        .fold(0u64, |acc, &r| fold_checksum(acc, r));
    let ours = (
        format!("{:.4}", stat.call_cycles as f64 / n),
        format!(
            "{:.4}",
            dynamic.call_cycles.saturating_sub(setup) as f64 / n
        ),
        checksum.to_string(),
    );
    let theirs = committed(c)?;
    if ours == theirs {
        Ok(())
    } else {
        Err(format!(
            "{}: (static cycles, dynamic cycles, checksum) {ours:?} differ from the committed {theirs:?}",
            c.name
        ))
    }
}

/// What the run keeps per configuration.
#[derive(Default)]
struct PerConfig {
    /// Call cycles and results of the first dynamic run (VM or native);
    /// every later dynamic run must match them.
    seen: Option<(u64, Vec<u64>)>,
    /// Median host ns per call of each static-VM, dynamic-VM and native
    /// run, and each native run's first call in ns (set-up, stitching,
    /// native translation and the first run; the session and its data are
    /// built before it, so this workload's time to first result leaves out
    /// the session's memory allocation, which cold-start measures).
    static_ns: Vec<f64>,
    vm_ns: Vec<f64>,
    native_ns: Vec<f64>,
    first_ns: Vec<f64>,
    /// Static over dynamic simulated cycles per call (Table 2's speedup).
    sim_speedup: f64,
}

impl PerConfig {
    fn agree(&mut self, name: &str, run: &PathRun) -> Result<(), String> {
        match &self.seen {
            None => {
                self.seen = Some((run.call_cycles, run.results.clone()));
                Ok(())
            }
            Some((cycles, results)) if *cycles == run.call_cycles && *results == run.results => {
                Ok(())
            }
            Some(_) => Err(format!(
                "{name}: native and VM runs disagree on results or simulated cycles"
            )),
        }
    }
}

/// Static and dynamic VM runs of one configuration; the first one of each
/// configuration is cross-checked against the committed artifact.
fn vm_paths(spans: &mut Spans, c: &Config, job: u64, per: &mut PerConfig) -> Result<(), String> {
    let stat = run_path(
        spans,
        c,
        &c.static_prog,
        EngineOptions::default(),
        "vm.static_call",
        job,
    )?;
    let dynamic = run_path(
        spans,
        c,
        &c.dyn_prog,
        EngineOptions::default(),
        "vm.call",
        job,
    )?;
    per.agree(c.name, &dynamic)?;
    if per.static_ns.is_empty() {
        cross_check(c, &stat, &dynamic)?;
    }
    spans.count("vm.sim_cycles", dynamic.rest_cycles as f64);
    per.static_ns.push(median(&stat.call_ns));
    per.vm_ns.push(median(&dynamic.call_ns));
    let n = c.setup.iterations as f64;
    let setup: u64 = (0..c.dyn_prog.region_count())
        .map(|r| dynamic.session.region_report(r).setup_cycles)
        .sum();
    per.sim_speedup =
        (stat.call_cycles as f64 / n) / (dynamic.call_cycles.saturating_sub(setup) as f64 / n);
    Ok(())
}

/// One round: the native path of every configuration, then both VM paths
/// of configuration `round % 9`.
fn round(
    spans: &mut Spans,
    configs: &[Config],
    per: &mut [PerConfig],
    round: usize,
    report: &mut Report,
) {
    let native = EngineOptions {
        native: true,
        ..EngineOptions::default()
    };
    for (job, c) in configs.iter().enumerate() {
        let outcome = (|| {
            let mut run = run_path(
                spans,
                c,
                &c.dyn_prog,
                native.clone(),
                "native.call",
                job as u64,
            )?;
            per[job].agree(c.name, &run)?;
            per[job].first_ns.push(run.first_ns);
            per[job].native_ns.push(median(&run.call_ns));
            if spans.enabled() && round == 0 {
                spans.record_ns("first_call", job as u64, run.first_ns);
                layers::session_layers(spans, job as u64, &mut run.session)?;
            }
            Ok(())
        })();
        report.check(outcome);
    }
    let v = round % configs.len();
    report.check(vm_paths(spans, &configs[v], v as u64, &mut per[v]));
}

pub fn run(args: &Args, budget: Duration) -> Result<Report, String> {
    let (first_setup, configs) = timed(compile_configs)?;
    let mut report = Report::default();
    let mut per: Vec<PerConfig> = configs.iter().map(|_| PerConfig::default()).collect();
    let mut spans = Spans::new(args.trace);
    if args.trace {
        let native = EngineOptions {
            native: true,
            ..EngineOptions::default()
        };
        layers::overhead(&mut spans, |recorder| {
            for (job, c) in configs.iter().enumerate() {
                run_path(
                    recorder,
                    c,
                    &c.dyn_prog,
                    native.clone(),
                    "native.call",
                    job as u64,
                )?;
            }
            Ok(())
        })?;
        for (job, c) in configs.iter().enumerate() {
            if c.depth == 0 {
                let code = layers::replay_pipeline(&mut spans, job as u64, c.setup.src)?;
                report.check(if code == c.dyn_prog.compiled.code {
                    Ok(())
                } else {
                    Err(format!(
                        "{}: pipeline replay emitted different code than Compiler::compile",
                        c.name
                    ))
                });
            }
        }
    }
    // At least one round per configuration, so every VM path runs and
    // every configuration is cross-checked; a traced run makes just those
    // (its per-call spans would otherwise fill tens of megabytes).
    let deadline = Instant::now() + budget;
    let mut r = 0;
    while r < configs.len() || (!args.trace && Instant::now() < deadline) {
        round(&mut spans, &configs, &mut per, r, &mut report);
        r += 1;
    }
    if args.trace {
        crate::finish_traced(args, &mut report, spans)?;
        return Ok(report);
    }

    // Each configuration's best round (see `stats::best`), then across the
    // configurations.
    let best_us = |v: &[f64]| best(v) / 1e3;
    let ttfr_ms: Vec<f64> = per.iter().map(|p| best_us(&p.first_ns) / 1e3).collect();
    let native: Vec<f64> = per.iter().map(|p| best_us(&p.native_ns)).collect();
    let vm: Vec<f64> = per.iter().map(|p| best_us(&p.vm_ns)).collect();
    let host_speedup: Vec<f64> = per
        .iter()
        .map(|p| best_us(&p.static_ns) / best_us(&p.vm_ns))
        .collect();
    let sim_speedup: Vec<f64> = per.iter().map(|p| p.sim_speedup).collect();
    report.metric("setup_s", setup_seconds(first_setup, compile_configs)?, "s");
    report.metric("ttfr_p50_ms", median(&ttfr_ms), "ms");
    report.metric("ttfr_p99_ms", percentile(&ttfr_ms, 99.0), "ms");
    report.metric("call_us_geomean", geomean(&native), "us");
    report.info("rounds", r as f64, "count");
    report.info("native_call_us_geomean", geomean(&native), "us");
    report.info("vm_call_us_geomean", geomean(&vm), "us");
    report.info("host_speedup_vm_geomean", geomean(&host_speedup), "x");
    report.info("sim_speedup_geomean", geomean(&sim_speedup), "x");
    for (c, p) in configs.iter().zip(&per) {
        report.info(format!("{}.native_us", c.name), best_us(&p.native_ns), "us");
        report.info(format!("{}.vm_us", c.name), best_us(&p.vm_ns), "us");
        report.info(
            format!("{}.static_vm_us", c.name),
            best_us(&p.static_ns),
            "us",
        );
        report.info(format!("{}.sim_speedup", c.name), p.sim_speedup, "x");
    }
    Ok(report)
}
