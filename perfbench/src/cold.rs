//! `cold-start`: a seeded stream of compile-and-run jobs.
//!
//! Each job compiles its kernel, opens a `Session` with the native
//! backend on, builds its run-time-constant data and makes a handful of
//! calls; time to first result runs from the start of the compile to the
//! first call's return. Every job runs twice: *cold*, with no cache of
//! any kind, and *warm*, from a persist directory the set-up populated
//! (artifact load, then stitched instances loaded instead of stitched).
//! Set-up writes the persist directories, so the fsyncs of the store
//! path land in `setup_s` and not in the timed phase; set-up also runs
//! every job on the VM with native off, and the timed native results
//! must equal those VM results as well as the host reference.

use crate::jobs::{Job, CALLS, KERNELS};
use crate::layers;
use crate::spans::Spans;
use crate::stats::{best, geomean, median, percentile};
use crate::{setup_seconds, timed, work_dir, Args, Report};
use dyncomp::{Compiler, EngineOptions, PersistentCache, Session};
use dyncomp_ir::prng::SplitMix64;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Jobs in the seeded pool; the timed phase cycles through it.
const POOL: usize = 42;

/// The job pool with its populated persist directories.
pub struct Pool {
    jobs: Vec<Job>,
    /// Results of every call on the VM (native off), from set-up.
    vm_results: Vec<Vec<u64>>,
    dirs: Vec<PathBuf>,
}

/// Generate `size` jobs from `seed` — the seven kernels in turn, each
/// over evenly spread size strata, in a seeded order — and populate one
/// persist directory per job under `root` by running the job on the VM
/// with persistence on.
pub fn setup(seed: u64, size: usize, root: &Path) -> Result<Pool, String> {
    let mut rng = SplitMix64::new(seed);
    let strata = size.div_ceil(KERNELS.len()) as u64;
    let mut jobs: Vec<Job> = (0..size)
        .map(|i| {
            let stratum = (i / KERNELS.len()) as u64;
            Job::generate(0, i % KERNELS.len(), stratum, strata, &mut rng)
        })
        .collect();
    for i in (1..jobs.len()).rev() {
        jobs.swap(i, rng.below(i as u64 + 1) as usize);
    }
    for (i, job) in jobs.iter_mut().enumerate() {
        job.id = i as u64;
    }
    let mut vm_results = Vec::with_capacity(jobs.len());
    let mut dirs = Vec::with_capacity(jobs.len());
    for job in &jobs {
        let dir = root.join(format!("job{}", job.id));
        let cache = open_cache(&dir)?;
        let (program, _) = cache
            .load_or_compile(&job.compiler(), job.src())
            .map_err(|e| format!("job {} compile: {e}", job.id))?;
        let mut s = Session::with_options(
            Arc::new(program),
            EngineOptions {
                persist: Some(cache),
                ..EngineOptions::default()
            },
        );
        let prepared = job.prepare(&mut s);
        let mut results = Vec::with_capacity(CALLS);
        job.run_calls(&mut s, &prepared, 0..CALLS, &mut results)?;
        vm_results.push(results);
        dirs.push(dir);
    }
    Ok(Pool {
        jobs,
        vm_results,
        dirs,
    })
}

fn open_cache(dir: &Path) -> Result<Arc<PersistentCache>, String> {
    PersistentCache::open(dir)
        .map(Arc::new)
        .map_err(|e| format!("persist dir {}: {e}", dir.display()))
}

fn native() -> EngineOptions {
    EngineOptions {
        native: true,
        ..EngineOptions::default()
    }
}

/// What one cold or warm job measured.
pub struct Outcome {
    pub ttfr_ns: f64,
    /// Host time of each call after the first.
    pub call_ns: Vec<f64>,
    pub results: Vec<u64>,
    pub program: Arc<dyncomp::Program>,
    pub session: Session,
}

/// The cold run: compile, session with native on, data, calls.
fn cold_job(spans: &mut Spans, job: &Job) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let program = spans
        .span("compile", job.id, |_| job.compiler().compile(job.src()))
        .map_err(|e| format!("job {} compile: {e}", job.id))?;
    let program = Arc::new(program);
    let s = Session::with_options(Arc::clone(&program), native());
    calls(spans, job, t0, program, s)
}

/// The warm run: the artifact comes from the job's persist directory and
/// stitched instances are loaded on region entry.
fn warm_job(spans: &mut Spans, job: &Job, dir: &Path) -> Result<Outcome, String> {
    let t0 = Instant::now();
    let cache = open_cache(dir)?;
    let hash = job.compiler().artifact_hash(job.src());
    let program = spans
        .span("persist.load_program", job.id, |_| cache.load_program(hash))
        .ok_or_else(|| format!("job {}: warm run found no persisted artifact", job.id))?;
    let program = Arc::new(program);
    let options = EngineOptions {
        persist: Some(Arc::clone(&cache)),
        ..native()
    };
    let s = Session::with_options(Arc::clone(&program), options);
    let outcome = calls(spans, job, t0, program, s)?;
    let st = cache.stats();
    let rejects = st.instance_rejects + st.artifact_rejects;
    spans.count("persist.instance_hits", st.instance_hits as f64);
    spans.count("persist.instance_misses", st.instance_misses as f64);
    spans.count("persist.rejects", rejects as f64);
    spans.count("persist.probes", 1.0);
    if rejects > 0 || st.instance_hits == 0 {
        return Err(format!(
            "job {}: warm run loaded {} instances and rejected {rejects} files",
            job.id, st.instance_hits
        ));
    }
    Ok(outcome)
}

/// Build the job's data and make its calls; the first call's return ends
/// the time to first result measured from `t0`.
fn calls(
    spans: &mut Spans,
    job: &Job,
    t0: Instant,
    program: Arc<dyncomp::Program>,
    mut s: Session,
) -> Result<Outcome, String> {
    let prepared = job.prepare(&mut s);
    let mut results = Vec::with_capacity(CALLS);
    spans.span("first_call", job.id, |_| {
        job.run_calls(&mut s, &prepared, 0..1, &mut results)
    })?;
    let ttfr_ns = t0.elapsed().as_nanos() as f64;
    let call_ns = job.run_calls(&mut s, &prepared, 1..CALLS, &mut results)?;
    for &ns in &call_ns {
        spans.record_ns("native.call", job.id, ns);
    }
    Ok(Outcome {
        ttfr_ns,
        call_ns,
        results,
        program,
        session: s,
    })
}

fn agree(job: &Job, native: &[u64], vm: &[u64]) -> Result<(), String> {
    if native == vm {
        Ok(())
    } else {
        Err(format!(
            "job {} ({}): native results {native:?} differ from VM results {vm:?}",
            job.id, job.kernel
        ))
    }
}

pub fn run(args: &Args, budget: Duration) -> Result<Report, String> {
    let root = work_dir();
    let mut n = 0;
    let mut setup_once = || {
        n += 1;
        setup(args.seed, POOL, &root.join(format!("setup{n}")))
    };
    let (first_setup, pool) = timed(&mut setup_once)?;
    let mut report = Report::default();
    if args.trace {
        let spans = traced(&pool, budget, &mut report)?;
        crate::finish_traced(args, &mut report, spans)?;
        return Ok(report);
    }

    // Every job runs about 150 times in 30 s; each job reports its best
    // run (see `stats::best`), then the figures are taken across jobs.
    let mut spans = Spans::new(false);
    let n = pool.jobs.len();
    let (mut cold, mut warm, mut calls) = (
        vec![Vec::new(); n],
        vec![Vec::new(); n],
        vec![Vec::new(); n],
    );
    let deadline = Instant::now() + budget;
    let mut k = 0;
    while k < n || Instant::now() < deadline {
        let i = k % n;
        let job = &pool.jobs[i];
        match cold_job(&mut spans, job) {
            Ok(o) => {
                cold[i].push(o.ttfr_ns / 1e6);
                calls[i].push(median(&o.call_ns) / 1e3);
                report.check(agree(job, &o.results, &pool.vm_results[i]));
            }
            Err(e) => report.check(Err(e)),
        }
        match warm_job(&mut spans, job, &pool.dirs[i]) {
            Ok(o) => {
                warm[i].push(o.ttfr_ns / 1e6);
                report.check(agree(job, &o.results, &pool.vm_results[i]));
            }
            Err(e) => report.check(Err(e)),
        }
        k += 1;
    }
    let cold: Vec<f64> = cold.iter().map(|v| best(v)).collect();
    let warm: Vec<f64> = warm.iter().map(|v| best(v)).collect();
    let per_kernel: Vec<(&str, f64)> = KERNELS
        .iter()
        .map(|&kernel| {
            let jobs: Vec<f64> = pool
                .jobs
                .iter()
                .zip(&calls)
                .filter(|(j, _)| j.kernel == kernel)
                .map(|(_, v)| best(v))
                .collect();
            (kernel, median(&jobs))
        })
        .collect();
    let call_us = geomean(&per_kernel.iter().map(|k| k.1).collect::<Vec<_>>());
    report.metric("setup_s", setup_seconds(first_setup, &mut setup_once)?, "s");
    report.metric("ttfr_p50_ms", median(&cold), "ms");
    report.metric("ttfr_p99_ms", percentile(&cold, 99.0), "ms");
    report.metric("call_us_geomean", call_us, "us");
    report.info("jobs", k as f64, "count");
    report.info("cold_ttfr_p50_ms", median(&cold), "ms");
    report.info("cold_ttfr_p99_ms", percentile(&cold, 99.0), "ms");
    report.info("warm_ttfr_p50_ms", median(&warm), "ms");
    for (kernel, us) in per_kernel {
        report.info(format!("call_us.{kernel}"), us, "us");
    }
    Ok(report)
}

/// Replay every pool job with spans on, also through the compile-pipeline
/// replay, the VM (dynamic and static) and the persist store path.
/// Loops over the pool until `budget` is spent, at least once.
fn traced(pool: &Pool, budget: Duration, report: &mut Report) -> Result<Spans, String> {
    let mut spans = Spans::new(true);
    layers::overhead(&mut spans, |recorder| {
        for job in &pool.jobs {
            cold_job(recorder, job)?;
        }
        Ok(())
    })?;
    let deadline = Instant::now() + budget;
    let store_root = work_dir().join("traced-store");
    let mut k = 0;
    while k < pool.jobs.len() || Instant::now() < deadline {
        let i = k % pool.jobs.len();
        let first_pass = k < pool.jobs.len();
        report.check(trace_job(
            &mut spans,
            &pool.jobs[i],
            &pool.dirs[i],
            first_pass.then_some(store_root.as_path()),
        ));
        k += 1;
    }
    Ok(spans)
}

/// One job with every layer measured. With `store`, also time storing
/// the artifact into a fresh persist directory under it.
pub fn trace_job(
    spans: &mut Spans,
    job: &Job,
    dir: &Path,
    store: Option<&Path>,
) -> Result<(), String> {
    let replayed = if job.depth == 0 {
        Some(layers::replay_pipeline(spans, job.id, job.src())?)
    } else {
        None
    };
    let mut cold = cold_job(spans, job)?;
    if let Some(code) = replayed {
        if code != cold.program.compiled.code {
            return Err(format!(
                "job {} ({}): pipeline replay emitted different code than Compiler::compile",
                job.id, job.kernel
            ));
        }
    }
    layers::session_layers(spans, job.id, &mut cold.session)?;
    vm_calls(spans, job, &cold.program, "vm.call", &cold.results)?;
    let static_program = Arc::new(
        Compiler::static_baseline()
            .compile(job.src())
            .map_err(|e| format!("job {} static compile: {e}", job.id))?,
    );
    vm_calls(spans, job, &static_program, "vm.static_call", &cold.results)?;
    let warm = warm_job(spans, job, dir)?;
    agree(job, &warm.results, &cold.results)?;
    if let Some(root) = store {
        let cache = open_cache(&root.join(format!("job{}", job.id)))?;
        spans.span("persist.store_program", job.id, |_| {
            cache.store_program(&cold.program)
        });
        if cache.stats().artifact_stores != 1 {
            return Err(format!(
                "job {}: artifact store failed: {:?}",
                job.id,
                cache.incidents()
            ));
        }
    }
    Ok(())
}

/// Run the job's calls on a fresh VM session of `program` (native off),
/// timing every call after the first as a `name` span; results must equal
/// `want`.
fn vm_calls(
    spans: &mut Spans,
    job: &Job,
    program: &Arc<dyncomp::Program>,
    name: &'static str,
    want: &[u64],
) -> Result<(), String> {
    let mut s = Session::new(Arc::clone(program));
    let prepared = job.prepare(&mut s);
    let mut results = Vec::with_capacity(CALLS);
    job.run_calls(&mut s, &prepared, 0..1, &mut results)?;
    let before = s.cycles();
    let times = job.run_calls(&mut s, &prepared, 1..CALLS, &mut results)?;
    if name == "vm.call" {
        spans.count("vm.sim_cycles", (s.cycles() - before) as f64);
    }
    for ns in times {
        spans.record_ns(name, job.id, ns);
    }
    agree(job, &results, want)
}

/// A few traced jobs for layers a workload does not reach itself (see
/// `finish_traced`).
pub fn probe(spans: &mut Spans, seed: u64) -> Result<(), String> {
    let root = work_dir().join("probe");
    let pool = setup(seed, KERNELS.len(), &root.join("setup"))?;
    for (job, dir) in pool.jobs.iter().zip(&pool.dirs) {
        trace_job(spans, job, dir, Some(&root.join("store")))?;
    }
    Ok(())
}
