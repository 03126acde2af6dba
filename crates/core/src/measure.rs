//! Measurement harness for the paper's §5 methodology.
//!
//! Compiles the same annotated source twice — once honoring annotations
//! (dynamic compilation) and once ignoring them (the statically compiled,
//! fully optimized baseline) — runs both on identical inputs, and reports
//! the quantities of the paper's Table 2: asymptotic speedup, dynamic
//! compilation overhead split into set-up and stitcher cycles, breakeven
//! point, and cycles per stitched instruction. The per-kernel optimization
//! profile of Table 3 comes from the specializer's and stitcher's
//! counters.

use crate::trace::{RegionProfile, TraceOptions};
use crate::{Compiler, EngineOptions, Error, Program, RegionReport, Session};
use dyncomp_specialize::SpecStats;
use dyncomp_stitcher::StitchStats;
use std::sync::Arc;

/// How to run one kernel for measurement.
///
/// The closures are `Send + Sync` so one setup can drive many concurrent
/// sessions over a shared `Arc<Program>` (the determinism suite and the
/// `concurrent_throughput` bench).
pub struct KernelSetup<'a> {
    /// Annotated MiniC source (compiled both ways).
    pub src: &'a str,
    /// Function to invoke.
    pub func: &'a str,
    /// Executions to measure.
    pub iterations: u64,
    /// Build input data in VM memory; returns values (typically addresses)
    /// that [`KernelSetup::args`] may use.
    #[allow(clippy::type_complexity)]
    pub prepare: Box<dyn Fn(&mut Session) -> Vec<u64> + Send + Sync + 'a>,
    /// Arguments for invocation `i`, given the prepared values.
    #[allow(clippy::type_complexity)]
    pub args: Box<dyn Fn(u64, &[u64]) -> Vec<u64> + Send + Sync + 'a>,
}

/// Everything Table 2 needs for one kernel/configuration row.
#[derive(Clone, Debug)]
pub struct KernelMeasurement {
    /// Executions measured.
    pub iterations: u64,
    /// Statically compiled cycles per execution.
    pub static_cycles: f64,
    /// Dynamically compiled cycles per execution (set-up excluded).
    pub dynamic_cycles: f64,
    /// Asymptotic speedup (static / dynamic).
    pub speedup: f64,
    /// Set-up code cycles (VM-measured, first execution only).
    pub setup_cycles: u64,
    /// Stitcher cycles (cost-model accounted).
    pub stitch_cycles: u64,
    /// Breakeven point: least n where n·static ≥ overhead + n·dynamic
    /// (`None` when the dynamic version is never profitable).
    pub breakeven: Option<u64>,
    /// Instructions the stitcher emitted.
    pub instructions_stitched: u32,
    /// Total overhead cycles per stitched instruction.
    pub cycles_per_stitched_instruction: f64,
    /// Static-side planned-optimization counters (summed over regions).
    pub spec: SpecStats,
    /// Run-time stitcher counters (summed over regions).
    pub stitch: StitchStats,
    /// Sum of the results of every invocation (both versions must agree —
    /// checked by the harness).
    pub checksum: u64,
}

impl KernelMeasurement {
    /// The Table 3 row: which optimizations were applied dynamically.
    pub fn optimizations(&self) -> OptProfile {
        OptProfile {
            constant_folding: self.spec.const_insts_eliminated > 0,
            static_branch_elimination: self.stitch.const_branches_resolved > 0,
            load_elimination: self.spec.loads_eliminated > 0,
            dead_code_elimination: self.stitch.blocks_skipped > 0,
            complete_loop_unrolling: self.stitch.loop_iterations > 0,
            strength_reduction: self.stitch.strength_reductions > 0,
        }
    }
}

/// Which of the paper's Table 3 optimization categories fired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OptProfile {
    /// Run-time constant propagation and folding planned into set-up code.
    pub constant_folding: bool,
    /// Constant branches removed by the stitcher.
    pub static_branch_elimination: bool,
    /// Loads of run-time constants eliminated.
    pub load_elimination: bool,
    /// Unreachable template code skipped.
    pub dead_code_elimination: bool,
    /// Loops completely unrolled.
    pub complete_loop_unrolling: bool,
    /// Value-based peephole strength reduction.
    pub strength_reduction: bool,
}

impl OptProfile {
    /// Render as the paper's check-mark row.
    pub fn checkmarks(&self) -> [bool; 6] {
        [
            self.constant_folding,
            self.static_branch_elimination,
            self.load_elimination,
            self.dead_code_elimination,
            self.complete_loop_unrolling,
            self.strength_reduction,
        ]
    }
}

/// Run one kernel both ways and measure (default engine options).
///
/// # Errors
/// Compilation or execution failure in either version.
///
/// # Panics
/// Panics when the static and dynamic versions disagree on any result —
/// a mismatch is a correctness bug, not an environmental error.
pub fn measure_kernel(setup: &KernelSetup<'_>) -> Result<KernelMeasurement, Error> {
    measure_kernel_with(setup, crate::EngineOptions::default())
}

/// Like [`measure_kernel`], with explicit engine options for the dynamic
/// version (ablations: peephole off, fused cost model, register actions).
///
/// # Errors
/// Compilation or execution failure in either version.
///
/// # Panics
/// Panics when the static and dynamic versions disagree on any result.
pub fn measure_kernel_with(
    setup: &KernelSetup<'_>,
    engine_options: crate::EngineOptions,
) -> Result<KernelMeasurement, Error> {
    measure_kernel_full(setup, &Compiler::new(), engine_options)
}

/// The fully general entry: explicit compiler (analysis ablations) and
/// engine options for the dynamic version.
///
/// # Errors
/// Compilation or execution failure in either version.
///
/// # Panics
/// Panics when the static and dynamic versions disagree on any result.
pub fn measure_kernel_full(
    setup: &KernelSetup<'_>,
    dynamic_compiler: &Compiler,
    engine_options: crate::EngineOptions,
) -> Result<KernelMeasurement, Error> {
    // ---- static baseline ----
    let static_prog = Arc::new(Compiler::static_baseline().compile(setup.src)?);
    let static_run = run_session(&static_prog, setup, EngineOptions::default())?;

    // ---- dynamic version ----
    let dyn_prog = Arc::new(dynamic_compiler.compile(setup.src)?);
    let dyn_run = run_session(&dyn_prog, setup, engine_options)?;
    let (static_total, static_checksum) = (static_run.call_cycles, static_run.checksum);
    let (dyn_result, dyn_checksum, reports) =
        (dyn_run.call_cycles, dyn_run.checksum, dyn_run.reports);

    assert_eq!(
        static_checksum, dyn_checksum,
        "static and dynamic versions disagree for {}",
        setup.func
    );

    let setup_cycles: u64 = reports.iter().map(|r| r.setup_cycles).sum();
    let stitch_cycles: u64 = reports.iter().map(|r| r.stitch_cycles).sum();
    let instructions_stitched: u32 = reports.iter().map(|r| r.instructions_stitched).sum();
    let mut stitch = StitchStats::default();
    for r in &reports {
        stitch += r.stitch_stats;
    }
    let mut spec = SpecStats::default();
    for (_, s) in &dyn_prog.spec_stats {
        spec.const_insts_eliminated += s.const_insts_eliminated;
        spec.loads_eliminated += s.loads_eliminated;
        spec.const_branches += s.const_branches;
        spec.unrolled_loops += s.unrolled_loops;
        spec.holes += s.holes;
    }

    let n = setup.iterations.max(1) as f64;
    let static_cycles = static_total as f64 / n;
    // Exclude one-time set-up from the asymptotic dynamic cost.
    let dynamic_cycles = (dyn_result.saturating_sub(setup_cycles)) as f64 / n;
    let speedup = if dynamic_cycles > 0.0 {
        static_cycles / dynamic_cycles
    } else {
        f64::NAN
    };
    let overhead = setup_cycles + stitch_cycles;
    let breakeven = if static_cycles > dynamic_cycles {
        Some((overhead as f64 / (static_cycles - dynamic_cycles)).ceil() as u64)
    } else {
        None
    };
    let cycles_per_stitched_instruction = if instructions_stitched > 0 {
        overhead as f64 / f64::from(instructions_stitched)
    } else {
        0.0
    };

    Ok(KernelMeasurement {
        iterations: setup.iterations,
        static_cycles,
        dynamic_cycles,
        speedup,
        setup_cycles,
        stitch_cycles,
        breakeven,
        instructions_stitched,
        cycles_per_stitched_instruction,
        spec,
        stitch,
        checksum: dyn_checksum,
    })
}

/// What one session produced running a kernel workload: everything the
/// determinism suite compares bit-for-bit across threads.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionOutcome {
    /// FNV-style checksum over every invocation's result, in order.
    pub checksum: u64,
    /// Simulated cycles spent inside the measured calls.
    pub call_cycles: u64,
    /// The session's final VM cycle counter (calls + data preparation).
    pub total_cycles: u64,
    /// Per-region measurement reports.
    pub reports: Vec<RegionReport>,
}

/// A [`run_session`] run with the per-invocation cycle trace kept: what
/// the warm-up/latency analyses consume (time to first result, time to
/// first fast execution, empirical breakeven).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionTrace {
    /// FNV-style checksum over every invocation's result, in order.
    pub checksum: u64,
    /// Simulated cycles of each invocation, in call order.
    pub per_call_cycles: Vec<u64>,
    /// Per-region measurement reports.
    pub reports: Vec<RegionReport>,
}

/// Like [`run_session`], but recording each invocation's cycle cost
/// individually.
///
/// Each invocation is charged the stitcher cycles its traps incurred:
/// synchronous stitching happens on the critical path, so the trace
/// reflects Table 2's overhead accounting (set-up runs on the VM clock
/// already; stitcher cycles are cost-model accounted). Background
/// stitches in tiered mode spend their cycles on worker clocks and are
/// correctly absent from the trace.
///
/// # Errors
/// Execution failure (VM fault, stitch failure, unknown function).
pub fn run_session_trace(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<SessionTrace, Error> {
    let mut session = Session::with_options(Arc::clone(program), options);
    let prepared = (setup.prepare)(&mut session);
    let mut checksum = 0u64;
    let mut per_call_cycles = Vec::with_capacity(setup.iterations as usize);
    let stitched_so_far = |s: &Session| -> u64 {
        (0..s.program().region_count())
            .map(|i| s.region_report(i).stitch_cycles)
            .sum()
    };
    for i in 0..setup.iterations {
        let args = (setup.args)(i, &prepared);
        let before = session.cycles();
        let stitch_before = stitched_so_far(&session);
        let r = session.call(setup.func, &args)?;
        let stitch_in_call = stitched_so_far(&session) - stitch_before;
        per_call_cycles.push(session.cycles() - before + stitch_in_call);
        checksum = checksum.wrapping_mul(1099511628211).wrapping_add(r);
    }
    let reports = (0..program.region_count())
        .map(|i| session.region_report(i))
        .collect();
    Ok(SessionTrace {
        checksum,
        per_call_cycles,
        reports,
    })
}

/// A [`run_session`] run with tracing forced on and the attribution
/// self-check already passed: the observability artifacts the
/// `region_profile` bench and `dyncc --trace-out` consume.
#[derive(Clone, Debug)]
pub struct ProfiledSession {
    /// The ordinary session outcome (checksums, cycles, reports).
    pub outcome: SessionOutcome,
    /// Per-region trace aggregates.
    pub profiles: Vec<RegionProfile>,
    /// The sealed event trace as JSON Lines.
    pub jsonl: String,
    /// The sealed event trace in Chrome `trace_event` JSON.
    pub chrome: String,
    /// Events dropped from the bounded ring (aggregates are exact
    /// regardless).
    pub dropped: u64,
}

/// Like [`run_session`], with [`EngineOptions::trace`] forced on (using
/// the given options' trace configuration, or the default one) and the
/// cycle-attribution self-check run before returning.
///
/// # Errors
/// Execution failure, or [`Error::Trace`] when the trace-event sums
/// disagree with the [`RegionReport`] counters.
pub fn run_session_profiled(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    mut options: EngineOptions,
) -> Result<ProfiledSession, Error> {
    if options.trace.is_none() {
        options.trace = Some(TraceOptions::default());
    }
    let mut session = Session::with_options(Arc::clone(program), options);
    let prepared = (setup.prepare)(&mut session);
    let mut checksum = 0u64;
    let mut total = 0u64;
    for i in 0..setup.iterations {
        let args = (setup.args)(i, &prepared);
        let before = session.cycles();
        let r = session.call(setup.func, &args)?;
        total += session.cycles() - before;
        checksum = checksum.wrapping_mul(1099511628211).wrapping_add(r);
    }
    session.trace_self_check()?;
    let reports: Vec<RegionReport> = (0..program.region_count())
        .map(|i| session.region_report(i))
        .collect();
    let jsonl = session.trace_jsonl().expect("tracing forced on");
    let chrome = session.trace_chrome().expect("tracing forced on");
    let trace = session.trace().expect("tracing forced on");
    Ok(ProfiledSession {
        outcome: SessionOutcome {
            checksum,
            call_cycles: total,
            total_cycles: session.cycles(),
            reports,
        },
        profiles: trace.profiles().to_vec(),
        dropped: trace.dropped(),
        jsonl,
        chrome,
    })
}

/// Run one complete session of a kernel workload over a shared program:
/// fresh [`Session`], prepare data, run every invocation, collect region
/// reports. This is the unit the concurrency harnesses replicate across
/// threads — with default options every replica is bit-identical.
///
/// # Errors
/// Execution failure (VM fault, stitch failure, unknown function).
pub fn run_session(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<SessionOutcome, Error> {
    let mut session = Session::with_options(Arc::clone(program), options);
    let prepared = (setup.prepare)(&mut session);
    let mut checksum = 0u64;
    let mut total = 0u64;
    for i in 0..setup.iterations {
        let args = (setup.args)(i, &prepared);
        let before = session.cycles();
        let r = session.call(setup.func, &args)?;
        total += session.cycles() - before;
        checksum = checksum.wrapping_mul(1099511628211).wrapping_add(r);
    }
    let reports = (0..program.region_count())
        .map(|i| session.region_report(i))
        .collect();
    Ok(SessionOutcome {
        checksum,
        call_cycles: total,
        total_cycles: session.cycles(),
        reports,
    })
}

/// One backend's half of a [`run_session_differential`] run: the usual
/// session outcome plus host wall-clock and the native-backend counters
/// (all-zero for the VM half).
#[derive(Clone, Debug)]
pub struct BackendRun {
    /// Checksums, simulated cycles, region reports.
    pub outcome: SessionOutcome,
    /// Host nanoseconds spent inside the measured calls (excludes data
    /// preparation).
    pub wall_ns: u64,
    /// Native-backend counters ([`Session::native_report`]).
    pub native: crate::NativeReport,
}

/// A VM-oracle vs native-backend differential run
/// ([`run_session_differential`]). Published only when the two halves
/// agree bit-for-bit on checksum and simulated cycles.
#[derive(Clone, Debug)]
pub struct DifferentialOutcome {
    /// The VM-backend (oracle) half.
    pub vm: BackendRun,
    /// The native-backend half.
    pub native: BackendRun,
}

/// Run a kernel workload like [`run_session`], additionally timing the
/// measured calls in host nanoseconds and collecting the session's
/// native-backend counters.
///
/// # Errors
/// Execution failure (VM fault, stitch failure, unknown function).
pub fn run_session_timed(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<BackendRun, Error> {
    let mut session = Session::with_options(Arc::clone(program), options);
    let prepared = (setup.prepare)(&mut session);
    let mut checksum = 0u64;
    let mut total = 0u64;
    let start = std::time::Instant::now();
    for i in 0..setup.iterations {
        let args = (setup.args)(i, &prepared);
        let before = session.cycles();
        let r = session.call(setup.func, &args)?;
        total += session.cycles() - before;
        checksum = checksum.wrapping_mul(1099511628211).wrapping_add(r);
    }
    let wall_ns = start.elapsed().as_nanos() as u64;
    let reports = (0..program.region_count())
        .map(|i| session.region_report(i))
        .collect();
    Ok(BackendRun {
        outcome: SessionOutcome {
            checksum,
            call_cycles: total,
            total_cycles: session.cycles(),
            reports,
        },
        wall_ns,
        native: session.native_report(),
    })
}

/// Run the same kernel workload on both backends — once with
/// [`EngineOptions::native`] off (the VM cycle oracle) and once with it
/// on — over identical key streams, and assert the results are
/// bit-identical: same per-invocation checksum, same simulated call and
/// total cycles. The native backend only changes *host* wall-clock;
/// every simulated quantity must match the oracle exactly.
///
/// On hosts without the native backend the second half runs on the VM
/// too (recording one `backend-unavailable` health entry), so the
/// comparison degenerates to a trivially-equal self-check and the suite
/// still passes.
///
/// # Errors
/// Execution failure from either half, or [`Error::Differential`] when
/// the halves disagree.
pub fn run_session_differential(
    program: &Arc<Program>,
    setup: &KernelSetup<'_>,
    options: EngineOptions,
) -> Result<DifferentialOutcome, Error> {
    let mut vm_opts = options.clone();
    vm_opts.native = false;
    let mut native_opts = options;
    native_opts.native = true;
    let vm = run_session_timed(program, setup, vm_opts)?;
    let native = run_session_timed(program, setup, native_opts)?;
    if vm.outcome.checksum != native.outcome.checksum {
        return Err(Error::Differential(format!(
            "checksum mismatch: vm {:#x} vs native {:#x}",
            vm.outcome.checksum, native.outcome.checksum
        )));
    }
    if vm.outcome.call_cycles != native.outcome.call_cycles
        || vm.outcome.total_cycles != native.outcome.total_cycles
    {
        return Err(Error::Differential(format!(
            "cycle mismatch: vm {}/{} vs native {}/{} (call/total)",
            vm.outcome.call_cycles,
            vm.outcome.total_cycles,
            native.outcome.call_cycles,
            native.outcome.total_cycles
        )));
    }
    Ok(DifferentialOutcome { vm, native })
}
