//! Per-layer measurements: the compile-pipeline replay, the run-time
//! layers of a session, and the reduction of spans to per-layer metrics.

use crate::spans::Spans;
use crate::stats::{median, ratio};
use dyncomp::Session;
use dyncomp_frontend::LowerOptions;
use dyncomp_stitcher::StitchOptions;
use std::time::Instant;

/// Re-drive the static compiler's pipeline for `src` through the layer
/// crates' public functions, one span per layer, and return the code
/// words it produces.
///
/// The order is `Compiler::compile`'s at inline depth 0: lower, then per
/// function SSA construction, optimization and the CFG invariants, then
/// per region RTC analysis (with the dynamic-switch legalization it may
/// need) and specialization, the post-split optimization, and code
/// generation. The caller compares the result with `Compiler::compile`'s
/// code, so the spans measure the program the benchmark runs.
pub fn replay_pipeline(spans: &mut Spans, job: u64, src: &str) -> Result<Vec<u32>, String> {
    let err = |layer: &str, e: &dyn std::fmt::Debug| format!("pipeline replay, {layer}: {e:?}");
    let lowered = spans
        .span("frontend", job, |_| {
            dyncomp_frontend::compile(
                src,
                &LowerOptions {
                    honor_annotations: true,
                    tiered_fallback: false,
                },
            )
        })
        .map_err(|e| err("frontend", &e))?;
    let mut module = lowered.module;
    spans.span("ssa_opt", job, |_| -> Result<(), String> {
        for f in module.funcs.iter_mut() {
            if !f.is_ssa {
                dyncomp_ir::ssa::construct_ssa(f);
            }
            dyncomp_opt::optimize(
                f,
                &dyncomp_opt::OptOptions {
                    cfg_simplify: true,
                    hole_scope: None,
                },
            );
            dyncomp_ir::cfg::split_critical_edges(f);
            f.canonicalize_region_roots();
            dyncomp_ir::verify::verify(f).map_err(|e| err("ssa_opt", &e))?;
        }
        Ok(())
    })?;

    let config = dyncomp_analysis::AnalysisConfig::default();
    let mut specs = Vec::new();
    let mut holes = 0usize;
    for fid in module.funcs.ids().collect::<Vec<_>>() {
        let f = &mut module.funcs[fid];
        let mut template_scope = dyncomp_ir::IdSet::new();
        for rid in f.regions.ids().collect::<Vec<_>>() {
            let analysis = spans.span("analysis", job, |_| -> Result<_, String> {
                let mut a = dyncomp_analysis::analyze_region(f, rid, &config);
                if dyncomp_specialize::legalize_dynamic_switches(f, rid, &a) {
                    dyncomp_ir::cfg::split_critical_edges(f);
                    dyncomp_ir::verify::verify(f).map_err(|e| err("analysis", &e))?;
                    a = dyncomp_analysis::analyze_region(f, rid, &config);
                }
                Ok(a)
            })?;
            let spec = spans.span("specialize", job, |_| -> Result<_, String> {
                let spec = dyncomp_specialize::specialize_region(f, rid, &analysis)
                    .map_err(|e| err("specialize", &e))?;
                dyncomp_ir::verify::verify(f).map_err(|e| err("specialize", &e))?;
                Ok(spec)
            })?;
            holes += spec.stats.holes;
            for &b in &spec.template_blocks {
                template_scope.insert(b);
            }
            specs.push((fid, spec));
        }
        if !f.regions.is_empty() {
            spans.span("ssa_opt", job, |_| {
                dyncomp_opt::optimize(
                    f,
                    &dyncomp_opt::OptOptions {
                        cfg_simplify: false,
                        hole_scope: Some(template_scope),
                    },
                );
                dyncomp_ir::verify::verify(f).map_err(|e| err("ssa_opt", &e))
            })?;
        }
    }
    let compiled = spans
        .span("codegen", job, |_| {
            dyncomp_codegen::compile_module(&mut module, &specs)
        })
        .map_err(|e| err("codegen", &e))?;
    spans.count("specialize.holes", holes as f64);
    spans.count("codegen.code_words", compiled.code.len() as f64);
    spans.count("pipeline.replays", 1.0);
    Ok(compiled.code)
}

/// Measure the run-time layers behind a session that has finished its
/// calls: re-stitch every stitched table (stitcher host time, simulated
/// cycles and plan use), verify every stitched instance, and read the
/// native backend's counters.
pub fn session_layers(spans: &mut Spans, job: u64, s: &mut Session) -> Result<(), String> {
    let regions = s.program().region_count();
    let setup: u64 = (0..regions).map(|r| s.region_report(r).setup_cycles).sum();
    spans.count("setup.sim_cycles", setup as f64);
    spans.count("setup.sessions", 1.0);

    let stats = spans
        .span("restitch", job, |_| {
            s.restitch_all(&StitchOptions::default())
        })
        .map_err(|e| format!("job {job}: restitch: {e}"))?;
    spans.count("stitch.insts", f64::from(stats.instructions_stitched));
    spans.count("stitch.sim_cycles", stats.cycles as f64);
    spans.count("stitch.plan_hits", f64::from(stats.plan_hits));
    spans.count("stitch.plan_misses", f64::from(stats.plan_misses));
    spans.count("stitch.sessions", 1.0);

    let code_start = s.vm.code.as_ptr() as usize;
    for r in 0..regions {
        for (_, code) in s.stitched_instances(r) {
            // Instances are slices of the session's code space; their word
            // address is the install base `verify_code` range-checks against.
            let base = ((code.as_ptr() as usize - code_start) / 4) as u32;
            spans
                .span("verify", job, |_| {
                    dyncomp_machine::verify::verify_code(code, base)
                })
                .map_err(|e| format!("job {job}: stitched code fails verification: {e:?}"))?;
            spans.count("verify.words", code.len() as f64);
        }
    }

    let n = s.native_report();
    if n.enabled {
        if !n.active {
            return Err(format!("job {job}: native backend inactive"));
        }
        spans.count("native.translate_ns", n.translate_ns as f64);
        spans.count("native.translated_insts", n.translated_instructions as f64);
        spans.count("native.bytes", n.bytes as f64);
        spans.count("native.sessions", 1.0);
        spans.count("native.entries", n.entries as f64);
        spans.count("native.chained", n.chained as f64);
    }
    Ok(())
}

/// `trace.overhead_frac`: `work` timed with spans off and on, three times
/// each, interleaved; each side keeps its best time (see `stats::best`).
pub fn overhead(
    spans: &mut Spans,
    mut work: impl FnMut(&mut Spans) -> Result<(), String>,
) -> Result<(), String> {
    let (mut off, mut on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..3 {
        for enabled in [false, true] {
            let mut recorder = Spans::new(enabled);
            let t0 = Instant::now();
            work(&mut recorder)?;
            let t = t0.elapsed().as_secs_f64();
            if enabled {
                on = on.min(t);
            } else {
                off = off.min(t);
            }
        }
    }
    spans.count("trace.overhead_frac", on / off - 1.0);
    spans.count("trace.runs", 1.0);
    Ok(())
}

/// Every per-layer metric: `(name, unit)`, in output order.
pub const PER_LAYER: [(&str, &str); 35] = [
    ("frontend.us", "us"),
    ("ssa_opt.us", "us"),
    ("analysis.us", "us"),
    ("specialize.us", "us"),
    ("specialize.holes", "count"),
    ("codegen.us", "us"),
    ("codegen.code_words", "count"),
    ("setup.sim_cycles", "cycles"),
    ("first_call.us", "us"),
    ("stitch.host_ns_per_inst", "ns"),
    ("stitch.sim_cycles_per_inst", "cycles"),
    ("stitch.plan_hit_ratio", "frac"),
    ("stitch.insts", "count"),
    ("verify.ns_per_word", "ns"),
    ("native.translate_ns_per_inst", "ns"),
    ("native.bytes", "bytes"),
    ("native.us_per_call", "us"),
    ("native.chained_frac", "frac"),
    ("vm.us_per_call", "us"),
    ("vm.static_us_per_call", "us"),
    ("vm.ns_per_sim_cycle", "ns"),
    ("cache.shared_hit_ratio", "frac"),
    ("cache.lookup_ns", "ns"),
    ("cache.evictions", "count"),
    ("persist.load_program_us", "us"),
    ("persist.store_program_ms", "ms"),
    ("persist.instance_hit_ratio", "frac"),
    ("persist.rejects", "count"),
    ("server.json_parse_us", "us"),
    ("server.handle_us.open", "us"),
    ("server.handle_us.call", "us"),
    ("server.handle_us.close", "us"),
    ("server.queue_wait_us", "us"),
    ("server.transport_us", "us"),
    ("trace.overhead_frac", "frac"),
];

/// Reduce recorded spans and counters to the per-layer metrics, in
/// `PER_LAYER` order. A layer the run did not reach reads `NaN`.
/// Compile layers are mean time per replayed compile (a layer runs once
/// per function or region); other times are medians over spans;
/// per-instruction and per-word figures are totals over totals; counts
/// are means per compile or session.
pub fn per_layer(s: &Spans) -> Vec<f64> {
    let med_us = |name: &str| median(&s.durations_ns(name)) / 1e3;
    let per = |num: &str, den: &str| ratio(s.counter(num), s.counter(den));
    let per_compile_us =
        |layer: &str| ratio(s.total_ns(layer), s.counter("pipeline.replays")) / 1e3;
    // Client round trip minus the server's own queue wait and handling,
    // per request, over the same stream.
    let transport = {
        let client: f64 = ["client.open", "client.call", "client.close"]
            .iter()
            .map(|op| s.total_ns(op))
            .sum();
        let requests: f64 = ["client.open", "client.call", "client.close"]
            .iter()
            .map(|op| s.durations_ns(op).len() as f64)
            .sum();
        let server: f64 = [
            "server.handle.open",
            "server.handle.call",
            "server.handle.close",
            "server.queue_wait",
        ]
        .iter()
        .map(|op| s.total_ns(op))
        .sum();
        let handled: f64 = [
            "server.handle.open",
            "server.handle.call",
            "server.handle.close",
        ]
        .iter()
        .map(|op| s.durations_ns(op).len() as f64)
        .sum();
        (ratio(client, requests) - ratio(server, handled)) / 1e3
    };
    vec![
        per_compile_us("frontend"),
        per_compile_us("ssa_opt"),
        per_compile_us("analysis"),
        per_compile_us("specialize"),
        per("specialize.holes", "pipeline.replays"),
        per_compile_us("codegen"),
        per("codegen.code_words", "pipeline.replays"),
        per("setup.sim_cycles", "setup.sessions"),
        med_us("first_call"),
        ratio(s.total_ns("restitch"), s.counter("stitch.insts")),
        per("stitch.sim_cycles", "stitch.insts"),
        ratio(
            s.counter("stitch.plan_hits"),
            s.counter("stitch.plan_hits") + s.counter("stitch.plan_misses"),
        ),
        per("stitch.insts", "stitch.sessions"),
        ratio(s.total_ns("verify"), s.counter("verify.words")),
        per("native.translate_ns", "native.translated_insts"),
        per("native.bytes", "native.sessions"),
        med_us("native.call"),
        ratio(
            s.counter("native.chained"),
            s.counter("native.chained") + s.counter("native.entries"),
        ),
        med_us("vm.call"),
        med_us("vm.static_call"),
        ratio(s.total_ns("vm.call"), s.counter("vm.sim_cycles")),
        ratio(
            s.counter("cache.hits"),
            s.counter("cache.hits") + s.counter("cache.misses"),
        ),
        per("cache.lookup_ns", "cache.lookups"),
        nan_unless(s, "cache.probes", s.counter("cache.evictions")),
        med_us("persist.load_program"),
        med_us("persist.store_program") / 1e3,
        ratio(
            s.counter("persist.instance_hits"),
            s.counter("persist.instance_hits") + s.counter("persist.instance_misses"),
        ),
        nan_unless(s, "persist.probes", s.counter("persist.rejects")),
        med_us("server.json_parse"),
        med_us("server.handle.open"),
        med_us("server.handle.call"),
        med_us("server.handle.close"),
        med_us("server.queue_wait"),
        transport,
        nan_unless(s, "trace.runs", s.counter("trace.overhead_frac")),
    ]
}

/// `value` when counter `gate` shows the layer ran, else `NaN`.
fn nan_unless(s: &Spans, gate: &str, value: f64) -> f64 {
    if s.counter(gate) > 0.0 {
        value
    } else {
        f64::NAN
    }
}
