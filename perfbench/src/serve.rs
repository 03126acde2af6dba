//! `serve-open`: an open loop of sessions against the `dynccd` server.
//!
//! Sessions arrive at seeded Poisson times; each opens, makes a few calls
//! to one of three scalar-argument keyed kernels, and closes. Sessions
//! spread over tenants whose shared code caches hold fewer keys than the
//! seeded, skewed key distribution draws from, so both shared-cache hits
//! and stitches occur. The program is uploaded in set-up, so the server
//! never compiles during the timed phase.
//!
//! Two client connections carry the load (the host has two cores; the
//! server runs two pool workers). A connection is a serial channel, so a
//! session due while both are busy waits: time to first result runs from
//! the session's *due* time to its first call's response, which counts
//! that wait. The generator's own lateness (how long after a session was
//! due, with a connection free, it actually sent) is reported apart, and
//! a refused or failed request counts as missing the latency limit.
//!
//! The measured stream runs against the server's request path
//! in-process — `ServerEngine::handle` on a `WorkPool`, exactly what a
//! TCP connection handler runs per frame. A short stream also runs over
//! TCP against a `server::Server` on 127.0.0.1: every response there
//! currently waits about 40 ms (the frame is written in two parts on a
//! socket without `TCP_NODELAY`, so the body waits for the client's
//! delayed ACK), which bounds two connections to about ten sessions a
//! second and makes their latency follow the kernel's ACK timer. The TCP
//! figures are printed, and `server.transport_us` carries them into the
//! per-layer metrics.

use crate::layers;
use crate::oracle::{fold, serve_kernel, SERVE_SRC};
use crate::spans::Spans;
use crate::stats::{best, geomean, median, percentile};
use crate::{setup_seconds, timed, Args, Report};
use dyncomp::server::{escape, Client, Json, Server, ServerEngine, ServerOptions, WorkPool};
use dyncomp::{Compiler, EngineOptions, Session, SharedCodeCache, SharedKey};
use dyncomp_ir::prng::SplitMix64;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Rounds of the reference-rate phase; each timing reports its best round
/// (see `stats::best`). Sessions are not repeated, so the rounds are what
/// the best is taken over.
const ROUNDS: u32 = 20;

const TENANTS: usize = 4;
/// Keys per kernel the sessions draw from; a tenant cache holds fewer.
const KEY_CLASSES: f64 = 24.0;
const CALLS: usize = 3;
const FUNCS: [&str; 3] = ["poly", "horner", "sel"];
const CLIENTS: usize = 2;
const WORKERS: usize = 2;
/// The reference rate, well below saturation (sessions per second).
const REF_RATE: f64 = 2000.0;
/// Rates tried for `serve_max_sessions_per_s`, in order, until one
/// misses the latency limit.
const LADDER: [f64; 5] = [2000.0, 4000.0, 8000.0, 16000.0, 32000.0];
/// The rate of the sessions sent over TCP (see README.md: every response
/// on a dynccd connection currently waits for the client's delayed ACK).
const TCP_RATE: f64 = 2.0;
/// Sessions replayed in-process for the server's per-layer spans.
const REPLAY: usize = 2000;
/// The latency limit on p99 time to first result.
const LIMIT_MS: f64 = 5.0;
/// Tenant shared-cache bounds: entries and resident bytes.
const CACHE_ENTRIES: usize = 16;
const CACHE_BYTES: u64 = 6144;

/// One planned session.
pub struct Plan {
    id: u64,
    tenant: usize,
    func: &'static str,
    key: i64,
    xs: [i64; CALLS],
    /// Due time, nanoseconds after the stream starts.
    due_ns: u64,
}

/// Sessions arriving at `rate` per second for `seconds`, drawn from
/// `seed`.
pub fn plans(seed: u64, rate: f64, seconds: f64) -> Vec<Plan> {
    let mut rng = SplitMix64::new(seed);
    let mut out = Vec::new();
    let mut t = 0.0f64;
    loop {
        t += -(1.0 - rng.range_f64(0.0, 1.0)).ln() / rate;
        if t >= seconds {
            return out;
        }
        // Skewed keys: P(key = 1) ≈ 0.35, and the tail reaches 24.
        let key = 1 + (KEY_CLASSES * rng.range_f64(0.0, 1.0).powi(3)) as i64;
        out.push(Plan {
            id: out.len() as u64,
            tenant: rng.below(TENANTS as u64) as usize,
            func: FUNCS[rng.below(FUNCS.len() as u64) as usize],
            key,
            xs: [(); CALLS].map(|_| rng.range_i64(-20, 20)),
            due_ns: (t * 1e9) as u64,
        });
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Op {
    Open,
    Call,
    Close,
}

impl Plan {
    /// The session's requests in order, with the reference check of
    /// each response.
    fn requests(&self) -> Vec<(Op, String)> {
        let mut r = vec![(
            Op::Open,
            format!(
                "{{\"op\":\"open\",\"tenant\":\"t{}\",\"program\":\"serve\",\"session\":\"s{}\"}}",
                self.tenant, self.id
            ),
        )];
        for x in self.xs {
            r.push((
                Op::Call,
                format!(
                    "{{\"op\":\"call\",\"session\":\"s{}\",\"func\":\"{}\",\"args\":[{},{x}]}}",
                    self.id, self.func, self.key
                ),
            ));
        }
        r.push((
            Op::Close,
            format!("{{\"op\":\"close\",\"session\":\"s{}\"}}", self.id),
        ));
        r
    }

    /// Check response `i` (of `requests()`) against the reference.
    fn check(&self, i: usize, response: &str) -> Result<(), String> {
        let v = Json::parse(response)
            .map_err(|e| format!("session {}: bad response {response:?}: {e}", self.id))?;
        if v.get("ok").and_then(Json::as_bool) != Some(true) {
            return Err(format!(
                "session {}: request {i} refused: {response}",
                self.id
            ));
        }
        let results: Vec<i64> = self
            .xs
            .iter()
            .map(|&x| serve_kernel(self.func, self.key, x))
            .collect();
        if (1..=CALLS).contains(&i) {
            let got = v.get("result").and_then(Json::as_int);
            if got != Some(results[i - 1]) {
                return Err(format!(
                    "session {} {}({}, {}): got {got:?} want {}",
                    self.id,
                    self.func,
                    self.key,
                    self.xs[i - 1],
                    results[i - 1]
                ));
            }
        } else if i == CALLS + 1 {
            let want = format!(
                "{:016x}",
                results.iter().fold(0u64, |c, &r| fold(c, r as u64))
            );
            if v.get("checksum").and_then(Json::as_str) != Some(want.as_str()) {
                return Err(format!(
                    "session {}: close checksum {response} want {want}",
                    self.id
                ));
            }
        }
        Ok(())
    }
}

/// Set-up requests: the program upload and the tenant definitions.
fn setup_requests() -> Vec<String> {
    let mut r = vec![format!(
        "{{\"op\":\"upload\",\"name\":\"serve\",\"src\":{}}}",
        escape(SERVE_SRC)
    )];
    for t in 0..TENANTS {
        r.push(format!(
            "{{\"op\":\"tenant\",\"tenant\":\"t{t}\",\"max_sessions\":64,\"cache_shards\":1,\
             \"cache_capacity\":{CACHE_ENTRIES},\"cache_bytes\":{CACHE_BYTES}}}"
        ));
    }
    r
}

fn ok(response: &str) -> Result<(), String> {
    match Json::parse(response)
        .ok()
        .and_then(|v| v.get("ok").and_then(Json::as_bool))
    {
        Some(true) => Ok(()),
        _ => Err(format!("server refused: {response}")),
    }
}

/// A running TCP server; dropping it shuts the server down and joins its
/// thread.
pub struct Running {
    addr: String,
    thread: Option<JoinHandle<()>>,
}

impl Running {
    pub fn start() -> Result<Running, String> {
        let server = Server::bind(&ServerOptions {
            listen: "127.0.0.1:0".to_string(),
            workers: WORKERS,
            idle_timeout_ms: 0,
            persist_root: None,
        })
        .map_err(|e| format!("bind: {e}"))?;
        let addr = server
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?
            .to_string();
        let thread = std::thread::Builder::new()
            .name("perfbench-server".to_string())
            .spawn(move || server.serve())
            .map_err(|e| format!("spawn server: {e}"))?;
        let running = Running {
            addr,
            thread: Some(thread),
        };
        let mut c = Target::Tcp(running.addr.clone()).connect()?;
        for req in setup_requests() {
            ok(&c.request(req)?)?;
        }
        Ok(running)
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        if let Ok(mut c) = Client::connect(&self.addr) {
            let _ = c.request("{\"op\":\"shutdown\"}");
        }
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Where sessions are sent.
enum Target {
    /// The TCP server at this address.
    Tcp(String),
    /// The server's request path in-process: `ServerEngine::handle` run
    /// on a `WorkPool`, as the TCP connection handler runs it.
    Local(Arc<ServerEngine>, Arc<WorkPool>),
}

/// One client connection to a `Target`; requests on it are serial.
enum Conn {
    Tcp(Client),
    Local(Arc<ServerEngine>, Arc<WorkPool>),
}

impl Target {
    /// A fresh in-process server with the program uploaded and the
    /// tenants defined.
    fn local() -> Result<Target, String> {
        let engine = Arc::new(ServerEngine::new());
        for req in setup_requests() {
            ok(&engine.handle(req.as_bytes()))?;
        }
        Ok(Target::Local(engine, Arc::new(WorkPool::new(WORKERS))))
    }

    fn connect(&self) -> Result<Conn, String> {
        match self {
            Target::Tcp(addr) => Client::connect(addr)
                .map(Conn::Tcp)
                .map_err(|e| format!("connect {addr}: {e}")),
            Target::Local(engine, pool) => Ok(Conn::Local(Arc::clone(engine), Arc::clone(pool))),
        }
    }
}

impl Conn {
    fn request(&mut self, body: String) -> Result<String, String> {
        match self {
            Conn::Tcp(client) => client.request(&body).map_err(|e| e.to_string()),
            Conn::Local(engine, pool) => {
                let engine = Arc::clone(engine);
                Ok(pool.run(move || engine.handle(body.as_bytes())))
            }
        }
    }
}

/// Everything serve-open sets up: the TCP server and the in-process one.
struct Servers {
    tcp: Running,
    local: Target,
}

impl Servers {
    fn start() -> Result<Servers, String> {
        Ok(Servers {
            tcp: Running::start()?,
            local: Target::local()?,
        })
    }
}

/// One served session, as the generator saw it.
struct Done {
    plan: usize,
    outcome: Result<(), String>,
    /// Due time to first call response; infinite when the session failed.
    ttfr_ns: f64,
    /// How late the generator sent, with a connection free.
    late_ns: f64,
    /// Each request's round trip: (op, sent, answered).
    rtts: Vec<(Op, Instant, Instant)>,
}

/// Sleep until `due`, then yield-spin the last stretch for precision.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(200));
        } else {
            std::thread::yield_now();
        }
    }
}

fn serve_session(
    conn: &mut Conn,
    plan: &Plan,
    index: usize,
    due: Instant,
    free_at: Instant,
) -> Done {
    let start = Instant::now();
    let mut done = Done {
        plan: index,
        outcome: Ok(()),
        ttfr_ns: f64::INFINITY,
        late_ns: start.saturating_duration_since(due.max(free_at)).as_nanos() as f64,
        rtts: Vec::with_capacity(CALLS + 2),
    };
    for (i, (op, body)) in plan.requests().into_iter().enumerate() {
        let sent = Instant::now();
        let response = conn.request(body);
        let answered = Instant::now();
        done.rtts.push((op, sent, answered));
        let checked = response
            .map_err(|e| format!("session {}: request {i}: {e}", plan.id))
            .and_then(|r| plan.check(i, &r));
        if let Err(e) = checked {
            done.outcome = Err(e);
            done.ttfr_ns = f64::INFINITY;
            return done;
        }
        if i == 1 {
            done.ttfr_ns = answered.saturating_duration_since(due).as_nanos() as f64;
        }
    }
    done
}

/// Serve `plans` open-loop over `CLIENTS` connections to `target`;
/// returns every session in plan order.
fn open_loop(target: &Target, plans: &[Plan]) -> Result<Vec<Done>, String> {
    let next = AtomicUsize::new(0);
    let t0 = Instant::now() + Duration::from_millis(2);
    let mut done: Vec<Done> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let next = &next;
                scope.spawn(move || -> Result<Vec<Done>, String> {
                    let mut conn = target.connect()?;
                    // Sized up front so the benchmark's own bookkeeping
                    // adds the same bytes to `peak_heap_mb` every run.
                    let mut out = Vec::with_capacity(plans.len());
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(plan) = plans.get(i) else {
                            return Ok(out);
                        };
                        let free_at = Instant::now();
                        let due = t0 + Duration::from_nanos(plan.due_ns);
                        wait_until(due);
                        out.push(serve_session(&mut conn, plan, i, due, free_at));
                    }
                })
            })
            .collect();
        let mut all = Vec::with_capacity(plans.len());
        for c in clients {
            all.extend(
                c.join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        Ok::<_, String>(all)
    })?;
    done.sort_by_key(|d| d.plan);
    Ok(done)
}

/// Time to first result in ms, per session.
fn ttfr_ms(done: &[Done]) -> Vec<f64> {
    done.iter().map(|d| d.ttfr_ns / 1e6).collect()
}

/// Whether a rate step met the latency limit without a growing backlog:
/// p99 within the limit, and the last tenth of the sessions no slower
/// than the limit at their median.
fn meets_limit(done: &[Done]) -> bool {
    let t = ttfr_ms(done);
    if t.is_empty() {
        return false;
    }
    let tail = &t[t.len() - (t.len() / 10).max(1)..];
    percentile(&t, 99.0) <= LIMIT_MS && median(tail) <= LIMIT_MS
}

/// Median round trip in µs of the calls after each session's first, per
/// kernel.
fn call_us(stream: &[Plan], done: &[Done]) -> Vec<f64> {
    let mut ns: Vec<Vec<f64>> = vec![Vec::new(); FUNCS.len()];
    for d in done.iter().filter(|d| d.outcome.is_ok()) {
        let f = FUNCS
            .iter()
            .position(|&f| f == stream[d.plan].func)
            .unwrap_or(0);
        for &(_, sent, answered) in d.rtts.iter().filter(|r| r.0 == Op::Call).skip(1) {
            ns[f].push((answered - sent).as_nanos() as f64);
        }
    }
    ns.iter().map(|v| median(v) / 1e3).collect()
}

pub fn run(args: &Args, budget: Duration) -> Result<Report, String> {
    let secs = budget.as_secs_f64();
    let (first_setup, servers) = timed(Servers::start)?;
    let mut report = Report::default();
    let tcp = Target::Tcp(servers.tcp.addr.clone());
    if args.trace {
        let mut spans = Spans::new(true);
        let replayed = replay_stream(args.seed);
        let tcp_stream = plans(args.seed, TCP_RATE, 0.5 * secs);
        traced_layers(&mut spans, &tcp, &tcp_stream, &replayed, &mut report)?;
        drop(servers);
        let mut scratch = Report::default();
        layers::overhead(&mut spans, |recorder| {
            replay(recorder, &replayed[..500], &mut scratch).map(|_| ())
        })?;
        if scratch.failed > 0 {
            return Err(format!("replay failed: {:?}", scratch.problems));
        }
        crate::finish_traced(args, &mut report, spans)?;
        return Ok(report);
    }

    // Rounds at the reference rate in-process, the rate ladder, then a
    // short stream over TCP.
    let mut rounds = Vec::new();
    let mut late = Vec::new();
    for r in 0..ROUNDS {
        let stream = plans(
            args.seed.wrapping_add(u64::from(r)),
            REF_RATE,
            0.6 * secs / f64::from(ROUNDS),
        );
        let done = open_loop(&servers.local, &stream)?;
        for d in &done {
            report.check(d.outcome.clone());
        }
        let t = ttfr_ms(&done);
        late.extend(done.iter().map(|d| d.late_ns / 1e3));
        rounds.push(vec![
            median(&t),
            percentile(&t, 99.0),
            geomean(&call_us(&stream, &done)),
        ]);
    }

    // Each step holds at most a round's worth of sessions, so how far the
    // ladder climbs does not change the run's peak memory.
    let step = 0.25 * secs / LADDER.len() as f64;
    let round_sessions = (REF_RATE * 0.6 * secs / f64::from(ROUNDS)) as usize;
    let mut max_rate = 0.0;
    for (i, &rate) in LADDER.iter().enumerate() {
        let seconds = step.min(round_sessions as f64 / rate);
        let plans = plans(args.seed ^ (i as u64 + 1), rate, seconds);
        let done = open_loop(&servers.local, &plans)?;
        for d in &done {
            report.check(d.outcome.clone());
        }
        if !meets_limit(&done) {
            break;
        }
        max_rate = rate;
    }

    let tcp_stream = plans(args.seed, TCP_RATE, 0.15 * secs);
    let tcp_done = open_loop(&tcp, &tcp_stream)?;
    for d in &tcp_done {
        report.check(d.outcome.clone());
    }
    drop(servers);

    let best: Vec<f64> = (0..3)
        .map(|i| best(&rounds.iter().map(|r: &Vec<f64>| r[i]).collect::<Vec<_>>()))
        .collect();
    report.metric("setup_s", setup_seconds(first_setup, Servers::start)?, "s");
    report.metric("ttfr_p50_ms", best[0], "ms");
    report.metric("ttfr_p99_ms", best[1], "ms");
    report.metric("call_us_geomean", best[2], "us");
    report.info("sessions", late.len() as f64, "count");
    report.info("serve_ttfr_p50_us", best[0] * 1e3, "us");
    report.info("serve_ttfr_p99_us", best[1] * 1e3, "us");
    report.info("serve_max_sessions_per_s", max_rate, "1/s");
    report.info("generator_late_p50_us", median(&late), "us");
    report.info("generator_late_max_us", percentile(&late, 100.0), "us");
    let tcp_t = ttfr_ms(&tcp_done);
    report.info("tcp_sessions", tcp_done.len() as f64, "count");
    report.info("tcp_ttfr_p50_us", median(&tcp_t) * 1e3, "us");
    report.info("tcp_ttfr_max_us", percentile(&tcp_t, 100.0) * 1e3, "us");
    report.info(
        "tcp_call_us_geomean",
        geomean(&call_us(&tcp_stream, &tcp_done)),
        "us",
    );
    Ok(report)
}

/// The reference-rate stream, `REPLAY` sessions long.
fn replay_stream(seed: u64) -> Vec<Plan> {
    let mut p = plans(seed, REF_RATE, 2.0 * REPLAY as f64 / REF_RATE);
    p.truncate(REPLAY);
    p
}

/// The server's layers: client round trips per request over TCP on
/// `tcp_stream`, an in-process replay of `replayed` through
/// `ServerEngine::handle` on a `WorkPool` (with the tenant caches'
/// counters after it), direct shared-cache lookups, and the
/// compile-pipeline replay of the program.
fn traced_layers(
    spans: &mut Spans,
    tcp: &Target,
    tcp_stream: &[Plan],
    replayed: &[Plan],
    report: &mut Report,
) -> Result<(), String> {
    let done = open_loop(tcp, tcp_stream)?;
    for d in &done {
        report.check(d.outcome.clone());
        for &(op, sent, answered) in &d.rtts {
            let name = match op {
                Op::Open => "client.open",
                Op::Call => "client.call",
                Op::Close => "client.close",
            };
            spans.record(name, tcp_stream[d.plan].id, sent, answered);
        }
    }
    let metrics = replay(spans, replayed, report)?;
    let sum = |name: &str| -> f64 {
        metrics
            .lines()
            .filter(|l| l.starts_with(name) && l[name.len()..].starts_with('{'))
            .filter_map(|l| l.rsplit(' ').next().and_then(|v| v.parse::<f64>().ok()))
            .sum()
    };
    spans.count("cache.hits", sum("dynccd_tenant_cache_hits_total"));
    spans.count("cache.misses", sum("dynccd_tenant_cache_misses_total"));
    spans.count(
        "cache.evictions",
        sum("dynccd_tenant_cache_evictions_total"),
    );
    spans.count("cache.probes", 1.0);
    cache_sessions(spans, report)?;
    let code = layers::replay_pipeline(spans, 0, SERVE_SRC)?;
    let compiled = Compiler::new()
        .compile(SERVE_SRC)
        .map_err(|e| format!("serve program: {e}"))?;
    report.check(if code == compiled.compiled.code {
        Ok(())
    } else {
        Err(
            "serve program: pipeline replay emitted different code than Compiler::compile"
                .to_string(),
        )
    });
    Ok(())
}

/// Replay `stream` in order through a fresh in-process `ServerEngine` and
/// a `WorkPool`, timing the JSON parse, the queue wait and `handle` of
/// every request; returns the engine's metrics document.
fn replay(spans: &mut Spans, stream: &[Plan], report: &mut Report) -> Result<String, String> {
    let Target::Local(engine, pool) = Target::local()? else {
        unreachable!("Target::local builds a local target")
    };
    for plan in stream {
        let mut outcome = Ok(());
        for (i, (op, body)) in plan.requests().into_iter().enumerate() {
            spans
                .span("server.json_parse", plan.id, |_| {
                    Json::parse(&body).map(|_| ())
                })
                .map_err(|e| format!("replay: request does not parse: {e}"))?;
            let engine = Arc::clone(&engine);
            let enqueued = Instant::now();
            let (start, end, response) = pool.run(move || {
                let start = Instant::now();
                let response = engine.handle(body.as_bytes());
                (start, Instant::now(), response)
            });
            spans.record("server.queue_wait", plan.id, enqueued, start);
            let name = match op {
                Op::Open => "server.handle.open",
                Op::Call => "server.handle.call",
                Op::Close => "server.handle.close",
            };
            spans.record(name, plan.id, start, end);
            if outcome.is_ok() {
                outcome = plan.check(i, &response);
            }
        }
        report.check(outcome);
    }
    Ok(engine.metrics_text(None))
}

/// Sessions of the serve program sharing one `SharedCodeCache`: one per
/// (kernel, key), each stitching and publishing; then the cache's lookup
/// cost over the published keys. The sessions also give the set-up,
/// first-call, stitch and verify layers for the serve kernels.
fn cache_sessions(spans: &mut Spans, report: &mut Report) -> Result<(), String> {
    let program = Arc::new(
        Compiler::new()
            .compile(SERVE_SRC)
            .map_err(|e| format!("serve program: {e}"))?,
    );
    let cache = Arc::new(SharedCodeCache::new(1, 256));
    let keys: Vec<i64> = (1..=8).collect();
    for (region, func) in FUNCS.iter().enumerate() {
        for &key in &keys {
            let job = (region as u64) << 32 | key as u64;
            let mut s = Session::with_options(
                Arc::clone(&program),
                EngineOptions {
                    shared_cache: Some(Arc::clone(&cache)),
                    ..EngineOptions::default()
                },
            );
            let r = spans.span("first_call", job, |_| s.call(func, &[key as u64, 7]));
            report.check(match r {
                Ok(r) if r as i64 == serve_kernel(func, key, 7) => Ok(()),
                other => Err(format!("{func}({key}, 7) gave {other:?}")),
            });
            layers::session_layers(spans, job, &mut s)?;
        }
    }
    let program_id = program.id();
    let probe: Vec<SharedKey> = (0..FUNCS.len() as u16)
        .flat_map(|region| {
            keys.iter().map(move |&k| SharedKey {
                program: program_id,
                region,
                key: vec![k as u64],
            })
        })
        .collect();
    let (rounds, mut hits) = (200, 0u64);
    let t0 = Instant::now();
    for _ in 0..rounds {
        for k in &probe {
            hits += u64::from(std::hint::black_box(cache.lookup(k)).is_some());
        }
    }
    spans.count("cache.lookup_ns", t0.elapsed().as_nanos() as f64);
    spans.count("cache.lookups", (rounds * probe.len()) as f64);
    report.check(if hits == (rounds * probe.len()) as u64 {
        Ok(())
    } else {
        Err(format!(
            "shared cache found {hits} of {} published instances",
            rounds * probe.len()
        ))
    });
    Ok(())
}

/// The server and cache layers traced on a short stream, for workloads
/// that do not reach them (see `finish_traced`). Its TCP sessions are all
/// due at once, so they run back to back.
pub fn probe(spans: &mut Spans, seed: u64) -> Result<(), String> {
    let running = Running::start()?;
    let mut report = Report::default();
    let replayed = replay_stream(seed);
    let mut tcp_stream = plans(seed, TCP_RATE, 4.0);
    tcp_stream.truncate(4);
    for p in &mut tcp_stream {
        p.due_ns = 0;
    }
    let tcp = Target::Tcp(running.addr.clone());
    traced_layers(spans, &tcp, &tcp_stream, &replayed[..500], &mut report)?;
    if report.failed > 0 {
        return Err(format!("serve probe failed: {:?}", report.problems));
    }
    Ok(())
}
