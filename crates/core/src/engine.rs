//! The run-time: executes compiled programs on the simulated machine,
//! servicing dynamic-compilation traps.
//!
//! The compile artifact ([`Program`]) is immutable and thread-shareable;
//! all mutable run-time state lives in a [`Session`] — its own VM (code
//! space, registers, data memory, cycle counter), per-region bookkeeping
//! and keyed code cache. Many sessions can therefore run the same
//! `Arc<Program>` concurrently, each with deterministic, bit-identical
//! simulated results. [`Engine`] is a thin compatibility alias
//! (`Session<&Program>`) for single-owner callers.
//!
//! On the first entry to a dynamic region the session redirects execution
//! to the region's set-up code (measured in VM cycles, like everything the
//! program itself runs); at the `EndSetup` trap it invokes the stitcher on
//! the filled constants table, installs the stitched code at the end of
//! the code space, and resumes there. Unkeyed regions then have their
//! `EnterRegion` instruction patched into a direct branch, so later
//! executions pay only a branch — the paper's "the dynamically-compiled
//! templates become part of the application". Keyed regions keep the trap
//! and pay a cache-lookup cost per entry, with one stitched instance per
//! distinct key tuple.
//!
//! Every instance enters the code space through one install step,
//! [`Session::install`] — fault point, read replay, relocation,
//! `verify_code`, tariff, `append_code`, counters and trace, publication,
//! indexing — whatever its source: a fresh stitch, a finished background
//! stitch ([`crate::tiered`]), another session's instance from the
//! [`SharedCodeCache`] (a bulk copy + relocation instead of a re-stitch;
//! see [`crate::cache`] for the sharding and the cycle-accounting
//! caveat), or an earlier process's instance from the
//! [`PersistentCache`]. Before stitching, a region probes the caches in
//! one order, shared then disk: keyed regions at the trap (the key is
//! the instance's identity), unkeyed regions after set-up (the constants
//! it produced are).

use crate::cache::{LruOrder, SharedCodeCache, SharedKey};
use crate::faults::{
    FailureKind, FailureRecord, FaultPlan, FaultPoint, FaultState, HealthReport, RecoveryPolicy,
    RecoveryState,
};
use crate::persist::{InstanceProbe, PersistentCache, StoreOutcome};
use crate::tiered::{TierDecision, TieredOptions, TieredState};
use crate::trace::{ClockDomain, EventKind, RegionProfile, TraceOptions, TraceState};
use crate::{Error, Program};
use dyncomp_ir::eval::EvalError;
use dyncomp_ir::fxhash::FxHashMap;
use dyncomp_machine::heap::HeapBuilder;
use dyncomp_machine::isa::{decode, encode, Inst, Op, CTP, SP};
use dyncomp_machine::template::ValueLoc;
use dyncomp_machine::verify::verify_code;
use dyncomp_machine::vm::{Stop, Vm, VmError};
use dyncomp_stitcher::{StitchError, StitchOptions, StitchStats, Stitched};
use std::borrow::Borrow;
use std::sync::Arc;
use std::time::Instant;

/// Session configuration.
#[derive(Clone, Debug)]
pub struct EngineOptions {
    /// Data memory size in bytes.
    pub memory_bytes: usize,
    /// Stitcher options (peephole, linearized table, cost model).
    pub stitch: StitchOptions,
    /// Cycles charged for an `EnterRegion` trap serviced by the runtime.
    pub trap_cycles: u64,
    /// Cycles charged for a keyed code-cache lookup (plus per-key
    /// hash/compare). The default models the O(1) hashed lookup the
    /// session implements (one hash-bucket probe plus an O(1) LRU splice);
    /// see EXPERIMENTS.md for the recalibration from the earlier
    /// linear-probe model.
    pub keyed_lookup_cycles: u64,
    /// Per-key-word hash-and-compare cycles in the keyed lookup.
    pub per_key_cycles: u64,
    /// Maximum stitched instances kept per keyed region (`None` =
    /// unbounded, the paper's model). When the cache is full the
    /// least-recently-entered key is evicted: its mapping is dropped and
    /// the region re-stitches on the next entry with that key. Code space
    /// itself is append-only (stitched code "becomes part of the
    /// application"), so eviction reclaims cache slots, not code words.
    pub keyed_cache_capacity: Option<usize>,
    /// Process-wide stitched-code cache shared between sessions. `None`
    /// (the default) keeps today's per-session caching and its exact
    /// simulated-cycle accounting — the mode the paper tables are measured
    /// in. With a cache, a session installs an instance some other session
    /// already stitched (bulk copy + relocation) instead of stitching it,
    /// charging [`EngineOptions::shared_lookup_cycles`] and
    /// [`EngineOptions::shared_install_cycles_per_word`]. Keyed regions
    /// probe at the trap and skip set-up too; unkeyed regions probe after
    /// set-up and install only when the publishing stitch's recorded table
    /// reads ([`dyncomp_stitcher::Stitched::reads`]) replay against this
    /// session's memory, so sessions specializing the same region to
    /// different constants never alias each other's code.
    pub shared_cache: Option<Arc<SharedCodeCache>>,
    /// Cycles charged per shared-cache probe (hash + stripe lock + bucket
    /// walk), hit or miss. Only charged when `shared_cache` is set.
    pub shared_lookup_cycles: u64,
    /// Cycles charged per code word when installing a shared-cache hit
    /// (the bulk copy + patch relocation).
    pub shared_install_cycles_per_word: u64,
    /// Tiered execution: on a cold region entry, run the statically
    /// compiled fallback copy while a background worker stitches (see
    /// [`crate::tiered`]). `None` (the default) keeps fully synchronous
    /// set-up + stitching and bit-identical accounting to the paper
    /// tables. Requires a program compiled with
    /// [`crate::CompileOptions::tiered_fallback`]; regions without a
    /// fallback copy fall back to synchronous stitching.
    pub tiered: Option<TieredOptions>,
    /// Structured tracing ([`crate::trace`]). `None` (the default) records
    /// nothing and allocates nothing. When set, every region-lifecycle
    /// transition is recorded as a cycle-stamped [`crate::TraceEvent`];
    /// tracing charges **zero** simulated cycles, so all cycle accounting
    /// is identical with it on or off.
    pub trace: Option<TraceOptions>,
    /// Deterministic fault-injection plan ([`crate::faults`]). `None`
    /// (the default) disables injection entirely — no state is allocated
    /// and no fault point costs anything, so the paper tables never see
    /// this machinery. A seeded plan makes every fallible layer fail on a
    /// deterministic, exactly repeatable schedule.
    pub faults: Option<FaultPlan>,
    /// Recovery policy: capped retry with virtual-cycle backoff,
    /// per-region quarantine, and the stitched-code byte-budget
    /// degradation ladder. Always present; with no failures and no byte
    /// budget it charges nothing.
    pub recovery: RecoveryPolicy,
    /// Host-native copy-and-patch backend: translate every installed
    /// instance to pre-assembled x86-64 stubs in an executable arena and
    /// dispatch region entries there, falling back to the VM for
    /// unsupported instructions (see `crates/native`). The VM remains the
    /// cycle oracle: native execution charges the *identical* simulated
    /// cycles and fuel, so checksums and cycle counts are bit-identical
    /// with this on or off — only host wall-clock changes. On hosts
    /// without the backend (non-x86-64, W^X mapping refused) the session
    /// records one `backend-unavailable` health entry and runs entirely
    /// on the VM. Off by default.
    pub native: bool,
    /// Crash-safe on-disk cache for stitched instances
    /// ([`crate::persist`]). `None` (the default) keeps everything
    /// in-process. When set, a region not yet stitched here probes the
    /// directory after the shared cache (keyed regions at the trap,
    /// unkeyed ones after set-up, under the same read-replay rule), and
    /// every fresh or background instance is stored for the next process.
    /// Loaded files are untrusted: they pass the same install step as any
    /// other source, and any corruption degrades to a local stitch with a
    /// typed health entry. Disk I/O is host-side (zero simulated cycles);
    /// a hit charges the shared-cache install model, so cold runs are
    /// bit-identical with this on or off.
    pub persist: Option<Arc<PersistentCache>>,
    /// Direct-threaded native dispatch (only meaningful with `native`):
    /// the whole static code region is installed as one native instance,
    /// `Jmp`/`Jsr` lower through a pc → host-entry dispatch table, and
    /// after each install the exit blobs of covered instances are
    /// back-patched into direct jumps, so hot control flow transfers
    /// between native instances without bouncing through the VM loop.
    /// Keyed `EnterRegion` traps additionally get patchable monomorphic
    /// inline-cache guards (when no keyed-cache capacity bound and no
    /// tiering is configured, whose bookkeeping needs the trap). Chained
    /// transfers charge *exactly* the simulated cycles and fuel the
    /// VM-dispatched path would, so all simulated quantities stay
    /// bit-identical. On by default; `false` reproduces the PR 6
    /// one-instance-per-dispatch behaviour (the `--no-native-chain`
    /// ablation).
    pub native_chain: bool,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            memory_bytes: 1 << 24,
            stitch: StitchOptions::default(),
            trap_cycles: 18,
            keyed_lookup_cycles: 16,
            per_key_cycles: 4,
            keyed_cache_capacity: None,
            shared_cache: None,
            shared_lookup_cycles: 30,
            shared_install_cycles_per_word: 1,
            tiered: None,
            trace: None,
            faults: None,
            recovery: RecoveryPolicy::default(),
            native: false,
            persist: None,
            native_chain: true,
        }
    }
}

/// Native dispatches within a single `call` before the whole-static-code
/// instance is installed (chain mode). Kernels that bounce between
/// native instances and the VM loop cross this within their first
/// post-install call; kernels that enter native once per call never do,
/// and never pay the snapshot's one-time translate cost. Purely a
/// host-side heuristic: simulated cycles are identical either way.
const STATIC_CHAIN_THRESHOLD: u64 = 4;

/// Per-session state of the host-native backend (`Some` iff
/// [`EngineOptions::native`] was set). All counters are host-side
/// bookkeeping: nothing here charges simulated cycles.
#[derive(Default)]
struct NativeState {
    /// Installed instances and their executable arena.
    backend: dyncomp_native::Backend,
    /// Set after an install-layer failure (unsupported host, mapping
    /// refused): no further installs are attempted this session.
    disabled: bool,
    /// Whether the `backend-unavailable` health entry was recorded (it
    /// is recorded at most once per session).
    reported: bool,
    installs: u64,
    declined: u64,
    entries: u64,
    translate_ns: u64,
    translated_instructions: u64,
    covered_instructions: u64,
    /// Whether the whole-static-code instance install was attempted
    /// (chain mode; tried once, lazily, when a single call shows
    /// repeated native dispatches — the VM-bounce pattern chaining
    /// exists to collapse).
    static_attempted: bool,
    /// One past the last static code word, snapshotted at session build
    /// (everything past it is dynamically installed).
    static_end: u32,
    /// Pristine static code words, snapshotted at session build (chain
    /// mode). The whole-static-code instance is translated from this
    /// copy, not the live code space: by the time the bounce heuristic
    /// fires, trap retirement may already have patched `EnterRegion`
    /// words into branches, and the guard-sled protocol is defined
    /// against the original traps. Consumed (freed) by the install.
    static_code: Vec<u32>,
    /// Value of `entries` when the current `call` started; the install
    /// heuristic compares against it to detect repeated dispatches
    /// within one call.
    call_entries: u64,
    /// pcs marked for native dispatch, per install base — retired when
    /// the instance is severed so the VM never bounces on a dead pc.
    marks: FxHashMap<u32, Vec<u32>>,
    /// Install base → owning region ([`crate::STATIC_REGION`] for the
    /// static-code instance), for attributing chained transfers.
    region_of: FxHashMap<u32, u16>,
    /// Direct transfers attributed to the static-code instance (it has
    /// no per-region report row).
    static_chained: u64,
}

/// Host-native backend counters ([`Session::native_report`]). All
/// wall-clock figures are host-side measurements; the simulated cycle
/// accounting is byte-identical with the backend on or off.
#[derive(Clone, Copy, Debug, Default)]
pub struct NativeReport {
    /// Whether the backend was requested ([`EngineOptions::native`]).
    pub enabled: bool,
    /// Whether it is serving dispatches (requested, host-supported, and
    /// not disabled by an install failure).
    pub active: bool,
    /// Instances installed into the executable arena.
    pub installs: u64,
    /// Instances declined because their entry instruction does not lower
    /// natively (they stay on the VM backend).
    pub declined: u64,
    /// Native dispatches served through the VM loop that made progress
    /// (a bail-out straight back to the dispatch pc does not count).
    pub entries: u64,
    /// Direct (chained) transfers between native instances: back-patched
    /// exit jumps, dispatch-table `Jmp`/`Jsr`, and guard hits. Zero when
    /// [`EngineOptions::native_chain`] is off.
    pub chained: u64,
    /// Host bytes currently installed in the arena.
    pub bytes: u64,
    /// Host nanoseconds spent translating instances.
    pub translate_ns: u64,
    /// SimAlpha instructions translated.
    pub translated_instructions: u64,
    /// Of those, how many lowered to native stubs (the rest route to the
    /// VM at run time).
    pub covered_instructions: u64,
}

/// A keyed-cache entry: where the instance was installed and which LRU
/// slot tracks its recency.
#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    /// Code address of the stitched instance.
    base: u32,
    /// Index into the region's [`LruOrder`] (`usize::MAX` for unkeyed
    /// regions, which never take the lookup path after their trap is
    /// patched away).
    lru: usize,
}

/// Per-region run-time bookkeeping.
#[derive(Debug, Default)]
struct RegionState {
    /// Stitched instances by key tuple (unkeyed regions use the empty
    /// key). The key hash is computed once per entry; [`FxHashMap`] keeps
    /// the per-lookup constant small.
    cache: FxHashMap<Vec<u64>, CacheEntry>,
    /// Recency order over `cache` (for bounded caches).
    lru: LruOrder<Vec<u64>>,
    /// Constants-table address of every stitch performed, in stitch order
    /// (for [`Session::restitch_all`]). Instances installed from the
    /// shared cache have no constants table in this session and are not
    /// recorded here.
    tables: Vec<u64>,
    /// Every stitched instance ever installed: (key, code base, length in
    /// words). Survives eviction — code space is append-only.
    instances: Vec<(Vec<u64>, u32, u32)>,
    /// Key recorded at `EnterRegion`, consumed at `EndSetup`.
    pending_key: Option<Vec<u64>>,
    /// Cycle counter value when set-up started.
    setup_start: u64,
    /// The region's counters: updated in place, copied out by
    /// [`Session::region_report`].
    report: RegionReport,
}

/// Per-region measurement report (feeds Table 2 / Table 3).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RegionReport {
    /// Region entries observed by the session.
    pub invocations: u64,
    /// Times the region was dynamically compiled *by this session*.
    pub stitches: u32,
    /// Instances installed from the shared cache instead of stitching.
    pub shared_hits: u64,
    /// Instances installed from the persistent on-disk cache instead of
    /// stitching (zero without [`EngineOptions::persist`]).
    pub persist_hits: u64,
    /// Persistent-cache probes that found nothing usable.
    pub persist_misses: u64,
    /// Persistent-cache files refused and degraded to a local stitch.
    pub persist_rejects: u64,
    /// VM cycles spent in set-up code.
    pub setup_cycles: u64,
    /// Simulated stitcher cycles.
    pub stitch_cycles: u64,
    /// Instructions the stitcher emitted.
    pub instructions_stitched: u32,
    /// Accumulated stitcher counters.
    pub stitch_stats: StitchStats,
    /// Keyed-cache entries evicted to respect
    /// [`EngineOptions::keyed_cache_capacity`].
    pub evictions: u64,
    /// Entries that ran the fallback copy while a background stitch was in
    /// flight (tiered mode; zero in synchronous mode).
    pub fallback_runs: u64,
    /// Instances installed from background workers (tiered mode).
    pub bg_installs: u64,
    /// Of `bg_installs`, those stitched speculatively from a predicted
    /// key.
    pub spec_installs: u64,
    /// Set-up cycles spent on background forks (worker virtual clocks;
    /// never added to `setup_cycles`).
    pub bg_setup_cycles: u64,
    /// Stitch cycles spent on background forks (never added to
    /// `stitch_cycles`).
    pub bg_stitch_cycles: u64,
    /// Faults the plan injected into this region (zero without a plan).
    pub faults_injected: u64,
    /// Recovery retries charged against this region.
    pub retries: u64,
    /// Compile-time inline sites replayed by this session's synchronous
    /// stitches ([`crate::Program::inline_sites`] × stitches).
    pub inlined_calls: u64,
    /// Direct (chained) native transfers taken by dispatches that entered
    /// through this region's instances (zero without `native_chain`).
    pub native_chained: u64,
}

/// One execution session over a shared, immutable [`Program`].
///
/// `P` is how the session holds the program: `Arc<Program>` (the default;
/// sessions on several threads share one artifact) or `&Program` (the
/// [`Engine`] compatibility alias). All mutable state — the VM, region
/// bookkeeping, the keyed code cache — is owned by the session, so
/// `Session<Arc<Program>>` is `Send` and sessions never contend except on
/// an explicitly configured [`SharedCodeCache`].
pub struct Session<P: Borrow<Program> = Arc<Program>> {
    program: P,
    /// The simulated machine (public for harnesses that need cycle counts
    /// or direct memory access).
    pub vm: Vm,
    options: EngineOptions,
    regions: Vec<RegionState>,
    /// Background stitch state; `Some` iff [`EngineOptions::tiered`] was
    /// configured.
    tiered: Option<TieredState>,
    /// Trace state; `Some` iff [`EngineOptions::trace`] was configured.
    /// Boxed: the common untraced path carries one pointer, not the ring.
    trace: Option<Box<TraceState>>,
    /// Fault-injection state; `Some` iff [`EngineOptions::faults`] was
    /// configured. Boxed for the same reason as `trace`.
    faults: Option<Box<FaultState>>,
    /// Recovery bookkeeping: the bounded failure ring, per-region
    /// quarantine, the byte-budget ladder.
    recovery: RecoveryState,
    /// Host-native backend state; `Some` iff [`EngineOptions::native`]
    /// was set. Boxed: the default VM-only path carries one pointer.
    native: Option<Box<NativeState>>,
    /// Set once the `engine-state` health entry for a lost native state
    /// has been recorded (it is recorded at most once per session).
    native_lost: bool,
}

/// Single-owner compatibility alias: a [`Session`] borrowing the program.
///
/// Existing `Engine::new(&program)` callers keep working unchanged;
/// multi-session callers migrate to `Session::new(Arc<Program>)`.
pub type Engine<'p> = Session<&'p Program>;

impl<P: Borrow<Program>> Session<P> {
    /// A session with default options.
    pub fn new(program: P) -> Self {
        Self::with_options(program, EngineOptions::default())
    }

    /// A session with explicit options.
    pub fn with_options(program: P, options: EngineOptions) -> Self {
        let p = program.borrow();
        let mut vm = Vm::new(options.memory_bytes);
        dyncomp_codegen::install(&p.compiled, &p.module, &mut vm);
        let regions = (0..p.compiled.regions.len())
            .map(|_| RegionState::default())
            .collect();
        let trace = options
            .trace
            .as_ref()
            .map(|t| Box::new(TraceState::new(t, p.compiled.regions.len())));
        let tiered = options
            .tiered
            .clone()
            .map(|t| TieredState::new(&p.compiled.regions, t, trace.is_some()));
        let faults = options
            .faults
            .as_ref()
            .map(|plan| Box::new(FaultState::new(plan)));
        let recovery = RecoveryState::new(options.recovery.clone(), p.compiled.regions.len());
        let mut native = options.native.then(Box::<NativeState>::default);
        if let Some(ns) = native.as_deref_mut() {
            // Snapshot the static-code extent before any dynamic install
            // grows the code space (chain mode translates exactly this
            // window as one instance), and keep a pristine copy of the
            // words themselves — the lazy install may fire after trap
            // retirement has patched some of them.
            ns.static_end = vm.code.len() as u32;
            if options.native_chain {
                ns.static_code = vm.code.clone();
            }
        }
        Session {
            program,
            vm,
            options,
            regions,
            tiered,
            trace,
            faults,
            recovery,
            native,
            native_lost: false,
        }
    }

    /// The program this session executes.
    pub fn program(&self) -> &Program {
        self.program.borrow()
    }

    /// Build data structures in VM memory.
    pub fn heap(&mut self) -> HeapBuilder<'_> {
        HeapBuilder::new(&mut self.vm.mem)
    }

    /// Call a function by name with raw-bit arguments; returns `r0`.
    ///
    /// # Errors
    /// VM faults, stitching failures, unknown names.
    pub fn call(&mut self, name: &str, args: &[u64]) -> Result<u64, Error> {
        if let Some(ns) = self.native.as_deref_mut() {
            // Call boundary for the static-instance install heuristic:
            // only repeated dispatches *within* one call count as the
            // bounce pattern worth paying the snapshot translate for.
            ns.call_entries = ns.entries;
        }
        let entry = self
            .program
            .borrow()
            .compiled
            .entry_of(name)
            .ok_or_else(|| Error::NoSuchFunction(name.to_string()))?;
        self.vm.setup_call(entry, args)?;
        self.run_to_halt()?;
        Ok(self.vm.reg(0))
    }

    /// Call a double-returning function; returns `f0`.
    ///
    /// # Errors
    /// Same as [`Session::call`].
    pub fn call_f(&mut self, name: &str, args: &[u64]) -> Result<f64, Error> {
        self.call(name, args)?;
        Ok(self.vm.freg(0))
    }

    /// Drive the VM until `Halt`, servicing dynamic-compilation traps.
    fn run_to_halt(&mut self) -> Result<(), Error> {
        loop {
            match self.vm.run()? {
                Stop::Halted => return Ok(()),
                Stop::EnterRegion { region, at } => self.enter_region(region, at)?,
                Stop::EndSetup { region } => self.end_setup(region)?,
                Stop::Native { at } => self.native_dispatch(at)?,
            }
        }
    }

    /// Serve a [`Stop::Native`] dispatch: run the installed host
    /// instance, then resume the VM at the native exit pc (or surface
    /// the identical `VmError` the interpreter would have produced).
    ///
    /// A bail-out that made no progress — fuel too low to charge the
    /// first block, or an entry the translator could not cover — hands
    /// the pc back to the interpreter exactly once
    /// ([`Vm::skip_native_once`]), so execution always advances.
    /// Checked accessor for the native-backend state at call sites whose
    /// surrounding control flow has already established it exists (the
    /// former `expect("checked above")` sites). A refactor slip that
    /// breaks the invariant must not abort the process — the session may
    /// be one of thousands multiplexed in a `dynccd` server — so a
    /// missing state records one typed `engine-state` health entry,
    /// retires every native dispatch mark (degrading this session to the
    /// pure-VM path), and returns `None` for the caller to skip the
    /// native-side work. Results stay correct either way: the VM is the
    /// oracle and native state is host-side bookkeeping only.
    fn native_checked(&mut self, region: u16) -> Option<&mut NativeState> {
        if self.native.is_none() {
            self.native_state_lost(region);
            return None;
        }
        self.native.as_deref_mut()
    }

    /// The "checked above" invariant broke: degrade this session to the
    /// VM path (clear every dispatch mark so the interpreter never traps
    /// into the missing backend again) and record one `engine-state`
    /// entry in the health ring. `region` is an attribution hint; the
    /// [`crate::STATIC_REGION`] sentinel is fine.
    #[cold]
    fn native_state_lost(&mut self, region: u16) {
        self.vm.clear_native_marks();
        if !self.native_lost {
            self.native_lost = true;
            self.record_failure(
                region,
                FailureKind::EngineState,
                false,
                "native-backend state missing at a checked dispatch site: \
                 session degraded to the VM path"
                    .to_string(),
            );
        }
    }

    /// Test hook: drop the native-backend state while leaving its VM
    /// dispatch marks armed — the exact state mismatch
    /// [`Session::native_checked`] exists to survive. The next dispatch
    /// must degrade this one session to the VM path (recording one
    /// `engine-state` health entry), never panic.
    #[doc(hidden)]
    pub fn force_native_state_loss(&mut self) {
        self.native = None;
    }

    fn native_dispatch(&mut self, at: u32) -> Result<(), Error> {
        let (out, delta, region) = {
            // Field-level borrow (not `native_checked`): the backend run
            // needs `&mut self.vm` alongside the state. The degrade path
            // is the same one the accessor takes.
            let Some(ns) = self.native.as_deref_mut() else {
                // A dispatch mark with no backend state behind it: the
                // "checked above" invariant broke. Record the mismatch,
                // retire every mark, and let the VM interpret this pc
                // (and all others) from here on.
                self.native_state_lost(crate::STATIC_REGION);
                return Ok(());
            };
            let before = ns.backend.chained();
            let out = ns.backend.run(at, &mut self.vm);
            let delta = ns.backend.chained() - before;
            let region = ns
                .backend
                .base_of(at)
                .and_then(|b| ns.region_of.get(&b).copied());
            (out, delta, region)
        };
        // An entry is a dispatch that made progress: a bail-out straight
        // back to the dispatch pc (fuel too short for the first block)
        // and a raced eviction are not entries.
        let progressed = match out {
            dyncomp_native::RunOutcome::Missing => false,
            dyncomp_native::RunOutcome::Exit { pc } => pc != at || delta > 0,
            _ => true,
        };
        if progressed {
            let mut bounce = false;
            if let Some(ns) = self.native_checked(region.unwrap_or(crate::STATIC_REGION)) {
                ns.entries += 1;
                // The bounce heuristic: one call re-dispatching this
                // often is ping-ponging between native code and the VM
                // loop, so the one-time static-snapshot translate will
                // pay for itself. Kernels that enter native once per
                // call never trip it and never pay.
                bounce =
                    !ns.static_attempted && ns.entries - ns.call_entries >= STATIC_CHAIN_THRESHOLD;
            }
            if bounce {
                self.install_static_native();
            }
        }
        if delta > 0 {
            match region {
                Some(r) if (r as usize) < self.regions.len() => {
                    self.regions[r as usize].report.native_chained += delta;
                    self.tr(EventKind::NativeChained {
                        region: r,
                        count: delta,
                    });
                }
                _ => {
                    if let Some(ns) = self.native_checked(crate::STATIC_REGION) {
                        ns.static_chained += delta;
                    }
                    self.tr(EventKind::NativeChained {
                        region: crate::STATIC_REGION,
                        count: delta,
                    });
                }
            }
        }
        match out {
            dyncomp_native::RunOutcome::Exit { pc } => {
                if pc == at {
                    self.vm.skip_native_once(at);
                }
                self.vm.pc = pc;
                Ok(())
            }
            dyncomp_native::RunOutcome::MemFault { addr } => {
                Err(Error::Vm(VmError::Mem(EvalError::OutOfBounds { addr })))
            }
            dyncomp_native::RunOutcome::DivFault { pc } => {
                Err(Error::Vm(VmError::DivideByZero { pc }))
            }
            dyncomp_native::RunOutcome::Missing => {
                self.vm.unmark_native(at);
                Ok(())
            }
        }
    }

    /// Translate the `len` code words installed at `base` for the native
    /// backend, folding host wall-clock and coverage into the session
    /// counters (skipped, via [`Session::native_checked`], if the state
    /// vanished between the caller's check and here).
    fn translate_native(&mut self, region: u16, base: u32, len: u32) -> dyncomp_native::Artifact {
        let start = Instant::now();
        let code = &self.vm.code[base as usize..(base as usize + len as usize)];
        // Chain mode lowers Jmp/Jsr through the dispatch table; region
        // instances carry no guard sleds (those live in the static-code
        // instance, in front of the EnterRegion traps themselves).
        let spec = dyncomp_native::ChainSpec {
            indirect: self.options.native_chain,
            guards: Vec::new(),
            leaders: Vec::new(),
        };
        let artifact = dyncomp_native::translate_with(code, base, &self.vm.model, &spec);
        if let Some(ns) = self.native_checked(region) {
            ns.translate_ns += start.elapsed().as_nanos() as u64;
            ns.translated_instructions += u64::from(artifact.instructions);
            ns.covered_instructions += u64::from(artifact.covered);
        }
        artifact
    }

    /// Whether `EnterRegion` inline-cache guards may be patched: a guard
    /// hit bypasses the trap handler, so it is only bit-identical when
    /// nothing on the hit path has observable state — no keyed-cache LRU
    /// to touch (capacity bound) and no key predictor to feed (tiering).
    fn guards_enabled(&self) -> bool {
        self.options.native_chain
            && self.options.keyed_cache_capacity.is_none()
            && self.options.tiered.is_none()
    }

    /// Install the whole static code region as one native instance
    /// (chain mode): every supported block leader becomes a dispatch
    /// point and a published chain target, `Jmp`/`Jsr` thread through
    /// the dispatch table, and keyed `EnterRegion` pcs reserve
    /// patchable guard sleds. Attempted once, lazily, when the bounce
    /// heuristic fires ([`STATIC_CHAIN_THRESHOLD`] dispatches within one
    /// call); a decline (nothing lowered, arena refused) leaves the
    /// session on the PR 6 per-instance path. Translation reads the
    /// pristine session-build snapshot, so traps retired before the
    /// install still appear as `EnterRegion` words — their guard sleds
    /// are armed retroactively below.
    fn install_static_native(&mut self) {
        if !self.options.native_chain {
            return;
        }
        let Some(ns) = self.native.as_deref() else {
            return;
        };
        if ns.static_attempted || ns.disabled {
            return;
        }
        let end = ns.static_end;
        let Some(ns) = self.native_checked(crate::STATIC_REGION) else {
            return;
        };
        ns.static_attempted = true;
        if !dyncomp_native::available() || end == 0 {
            // `maybe_install_native` reports host unavailability once.
            return;
        }
        let guards: Vec<dyncomp_native::GuardSpec> = if self.guards_enabled() {
            self.program
                .borrow()
                .compiled
                .regions
                .iter()
                .filter(|rc| rc.enter_pc < end)
                .map(|rc| dyncomp_native::GuardSpec {
                    pc: rc.enter_pc,
                    keys: rc.key_locs.iter().map(keyslot).collect(),
                })
                .collect()
        } else {
            Vec::new()
        };
        // Region exit continuations must be block leaders: a stitched
        // instance's patched exit blob can only land on a block head
        // (where the block's fuel and cycles are charged), and the
        // static control flow alone often leaves those pcs mid-block.
        let leaders: Vec<u32> = self
            .program
            .borrow()
            .compiled
            .regions
            .iter()
            .flat_map(|rc| rc.exit_pcs.iter().copied())
            .collect();
        let spec = dyncomp_native::ChainSpec {
            indirect: true,
            guards,
            leaders,
        };
        let start = Instant::now();
        let snapshot = match self.native_checked(crate::STATIC_REGION) {
            Some(ns) => std::mem::take(&mut ns.static_code),
            None => return,
        };
        let artifact = {
            let code = &snapshot[..end as usize];
            dyncomp_native::translate_with(code, 0, &self.vm.model, &spec)
        };
        let Some(ns) = self.native_checked(crate::STATIC_REGION) else {
            return;
        };
        ns.translate_ns += start.elapsed().as_nanos() as u64;
        ns.translated_instructions += u64::from(artifact.instructions);
        ns.covered_instructions += u64::from(artifact.covered);
        if ns.backend.install_any(0, &artifact).is_err() {
            return;
        }
        ns.installs += 1;
        ns.region_of.insert(0, crate::STATIC_REGION);
        // Deliberately mark *no* VM dispatch pc for the static snapshot:
        // marking every leader would hand the VM off into many short
        // native runs (one per stretch between unsupported ops), and the
        // per-dispatch FFI overhead of those bounces costs more than the
        // VM interpreting the same stretch. The snapshot is reached only
        // through chained transfers — dispatch-table jumps and patched
        // exits from region instances, and patched entry guards — where
        // control is already native and the transfer is a bare `jmp`.
        ns.marks.insert(0, Vec::new());
        ns.backend.chain(0);
        // Unkeyed regions whose trap retired before this install left
        // their guard sleds unarmed (retirement arms the guard, but the
        // sled did not exist yet). Arm them now; keyed guards re-arm on
        // the next cache hit without help.
        let retired: Vec<(u16, u32)> = self
            .program
            .borrow()
            .compiled
            .regions
            .iter()
            .enumerate()
            .filter(|(_, rc)| rc.key_locs.is_empty())
            .filter_map(|(i, _)| {
                let entry = self.regions[i].cache.get(&[] as &[u64])?;
                Some((i as u16, entry.base))
            })
            .collect();
        for (region, base) in retired {
            self.maybe_patch_guard(region, &[], base);
        }
    }

    /// Request direct threading for the freshly installed instance at
    /// `base`. The fault plan is consulted *before* any availability
    /// check — an injected chain-patch failure is exercised (and
    /// counted) on every host — and a declined request leaves the
    /// instance installed but unchained, excluded from chaining in both
    /// directions.
    fn request_chain(&mut self, region: u16, base: u32) {
        if self.native.is_none() || !self.options.native_chain {
            return;
        }
        if self.fire(FaultPoint::NativeChainPatch, region).is_some() {
            self.record_failure(
                region,
                FailureKind::BackendUnavailable,
                true,
                "injected native chain-patch failure: instance stays unchained".to_string(),
            );
            self.tr(EventKind::NativeUnchained { region });
            return;
        }
        let Some(ns) = self.native_checked(region) else {
            return;
        };
        if ns.disabled || !ns.backend.has(base) {
            return;
        }
        ns.backend.chain(base);
    }

    /// Chain mode: patch the static instance's guard sled at this
    /// region's `EnterRegion` into a direct entry to the chained
    /// instance at `base`.
    ///
    /// Keyed regions (called on a keyed trap hit, `key` non-empty) get
    /// a monomorphic inline cache: the guard compares the live key
    /// locations against `key` and on a hit charges exactly what the
    /// trap path does (1 fuel; trap + lookup + per-key cycles). Unkeyed
    /// regions (called at trap retirement, `key` empty) get an
    /// unconditional entry charging what the VM pays interpreting the
    /// retirement `Br` it replaces (1 fuel; one taken branch). Any miss
    /// — different key, low fuel, unreadable frame slot — falls back to
    /// the VM path, uncharged. At most one guard per region is live at
    /// a time.
    fn maybe_patch_guard(&mut self, region: u16, key: &[u64], base: u32) {
        if !self.guards_enabled() {
            return;
        }
        let Some(ns) = self.native.as_deref() else {
            return;
        };
        if ns.disabled || !ns.backend.has(0) {
            return;
        }
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let enter_pc = rc.enter_pc;
        let keys: Vec<(dyncomp_native::KeySlot, u64)> = rc
            .key_locs
            .iter()
            .zip(key)
            .map(|(l, &v)| (keyslot(l), v))
            .collect();
        let cycles = if key.is_empty() {
            self.vm.model.cost(Op::Br, true)
        } else {
            self.options.trap_cycles
                + self.options.keyed_lookup_cycles
                + self.options.per_key_cycles * key.len() as u64
        };
        let Some(ns) = self.native_checked(region) else {
            return;
        };
        if ns.backend.patch_guard(0, enter_pc, &keys, SP, cycles, base) {
            // The guard lives and dies with its target: record the mark
            // under `base` so severing the instance retires it too.
            ns.marks.entry(base).or_default().push(enter_pc);
            self.vm.mark_native(enter_pc);
        }
    }

    /// Tear down the native instance at `base` (evicted, quarantined,
    /// or shed by the byte-budget ladder): every chain link through it
    /// is severed before its pages are unmapped, and its dispatch marks
    /// are retired so the VM never bounces on a dead pc. Chain mode
    /// only — the unchained backend keeps instances installed for the
    /// append-only code space, exactly as in PR 6.
    fn sever_native(&mut self, region: u16, base: u32) {
        if !self.options.native_chain {
            return;
        }
        let Some(ns) = self.native.as_deref_mut() else {
            return;
        };
        if !ns.backend.remove(base) {
            return;
        }
        ns.region_of.remove(&base);
        let marks = ns.marks.remove(&base).unwrap_or_default();
        for pc in marks {
            self.vm.unmark_native(pc);
        }
        self.tr(EventKind::NativeUnchained { region });
    }

    /// Sever every native instance belonging to `region` (quarantine,
    /// budget degradation): stale chains must never outlive a target the
    /// session will not trust again.
    fn sever_region_native(&mut self, region: u16) {
        if self.native.is_none() || !self.options.native_chain {
            return;
        }
        let bases: Vec<u32> = self.regions[region as usize]
            .instances
            .iter()
            .map(|&(_, b, _)| b)
            .collect();
        for b in bases {
            self.sever_native(region, b);
        }
    }

    /// Attempt a native install for the instance at `base` (every
    /// install ends in [`Session::index_instance`], which calls this).
    /// Returns the host bytes actually installed, so the
    /// caller can fold them into the byte-budget ladder. Never fails the
    /// session: every degradation leaves the instance running on the VM
    /// backend, recorded as a `backend-unavailable` health entry.
    fn maybe_install_native(
        &mut self,
        region: u16,
        base: u32,
        len: u32,
        native: Option<dyncomp_native::Artifact>,
    ) -> u64 {
        if self.native.is_none() {
            return 0;
        }
        // Consult the fault plan before the availability checks, so an
        // injected arena exhaustion is exercised (and counted) even on
        // hosts where the real backend cannot run.
        if self
            .fire(FaultPoint::NativeArenaExhausted, region)
            .is_some()
        {
            self.record_failure(
                region,
                FailureKind::BackendUnavailable,
                true,
                "injected native-arena exhaustion: instance stays on the VM backend".to_string(),
            );
            return 0;
        }
        let Some(ns) = self.native_checked(region) else {
            return 0;
        };
        if ns.disabled {
            return 0;
        }
        if !dyncomp_native::available() {
            ns.disabled = true;
            if !std::mem::replace(&mut ns.reported, true) {
                self.record_failure(
                    region,
                    FailureKind::BackendUnavailable,
                    false,
                    "native backend unsupported on this host: session runs on the VM backend"
                        .to_string(),
                );
            }
            return 0;
        }
        let artifact = match native {
            Some(a) => a,
            None => self.translate_native(region, base, len),
        };
        if !artifact.entry_supported {
            if let Some(ns) = self.native_checked(region) {
                ns.declined += 1;
            }
            return 0;
        }
        let bytes = artifact.bytes.len() as u64;
        let chain = self.options.native_chain;
        let Some(ns) = self.native_checked(region) else {
            return 0;
        };
        match ns.backend.install(base, &artifact) {
            Ok(()) => {
                ns.installs += 1;
                ns.region_of.insert(base, region);
                // Chain mode marks every dispatchable leader, so the VM
                // re-enters native code mid-instance after any exit;
                // unchained mode keeps the PR 6 base-only mark.
                let marks: Vec<u32> = if chain {
                    artifact.entries.iter().map(|&(pc, _)| pc).collect()
                } else {
                    vec![base]
                };
                ns.marks.insert(base, marks.clone());
                for pc in marks {
                    self.vm.mark_native(pc);
                }
                bytes
            }
            Err(e) => {
                ns.disabled = true;
                self.record_failure(
                    region,
                    FailureKind::BackendUnavailable,
                    false,
                    format!("native install failed: {e}; session runs on the VM backend"),
                );
                0
            }
        }
    }

    /// Read a region's key tuple from the trap-point value locations.
    ///
    /// # Errors
    /// A faulting frame-slot read propagates as [`Error::Vm`]: a bad stack
    /// state must not silently alias distinct cache keys.
    pub(crate) fn read_key(&self, locs: &[ValueLoc]) -> Result<Vec<u64>, Error> {
        let mut key = Vec::with_capacity(locs.len());
        for l in locs {
            key.push(match *l {
                ValueLoc::Reg(r) => self.vm.reg(r),
                ValueLoc::FReg(r) => self.vm.freg(r).to_bits(),
                ValueLoc::Frame(off) => self
                    .vm
                    .mem
                    .read_u64(self.vm.reg(SP).wrapping_add(off as i64 as u64))
                    .map_err(|e| Error::Vm(e.into()))?,
            });
        }
        Ok(key)
    }

    /// Record a trace event stamped with the session clock (a no-op
    /// without [`EngineOptions::trace`]; the `kind` argument is only
    /// constructed at traced call sites).
    #[inline]
    fn tr(&mut self, kind: EventKind) {
        if let Some(t) = self.trace.as_mut() {
            t.emit(self.vm.cycles, ClockDomain::Session, kind);
        }
    }

    /// Relay resolution-point events recorded inside the tiered state
    /// (BgReady stamps live on virtual worker clocks the engine never
    /// sees directly), and fold background failures into the health log.
    fn relay_tiered_events(&mut self) {
        let Some(tiered) = self.tiered.as_mut() else {
            return;
        };
        let events = tiered.take_events();
        let failures = tiered.take_failures();
        if let Some(t) = self.trace.as_mut() {
            for e in events {
                t.emit(e.at, e.clock, e.kind);
            }
        }
        for f in failures {
            self.record_failure(
                f.region,
                FailureKind::Background {
                    panicked: f.panicked,
                },
                f.injected,
                f.message,
            );
        }
    }

    /// Consult the fault plan at an opportunity for `point` in `region`,
    /// returning the injection's magnitude when it fires. Quarantined
    /// regions are exempt: the degraded path they run is trusted
    /// (injected faults model optimized-path failures). A no-op without
    /// [`EngineOptions::faults`].
    fn fire(&mut self, point: FaultPoint, region: u16) -> Option<u64> {
        if self.recovery.is_quarantined(region) {
            return None;
        }
        let magnitude = self.faults.as_mut()?.fire(point, region)?;
        self.drain_injected();
        Some(magnitude)
    }

    /// Fold fires logged inside [`FaultState`] (including ones the tiered
    /// state triggered while the session was borrowed elsewhere) into the
    /// per-region counters and the trace.
    fn drain_injected(&mut self) {
        let Some(f) = self.faults.as_mut() else {
            return;
        };
        for (point, region) in f.drain_pending() {
            self.regions[region as usize].report.faults_injected += 1;
            self.recovery.note_fault();
            self.tr(EventKind::FaultInjected { region, point });
        }
    }

    /// Record a failure (injected or genuine) into the bounded health
    /// ring, quarantining the region if it crossed the policy threshold.
    fn record_failure(&mut self, region: u16, kind: FailureKind, injected: bool, message: String) {
        let rec = FailureRecord {
            at: self.vm.cycles,
            region,
            kind,
            injected,
            message,
        };
        if self.recovery.record(rec) {
            self.tr(EventKind::Quarantined { region });
            // The quarantined region's optimized instances will never be
            // trusted again: sever any chains into them before the
            // session degrades to set-up or fallback execution.
            self.sever_region_native(region);
        }
    }

    /// Charge the deterministic retry backoff for attempt `attempt`
    /// (linear in the attempt number) and count the retry.
    fn charge_retry(&mut self, region: u16, attempt: u32) {
        let backoff = self.recovery.policy().retry_backoff_cycles * u64::from(attempt);
        self.vm.cycles += backoff;
        self.regions[region as usize].report.retries += 1;
        self.recovery.note_retry();
        self.tr(EventKind::RecoveryRetry {
            region,
            attempt,
            backoff,
        });
    }

    /// Serve an entry from the region's statically compiled fallback copy
    /// (quarantine, budget exhaustion, or a failed background install).
    fn run_fallback(&mut self, region: u16, fallback_pc: u32) {
        self.regions[region as usize].report.fallback_runs += 1;
        self.tr(EventKind::FallbackRun { region });
        self.vm.pc = fallback_pc;
    }

    fn enter_region(&mut self, region: u16, _at: u32) -> Result<(), Error> {
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let key = self.read_key(&rc.key_locs)?;
        let keyed = !rc.key_locs.is_empty();
        let (setup_pc, fallback_pc, key_len) = (rc.setup_pc, rc.fallback_pc, rc.key_locs.len());
        self.regions[region as usize].report.invocations += 1;
        self.vm.cycles += self.options.trap_cycles;
        self.tr(EventKind::RegionEnter { region, keyed });
        if keyed {
            self.vm.cycles +=
                self.options.keyed_lookup_cycles + self.options.per_key_cycles * key_len as u64;
        }
        let cached = self.regions[region as usize].cache.get(&key).copied();
        if keyed {
            self.tr(EventKind::KeyedLookup {
                region,
                hit: cached.is_some(),
            });
        }
        match cached {
            Some(entry) => {
                if keyed {
                    self.regions[region as usize].lru.touch(entry.lru);
                    self.maybe_patch_guard(region, &key, entry.base);
                }
                self.vm.pc = entry.base;
                self.speculate_after(region, &key);
            }
            None => {
                // Quarantined or budget-exhausted regions with a static
                // fallback copy never attempt the optimized path again.
                if let Some(fb) = fallback_pc {
                    if self.recovery.is_quarantined(region) || self.recovery.level() >= 2 {
                        self.run_fallback(region, fb);
                        return Ok(());
                    }
                }
                // Not stitched here yet. Keyed regions consult the code
                // caches before paying for set-up + stitching: the key
                // *is* the instance's identity, readable right at the
                // trap. Unkeyed regions must not probe here — their
                // identity is the run-time constants set-up has yet to
                // produce, and an entry filed under the empty key would
                // alias instances specialized to different constants
                // across sessions (wrong code, silently wrong results).
                // They probe in `end_setup` instead, validated against the
                // publishing stitch's recorded table reads. A refused
                // install falls through to the session's own stitch path.
                if keyed && self.install_cached(region, &key)? {
                    self.speculate_after(region, &key);
                } else if let (true, Some(fallback)) = (self.tiered.is_some(), fallback_pc) {
                    self.tiered_miss(region, key, fallback, setup_pc)?;
                } else {
                    self.begin_setup(region, key, setup_pc, fallback_pc);
                }
            }
        }
        Ok(())
    }

    /// Redirect to the region's set-up code, pre-flighting injected
    /// set-up traps under the recovery policy. A trap is modeled on a
    /// probe fork of the VM with a small instruction budget
    /// ([`crate::faults::Injection::magnitude`]); the attempt's cycles
    /// are charged to the session, the failure is recorded, and set-up is
    /// retried — or, once the region is quarantined, its fallback copy
    /// (when the artifact has one) serves the entry.
    fn begin_setup(&mut self, region: u16, key: Vec<u64>, setup_pc: u32, fallback_pc: Option<u32>) {
        let mut attempt = 0u32;
        while let Some(fuel) = self.fire(FaultPoint::SetupVmTrap, region) {
            let mut fork = self.vm.clone();
            // The probe fork has no native dispatcher; let it interpret.
            fork.clear_native_marks();
            fork.pc = setup_pc;
            fork.cycles = 0;
            fork.fuel = fuel.max(1);
            let msg = match fork.run() {
                Err(e) => format!("injected VM trap during set-up: {e}"),
                Ok(_) => "injected VM trap during set-up (probe exhausted)".to_string(),
            };
            self.vm.cycles += fork.cycles;
            self.record_failure(region, FailureKind::Setup, true, msg);
            if self.recovery.is_quarantined(region) {
                if let Some(fb) = fallback_pc {
                    self.run_fallback(region, fb);
                    return;
                }
            }
            attempt += 1;
            if attempt > self.recovery.policy().max_retries {
                break;
            }
            self.charge_retry(region, attempt);
        }
        self.start_setup(region, key, setup_pc);
    }

    /// Jump to the region's set-up code; `end_setup` picks up from here.
    fn start_setup(&mut self, region: u16, key: Vec<u64>, setup_pc: u32) {
        let st = &mut self.regions[region as usize];
        st.pending_key = Some(key);
        st.setup_start = self.vm.cycles;
        self.vm.pc = setup_pc;
        self.tr(EventKind::SetupStart { region });
    }

    /// Tiered mode, cold entry: install a finished background stitch, run
    /// the fallback copy while one is in flight, or (if the background run
    /// failed) stitch synchronously. The jobs-map probe piggybacks on the
    /// trap / keyed-lookup charges already paid by the caller; enqueued
    /// jobs are charged [`TieredOptions::dispatch_cycles`] each.
    fn tiered_miss(
        &mut self,
        region: u16,
        key: Vec<u64>,
        fallback_pc: u32,
        setup_pc: u32,
    ) -> Result<(), Error> {
        let now = self.vm.cycles;
        let (decision, enqueued, dispatch) = {
            let Some(tiered) = self.tiered.as_mut() else {
                // The caller checked `tiered.is_some()`; if the state is
                // gone anyway, degrade to the synchronous set-up path
                // rather than aborting the process.
                self.begin_setup(region, key, setup_pc, Some(fallback_pc));
                return Ok(());
            };
            let dispatch = tiered.options().dispatch_cycles;
            let (decision, enqueued) = tiered.decide(
                &self.vm,
                region,
                &key,
                &self.options.stitch,
                now,
                self.faults.as_deref_mut(),
            );
            (decision, enqueued, dispatch)
        };
        self.vm.cycles += enqueued * dispatch;
        self.drain_injected();
        self.relay_tiered_events();
        for _ in 0..enqueued {
            self.tr(EventKind::TierDispatch { region });
        }
        match decision {
            TierDecision::Install {
                stitched,
                setup_cycles,
                stitch_cycles,
                speculative,
            } => {
                // A refused install consumes the job and degrades this
                // entry to the fallback copy; the next entry re-enqueues.
                let source = Source::Background {
                    stitched,
                    setup_cycles,
                    stitch_cycles,
                    speculative,
                };
                if !self.install(region, key.clone(), source)? {
                    self.run_fallback(region, fallback_pc);
                }
                self.speculate_after(region, &key);
            }
            TierDecision::Fallback => {
                self.run_fallback(region, fallback_pc);
                self.speculate_after(region, &key);
            }
            TierDecision::Synchronous => self.start_setup(region, key, setup_pc),
        }
        Ok(())
    }

    /// Tiered mode: feed the region's key predictor and enqueue predicted
    /// keys (bounded by the in-flight cap), charging dispatch cycles per
    /// job. No-op when tiering or speculation is off, or the region is
    /// unkeyed.
    fn speculate_after(&mut self, region: u16, key: &[u64]) {
        if self.tiered.is_none() || key.is_empty() {
            return;
        }
        let now = self.vm.cycles;
        let (enqueued, dispatch) = {
            let Some(tiered) = self.tiered.as_mut() else {
                return;
            };
            let dispatch = tiered.options().dispatch_cycles;
            let cache = &self.regions[region as usize].cache;
            let is_cached = |k: &[u64]| cache.contains_key(k);
            let enqueued = tiered.observe_and_speculate(
                &self.vm,
                region,
                key,
                &is_cached,
                &self.options.stitch,
                now,
                self.faults.as_deref_mut(),
            );
            (enqueued, dispatch)
        };
        self.vm.cycles += enqueued * dispatch;
        self.drain_injected();
        for _ in 0..enqueued {
            self.tr(EventKind::SpeculateIssue { region });
        }
    }

    /// Probe the shared cache (when configured), charging the probe cost.
    /// An injected poisoned shard abandons the probe: the charge is paid
    /// and the entry proceeds as a miss.
    fn shared_lookup(&mut self, region: u16, key: &[u64]) -> Option<Arc<Stitched>> {
        let cache = Arc::clone(self.options.shared_cache.as_ref()?);
        self.vm.cycles += self.options.shared_lookup_cycles;
        if self
            .fire(FaultPoint::SharedCachePoisonedShard, region)
            .is_some()
        {
            self.record_failure(
                region,
                FailureKind::SharedCache,
                true,
                "injected poisoned shared-cache shard: probe abandoned".to_string(),
            );
            self.tr(EventKind::CacheLookup { region, hit: false });
            return None;
        }
        let hit = cache.lookup(&SharedKey {
            program: self.program.borrow().id(),
            region,
            key: key.to_vec(),
        });
        self.tr(EventKind::CacheLookup {
            region,
            hit: hit.is_some(),
        });
        hit
    }

    /// Install `(region, key)` from the code caches when one holds a
    /// usable instance: the process-wide shared cache first, then the
    /// on-disk cache. Keyed regions call this at the trap, unkeyed ones
    /// after set-up (see [`Session::enter_region`]). `Ok(false)` — a miss
    /// everywhere, or every hit refused — leaves the caller to stitch.
    fn install_cached(&mut self, region: u16, key: &[u64]) -> Result<bool, Error> {
        if let Some(stitched) = self.shared_lookup(region, key) {
            if self.install(region, key.to_vec(), Source::Shared(stitched))? {
                return Ok(true);
            }
        }
        self.persist_probe(region, key)
    }

    /// Bookkeeping for a refused persistent-cache load: the per-region
    /// counter, a [`EventKind::PersistReject`] trace event, and a typed
    /// health entry. The caller falls through to the session's own
    /// set-up + stitch path, whose store then overwrites the bad file —
    /// corruption is self-healing and never fatal.
    fn persist_reject(&mut self, region: u16, kind: FailureKind, injected: bool, message: String) {
        self.regions[region as usize].report.persist_rejects += 1;
        self.tr(EventKind::PersistReject { region });
        self.record_failure(region, kind, injected, message);
    }

    /// Probe the persistent on-disk cache (when configured) for this
    /// `(region, key)` and hand a loaded instance to
    /// [`Session::install`], which treats it as untrusted like any other
    /// source. Disk traffic charges zero simulated cycles.
    ///
    /// # Errors
    /// Only install-side errors propagate; anything wrong with the cached
    /// bytes degrades to a miss.
    fn persist_probe(&mut self, region: u16, key: &[u64]) -> Result<bool, Error> {
        let Some(cache) = self.options.persist.as_ref().map(Arc::clone) else {
            return Ok(false);
        };
        let hash = self.program.borrow().artifact_hash();
        match cache.load_instance(hash, region, key) {
            InstanceProbe::Miss => {
                self.regions[region as usize].report.persist_misses += 1;
                self.tr(EventKind::PersistLookup { region, hit: false });
                Ok(false)
            }
            InstanceProbe::Reject(reason) => {
                self.persist_reject(
                    region,
                    FailureKind::Persist,
                    false,
                    format!("persistent instance refused: {reason}"),
                );
                Ok(false)
            }
            InstanceProbe::Hit(inst) => {
                let inst = *inst;
                let source = Source::Persist {
                    stitched: Arc::new(inst.stitched),
                    native: inst.native.map(|a| (inst.install_base, a)),
                };
                self.install(region, key.to_vec(), source)
            }
        }
    }

    /// Store a freshly stitched instance in the persistent cache (when
    /// configured), so the next *process* can skip the work. Host-side
    /// only — zero simulated cycles — and never fatal: lock contention
    /// skips the store (the competing writer's bytes are equivalent),
    /// an injected torn write deliberately leaves a truncated file for
    /// the next load to refuse, and an I/O failure records one typed
    /// `persist` health entry.
    fn persist_store(
        &mut self,
        region: u16,
        key: &[u64],
        stitched: &Stitched,
        base: u32,
        native: Option<&dyncomp_native::Artifact>,
    ) {
        let Some(cache) = self.options.persist.as_ref().map(Arc::clone) else {
            return;
        };
        if self
            .fire(FaultPoint::PersistLockContended, region)
            .is_some()
        {
            cache.note_lock_skip();
            self.record_failure(
                region,
                FailureKind::Persist,
                true,
                "injected persist lock contention: store skipped".to_string(),
            );
            return;
        }
        let torn = self.fire(FaultPoint::PersistWriteTorn, region).is_some();
        if torn {
            self.record_failure(
                region,
                FailureKind::Persist,
                true,
                "injected torn persist write: truncated file left for the next load to refuse"
                    .to_string(),
            );
        }
        let hash = self.program.borrow().artifact_hash();
        // Native stubs are stored only if they can serve entries.
        let native = native.filter(|a| a.entry_supported);
        let outcome = cache.store_instance(hash, region, key, stitched, base, native, torn);
        if let StoreOutcome::Failed(reason) = outcome {
            self.record_failure(
                region,
                FailureKind::Persist,
                false,
                format!("persist store failed: {reason}"),
            );
        }
    }

    /// One stitch of `region`'s constants table at code address `base`:
    /// consult the fault plan (injected bad template, post-stitch
    /// corruption) and degrade to interpretive stitching when the budget
    /// ladder or quarantine demands it. Returns the instance and whether
    /// it was deliberately corrupted. Verifies and installs nothing:
    /// [`Session::install`] does both.
    fn stitch_once(
        &mut self,
        region: u16,
        table: u64,
        base: u32,
    ) -> Result<(Stitched, bool), Refusal> {
        if self.fire(FaultPoint::StitchBadTemplate, region).is_some() {
            return Err(Refusal::Failed(
                FailureKind::Stitch,
                true,
                "injected stitch failure: malformed template".to_string(),
            ));
        }
        // Recording plan patches is host-side bookkeeping only (no stats,
        // no cycles); request it only when there is a trace to feed. The
        // degradation ladder's first step (and quarantine without a
        // fallback copy) turns copy-and-patch plans off — interpretive
        // stitching, bit-identical output, no plan bookkeeping.
        let record = self.trace.is_some() && !self.options.stitch.record_patches;
        let degrade_plans = self.options.stitch.plans
            && (self.recovery.level() >= 1 || self.recovery.is_quarantined(region));
        let stitch_opts = if record || degrade_plans {
            let mut o = self.options.stitch.clone();
            o.record_patches = o.record_patches || record;
            o.plans = o.plans && !degrade_plans;
            Some(o)
        } else {
            None
        };
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let mut stitched = dyncomp_stitcher::stitch(
            rc,
            table,
            &mut self.vm.mem,
            base,
            stitch_opts.as_ref().unwrap_or(&self.options.stitch),
        )
        .map_err(Refusal::Fatal)?;
        let mut corrupted = false;
        if self.fire(FaultPoint::CodeCorruption, region).is_some() && !stitched.code.is_empty() {
            // Flip an instruction-start word (never an `Ldiw` payload,
            // which no decoder could fault on) to a value nothing
            // decodes: the pre-install verifier must catch it. A fault
            // just fired, so the plan state exists; if it vanished
            // anyway, skip the corruption rather than panic.
            if let Some(f) = self.faults.as_mut() {
                let starts = instruction_starts(&stitched.code);
                let pick = f.draw_below(starts.len() as u64) as usize;
                stitched.code[starts[pick]] = 0xFF00_0000;
                corrupted = true;
            }
        }
        Ok((stitched, corrupted))
    }

    fn end_setup(&mut self, region: u16) -> Result<(), Error> {
        let table = self.vm.reg(CTP);
        let st = &mut self.regions[region as usize];
        let setup_delta = self.vm.cycles - st.setup_start;
        let key = st.pending_key.take().unwrap_or_default();
        self.tr(EventKind::SetupEnd {
            region,
            cycles: setup_delta,
        });
        // Unkeyed regions probe the code caches here, now that set-up has
        // produced the constants that define the instance's identity
        // (the install step validates a hit by replaying its recorded
        // table reads against this session's memory). Set-up already
        // ran, so a hit skips only the stitch.
        let unkeyed = self.program.borrow().compiled.regions[region as usize]
            .key_locs
            .is_empty();
        if !(unkeyed && self.install_cached(region, &key)?) {
            self.install(region, key, Source::Fresh { table })?;
        }
        self.regions[region as usize].report.setup_cycles += setup_delta;
        Ok(())
    }

    /// Install one instance of `region` for `key` from `source`: the
    /// paper's copy, patch, install, in one place for every source.
    ///
    /// 1. Consult the source's fault point (a fresh stitch consults the
    ///    stitcher's, see [`Session::stitch_once`]; a shared entry only
    ///    after step 2, as one whose reads do not replay is a plain miss).
    /// 2. Unkeyed regions' cached instances: replay and charge the
    ///    publishing stitch's recorded table reads. A match proves a
    ///    local stitch would bake in the same values, so sessions with
    ///    different constants never alias each other's code.
    /// 3. Relocate to the install base (a fresh stitch is already there).
    /// 4. `verify_code`: every source is untrusted until it passes.
    /// 5. Back off injected arena exhaustion (fresh and background code),
    ///    then charge the tariff: cached and background code pay the bulk
    ///    copy per word, a disk hit its probe as well.
    /// 6. `append_code`.
    /// 7. Bump the source's counters and emit its trace events.
    /// 8. Fresh and background code: pre-translate to native (so what is
    ///    published carries its native footprint), store to disk, publish
    ///    to the shared cache. A disk hit reuses its stored native stubs.
    /// 9. [`Session::index_instance`].
    ///
    /// A refused fresh stitch is retried with backoff up to the policy
    /// cap; any other refused source records a typed health entry and
    /// returns `Ok(false)`, so the caller falls through to its next
    /// source (a stitch, or the fallback copy).
    ///
    /// # Errors
    /// A genuine stitcher error, a fresh stitch refused past the retry
    /// cap, or an [`Session::index_instance`] error.
    fn install(&mut self, region: u16, key: Vec<u64>, source: Source) -> Result<bool, Error> {
        let unkeyed = self.program.borrow().compiled.regions[region as usize]
            .key_locs
            .is_empty();
        let fresh = matches!(source, Source::Fresh { .. });
        let publish = fresh || matches!(source, Source::Background { .. });
        let mut attempt = 0u32;
        let (mut stitched, relocated, base) = loop {
            let base = self.vm.code.len() as u32;
            match self.candidate(region, &source, unkeyed, base) {
                Ok((stitched, relocated)) => break (stitched, relocated, base),
                Err(Refusal::Miss) => return Ok(false),
                Err(Refusal::Fatal(e)) => {
                    self.record_failure(region, FailureKind::Stitch, false, e.to_string());
                    return Err(Error::Stitch(e));
                }
                Err(Refusal::Failed(kind, injected, msg)) => {
                    if let Source::Persist { .. } = source {
                        self.persist_reject(region, kind, injected, msg);
                        return Ok(false);
                    }
                    self.record_failure(region, kind, injected, msg.clone());
                    attempt += 1;
                    if !fresh {
                        return Ok(false);
                    } else if attempt > self.recovery.policy().max_retries {
                        return Err(Error::Stitch(StitchError::BadTemplate(msg)));
                    }
                    self.charge_retry(region, attempt);
                }
            }
        };
        if publish {
            // Injected arena exhaustion: back off deterministically (the
            // simulated arena grows) before installing.
            let mut attempt = 0u32;
            while self.fire(FaultPoint::CodeArenaExhausted, region).is_some() {
                self.record_failure(
                    region,
                    FailureKind::Install,
                    true,
                    "injected code-arena exhaustion during install".to_string(),
                );
                attempt += 1;
                if attempt > self.recovery.policy().max_retries {
                    break;
                }
                self.charge_retry(region, attempt);
            }
        }
        let code = relocated.as_deref().unwrap_or(&stitched.code);
        let len = code.len() as u32;
        if !fresh {
            let probe = match source {
                Source::Persist { .. } => self.options.shared_lookup_cycles,
                _ => 0,
            };
            self.vm.cycles += probe + self.options.shared_install_cycles_per_word * u64::from(len);
        }
        self.vm.append_code(code);

        let st = &mut self.regions[region as usize];
        match &source {
            Source::Fresh { table } => {
                st.tables.push(*table);
                let s = stitched.stats;
                st.report.stitches += 1;
                st.report.stitch_stats += s;
                st.report.stitch_cycles += s.cycles;
                st.report.instructions_stitched += s.instructions_stitched;
                self.trace_stitch(region, &stitched);
            }
            &Source::Background {
                setup_cycles,
                stitch_cycles,
                speculative,
                ..
            } => {
                st.report.bg_installs += 1;
                st.report.spec_installs += u64::from(speculative);
                st.report.bg_setup_cycles += setup_cycles;
                st.report.bg_stitch_cycles += stitch_cycles;
                self.tr(EventKind::BgInstall {
                    region,
                    words: len,
                    speculative,
                    setup_cycles,
                    stitch_cycles,
                });
                if speculative {
                    self.tr(EventKind::SpeculateHit { region });
                }
            }
            Source::Shared(_) => {
                st.report.shared_hits += 1;
                self.tr(EventKind::CacheInstall { region, words: len });
            }
            Source::Persist { .. } => {
                st.report.persist_hits += 1;
                self.tr(EventKind::PersistLookup { region, hit: true });
                self.tr(EventKind::PersistInstall { region, words: len });
            }
        }

        // Native stubs are position-dependent: a disk hit's are reusable
        // only at the very base the publisher installed at (deterministic
        // replicas do); otherwise `index_instance` translates locally.
        // Consuming the source here also drops its handle on the
        // instance, so the pre-translation below updates it in place.
        let mut native = match source.into_native() {
            Some((at, artifact)) if at == base => Some(artifact),
            _ => None,
        };
        if publish {
            // Pre-translate, so the instance published to disk and to the
            // shared cache carries its native footprint (byte-budgeted
            // shards then govern both backends).
            if self.native.is_some() {
                let artifact = self.translate_native(region, base, len);
                Arc::make_mut(&mut stitched).native_bytes = if artifact.entry_supported {
                    artifact.bytes.len() as u64
                } else {
                    0
                };
                native = Some(artifact);
            }
            // The next *process* skips the work (host-side, zero
            // simulated cycles); other sessions skip set-up and stitching.
            self.persist_store(region, &key, &stitched, base, native.as_ref());
            if let Some(cache) = &self.options.shared_cache {
                let shared_key = SharedKey {
                    program: self.program.borrow().id(),
                    region,
                    key: key.clone(),
                };
                let evicted = cache.insert(shared_key, stitched);
                if evicted > 0 {
                    self.tr(EventKind::CacheEvict {
                        region,
                        count: evicted as u64,
                    });
                }
            }
        }
        self.index_instance(region, key, base, len, native)?;
        Ok(true)
    }

    /// Steps 1–4 of [`Session::install`], one attempt at `base`: the
    /// verified instance and, unless it was stitched right there, its
    /// code relocated to `base`.
    fn candidate(
        &mut self,
        region: u16,
        source: &Source,
        unkeyed: bool,
        base: u32,
    ) -> Result<(Arc<Stitched>, Option<Vec<u32>>), Refusal> {
        let (kind, noun) = source.refusal();
        let (stitched, corrupted) = match source {
            Source::Fresh { table } => {
                self.tr(EventKind::StitchStart { region });
                let (stitched, corrupted) = self.stitch_once(region, *table, base)?;
                (Arc::new(stitched), corrupted)
            }
            Source::Background { stitched, .. } | Source::Shared(stitched) => {
                (Arc::clone(stitched), false)
            }
            Source::Persist { stitched, .. } => {
                if self.fire(FaultPoint::PersistLoadCorrupt, region).is_some() {
                    let msg = "injected persist load corruption: cached instance discarded";
                    if let Some(cache) = &self.options.persist {
                        cache.note_injected_instance_reject(msg);
                    }
                    return Err(Refusal::Failed(kind, true, msg.to_string()));
                }
                (Arc::clone(stitched), false)
            }
        };
        if unkeyed && matches!(source, Source::Shared(_) | Source::Persist { .. }) {
            self.vm.cycles += self.options.stitch.cost.table_read * stitched.reads.len() as u64;
            if !stitched.reads_match(&self.vm.mem) {
                // A shared entry that does not replay holds another
                // session's constants: an ordinary miss. A disk file that
                // does not replay is stale.
                return Err(match source {
                    Source::Shared(_) => Refusal::Miss,
                    _ => Refusal::Failed(
                        kind,
                        false,
                        format!("{noun} stale: recorded table reads do not replay"),
                    ),
                });
            }
        }
        // A shared entry reaches its fault point only once its reads
        // replay: one that does not is a miss, not an install attempt.
        if let Source::Shared(_) = source {
            if self.fire(FaultPoint::SharedCacheInstall, region).is_some() {
                let msg = "injected shared-cache install failure".to_string();
                return Err(Refusal::Failed(kind, true, msg));
            }
        }
        let relocated = match source {
            Source::Fresh { .. } => None,
            _ => match stitched.relocate(base, &mut self.vm.mem) {
                Ok((code, _lin_addr)) => Some(code),
                Err(e) => {
                    let msg = format!("{noun} failed to relocate: {e}");
                    return Err(Refusal::Failed(kind, false, msg));
                }
            },
        };
        if let Err(e) = verify_code(relocated.as_deref().unwrap_or(&stitched.code), base) {
            self.tr(EventKind::VerifyReject { region });
            return Err(Refusal::Failed(
                FailureKind::Verify,
                corrupted,
                format!("{noun} rejected by pre-install verification: {e}"),
            ));
        }
        Ok((stitched, relocated))
    }

    /// Trace a fresh stitch: its stitcher counters, the plan patches it
    /// applied, and the compile-time inline sites it replays (one event
    /// per site per stitch, mirrored in the report counter so
    /// `trace_self_check` covers the pass).
    fn trace_stitch(&mut self, region: u16, stitched: &Stitched) {
        let s = &stitched.stats;
        self.tr(EventKind::StitchEnd {
            region,
            cycles: s.cycles,
            instructions: s.instructions_stitched,
            holes_inline: s.holes_inline,
            holes_big: s.holes_big,
            const_branches: s.const_branches_resolved,
            loop_iterations: s.loop_iterations,
            plan_hits: s.plan_hits,
            plan_misses: s.plan_misses,
        });
        for p in &stitched.plan_patches {
            self.tr(EventKind::PlanPatch {
                region,
                word: p.at,
                value: p.value,
            });
        }
        let inlined: Vec<(u32, u32)> = self
            .program
            .borrow()
            .inline_sites_for(region)
            .map(|s| (s.callee.index() as u32, s.depth))
            .collect();
        for (callee, depth) in inlined {
            self.regions[region as usize].report.inlined_calls += 1;
            self.tr(EventKind::Inlined {
                region,
                callee,
                depth,
            });
        }
    }

    /// Record a freshly installed instance (step 9 of
    /// [`Session::install`]; `native` carries its native stubs when they
    /// are already translated): instance history, keyed cache + LRU (with
    /// capacity eviction), unkeyed trap retirement, and resume at `base`.
    ///
    /// # Errors
    /// [`Error::Vm`] if the unkeyed trap-retirement branch does not encode
    /// or the trap site is out of code range (a code space grown past the
    /// branch displacement range, not an internal invariant).
    fn index_instance(
        &mut self,
        region: u16,
        key: Vec<u64>,
        base: u32,
        len: u32,
        native: Option<dyncomp_native::Artifact>,
    ) -> Result<(), Error> {
        // Offer the instance to the native backend first: the host bytes
        // it actually installs count against the same byte budget as the
        // stitched code words, so `with_byte_budget` and the degradation
        // ladder govern both backends.
        let native_bytes = self.maybe_install_native(region, base, len, native);
        // Then request direct threading for it: publish its blocks in
        // the dispatch table and back-patch every exit blob that now has
        // a native continuation (its own and other chained instances').
        self.request_chain(region, base);
        // Account the installed bytes against the session's code budget;
        // crossing a ladder step is a trace event (the step itself takes
        // effect at the next stitch / entry). At level 2 the ladder
        // sheds optimized execution for the region, so its native
        // instances are severed — a stale chain must not outlive them.
        let mut degraded = false;
        if let Some(level) = self.recovery.add_bytes(4 * u64::from(len) + native_bytes) {
            self.tr(EventKind::BudgetDegrade { region, level });
            degraded = level >= 2;
        }
        let rc = &self.program.borrow().compiled.regions[region as usize];
        let (keyed, enter_pc) = (!rc.key_locs.is_empty(), rc.enter_pc);
        let st = &mut self.regions[region as usize];
        st.instances.push((key.clone(), base, len));
        let mut evicted = 0u64;
        let mut evicted_bases: Vec<u32> = Vec::new();
        let lru = if keyed {
            if let Some(cap) = self.options.keyed_cache_capacity {
                while st.cache.len() >= cap.max(1) {
                    match st.lru.pop_lru() {
                        Some(victim) => {
                            if let Some(e) = st.cache.remove(&victim) {
                                evicted_bases.push(e.base);
                            }
                            st.report.evictions += 1;
                            evicted += 1;
                        }
                        None => break,
                    }
                }
            }
            st.lru.insert(key.clone())
        } else {
            usize::MAX // unkeyed: the trap is patched away below
        };
        st.cache.insert(key, CacheEntry { base, lru });
        for _ in 0..evicted {
            self.tr(EventKind::KeyedEvict { region });
        }
        // Sever chains into evicted instances *before* anything can
        // dispatch again: their keys are gone from the cache, so the
        // next entry with them re-stitches at a fresh base.
        for b in evicted_bases {
            self.sever_native(region, b);
        }
        if degraded {
            self.sever_region_native(region);
        }

        // Unkeyed regions: retire the trap — patch EnterRegion into a
        // direct branch to the stitched code (§1: the templates "become
        // part of the application").
        if !keyed {
            let disp = base as i64 - (enter_pc as i64 + 1);
            let (w, _) = encode(&Inst::branch(
                Op::Br,
                dyncomp_machine::isa::ZERO,
                disp as i32,
            ))
            .map_err(|e| {
                Error::Stitch(StitchError::BadTemplate(format!(
                    "trap-retirement branch to stitched code does not encode \
                     (region {region}, base {base}, enter_pc {enter_pc}): {e}"
                )))
            })?;
            self.vm.patch_code(enter_pc, w)?;
            // The static snapshot still holds the stale `EnterRegion` at
            // this pc; patch its guard sled into an unconditional entry
            // so chained control need not bounce through the VM to take
            // the retired branch.
            self.maybe_patch_guard(region, &[], base);
        }

        self.vm.pc = base;
        Ok(())
    }

    /// Measurement report for region `index`.
    pub fn region_report(&self, index: usize) -> RegionReport {
        self.regions[index].report
    }

    /// Total VM cycles so far.
    pub fn cycles(&self) -> u64 {
        self.vm.cycles
    }

    /// The trace state, when [`EngineOptions::trace`] was configured.
    pub fn trace(&self) -> Option<&TraceState> {
        self.trace.as_deref()
    }

    /// Whether `region`'s background stitch path panicked and the region
    /// is permanently pinned to its static fallback copy. Always `false`
    /// without tiered execution.
    pub fn region_pinned(&self, region: u16) -> bool {
        self.tiered.as_ref().is_some_and(|t| t.is_pinned(region))
    }

    /// A snapshot of the session's robustness state: the bounded failure
    /// log, quarantined regions, injected-fault and retry counts, and the
    /// degradation-ladder level. Cheap; safe to poll.
    pub fn health(&self) -> HealthReport {
        self.recovery.report()
    }

    /// Host-native backend counters. All-zero (with `enabled: false`)
    /// when [`EngineOptions::native`] was not set.
    pub fn native_report(&self) -> NativeReport {
        match self.native.as_deref() {
            None => NativeReport::default(),
            Some(ns) => NativeReport {
                enabled: true,
                active: !ns.disabled && dyncomp_native::available(),
                installs: ns.installs,
                declined: ns.declined,
                entries: ns.entries,
                chained: ns.backend.chained(),
                bytes: ns.backend.bytes(),
                translate_ns: ns.translate_ns,
                translated_instructions: ns.translated_instructions,
                covered_instructions: ns.covered_instructions,
            },
        }
    }

    /// Message from the most recent background stitch failure (error or
    /// panic), for diagnostics. `None` when no background job has failed
    /// (or its record aged out of the bounded log — see
    /// [`Session::health`] for the full picture).
    pub fn last_background_failure(&self) -> Option<&str> {
        self.recovery
            .failures()
            .rev()
            .find(|r| matches!(r.kind, FailureKind::Background { .. }))
            .map(|r| r.message.as_str())
    }

    /// Per-region trace aggregates ([`RegionProfile`]), when tracing.
    pub fn region_profiles(&self) -> Option<&[RegionProfile]> {
        self.trace.as_ref().map(|t| t.profiles())
    }

    /// Seal the trace (synthesizing `SpeculateWaste` events once) and
    /// render it as JSON Lines. `None` when tracing is off.
    pub fn trace_jsonl(&mut self) -> Option<String> {
        let now = self.vm.cycles;
        self.trace.as_mut().map(|t| {
            t.seal(now);
            t.render_jsonl()
        })
    }

    /// Seal the trace and render it in Chrome `trace_event` JSON.
    /// `None` when tracing is off.
    pub fn trace_chrome(&mut self) -> Option<String> {
        let now = self.vm.cycles;
        self.trace.as_mut().map(|t| {
            t.seal(now);
            t.render_chrome()
        })
    }

    /// Assert that cycle attribution summed over trace events equals the
    /// per-region [`RegionReport`] counters exactly. `Ok(())` when tracing
    /// is off (nothing to check).
    ///
    /// # Errors
    /// [`Error::Trace`] naming the first mismatching counter.
    pub fn trace_self_check(&self) -> Result<(), Error> {
        let Some(t) = self.trace.as_ref() else {
            return Ok(());
        };
        let reports: Vec<RegionReport> = self.regions.iter().map(|st| st.report).collect();
        t.self_check(&reports).map_err(Error::Trace)
    }

    /// Re-run the stitcher over every `(region, constants table)` pair
    /// stitched so far, under `opts`, without installing the result —
    /// the set-up code's tables are still live in data memory, so this
    /// re-measures pure stitching work (for throughput benches and
    /// ablations). Returns the accumulated stats of the extra runs; the
    /// session's own per-region reports are unaffected.
    ///
    /// # Errors
    /// Stitching failures (same as the original stitches).
    pub fn restitch_all(&mut self, opts: &StitchOptions) -> Result<StitchStats, Error> {
        let mut total = StitchStats::default();
        let base = self.vm.code.len() as u32;
        let program = self.program.borrow();
        for (idx, rc) in program.compiled.regions.iter().enumerate() {
            for &table in &self.regions[idx].tables {
                let s = dyncomp_stitcher::stitch(rc, table, &mut self.vm.mem, base, opts)?;
                total += s.stats;
            }
        }
        Ok(total)
    }

    /// Every stitched instance region `index` has produced so far, as
    /// `(key, code)` pairs in stitch order. Unkeyed regions use the empty
    /// key. Instances survive cache eviction (code space is append-only),
    /// so this is the full history, not the current cache contents.
    pub fn stitched_instances(&self, index: usize) -> Vec<(&[u64], &[u32])> {
        self.regions[index]
            .instances
            .iter()
            .map(|(key, base, len)| {
                (
                    key.as_slice(),
                    &self.vm.code[*base as usize..(*base + *len) as usize],
                )
            })
            .collect()
    }
}

/// Where [`Session::install`] gets the instance it installs.
enum Source {
    /// Stitch the constants table set-up just filled, right at the
    /// install base.
    Fresh { table: u64 },
    /// A stitch a background worker finished (tiered mode).
    Background {
        stitched: Arc<Stitched>,
        setup_cycles: u64,
        stitch_cycles: u64,
        speculative: bool,
    },
    /// Another session's instance, from the shared cache.
    Shared(Arc<Stitched>),
    /// An earlier process's instance, from the on-disk cache, with the
    /// native stubs stored with it and the base they were translated at.
    Persist {
        stitched: Arc<Stitched>,
        native: Option<(u32, dyncomp_native::Artifact)>,
    },
}

impl Source {
    /// The health-entry kind of a refused instance from this source
    /// (verifier rejects aside), and what its messages call it.
    fn refusal(&self) -> (FailureKind, &'static str) {
        match self {
            Source::Fresh { .. } => (FailureKind::Stitch, "stitched instance"),
            Source::Background { .. } => (FailureKind::Install, "background instance"),
            Source::Shared(_) => (FailureKind::SharedCache, "shared-cache instance"),
            Source::Persist { .. } => (FailureKind::Persist, "persistent instance"),
        }
    }

    /// The native stubs a disk hit carried, consuming the source.
    fn into_native(self) -> Option<(u32, dyncomp_native::Artifact)> {
        match self {
            Source::Persist { native, .. } => native,
            _ => None,
        }
    }
}

/// Why one install attempt produced no verified instance.
enum Refusal {
    /// A shared-cache entry whose table reads do not replay here: another
    /// session's constants, an ordinary miss (nothing recorded).
    Miss,
    /// `(kind, injected, message)`, recorded as a health entry: a fresh
    /// stitch retries with backoff up to the cap, other sources degrade.
    Failed(FailureKind, bool, String),
    /// A real [`StitchError`]: deterministic, so retrying cannot help;
    /// propagated as-is.
    Fatal(StitchError),
}

/// Mirror a region-key [`ValueLoc`] into the native translator's
/// [`dyncomp_native::KeySlot`] (same kinds, crate-local type).
fn keyslot(l: &ValueLoc) -> dyncomp_native::KeySlot {
    match *l {
        ValueLoc::Reg(r) => dyncomp_native::KeySlot::Reg(r),
        ValueLoc::FReg(r) => dyncomp_native::KeySlot::FReg(r),
        ValueLoc::Frame(off) => dyncomp_native::KeySlot::Frame(off),
    }
}

/// Word positions in `code` that begin an instruction (never an `Ldiw`
/// payload word — corrupting a payload is invisible to any decoder).
fn instruction_starts(code: &[u32]) -> Vec<usize> {
    let mut starts = Vec::new();
    let mut i = 0usize;
    while i < code.len() {
        starts.push(i);
        let wide = decode(code[i], code.get(i + 1).copied())
            .map(|inst| inst.is_wide())
            .unwrap_or(false);
        i += if wide { 2 } else { 1 };
    }
    starts
}
