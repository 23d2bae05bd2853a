//! The simulated multiprocessor: cores plus coherence fabric.
//!
//! # The event-driven simulation kernel
//!
//! The machine is stepped cycle by cycle, but it does not *poll* cycle by
//! cycle. Each stepped cycle, a stepped core reports a
//! [`ifence_types::CoreActivity`]: whether it changed state and, if not, the
//! earliest cycle it could act again (a pending completion, a deferred-snoop
//! deadline, an engine timer — or nothing, meaning it is blocked on the
//! fabric). Quiescence is exploited at two levels:
//!
//! 1. **Per-core sleep** — a core that reports quiescence is not stepped
//!    again until its wake hint comes due or a coherence delivery addressed
//!    to it arrives; cores interact only through deliveries, so its skipped
//!    steps are provably no-ops. On wake, the skipped cycles are
//!    bulk-attributed to the stall class the core reported when it went to
//!    sleep, so the runtime breakdowns stay exact.
//! 2. **Whole-machine jump** — when a cycle ends with no deliveries, no new
//!    requests and every core asleep, `now` advances in one jump to the
//!    minimum of the fabric's next scheduled event and the cores' wake
//!    hints.
//!
//! Both levels skip only provably quiescent cycles, so the event-driven
//! schedule produces results byte-identical to dense polling — which
//! survives as a debug mode ([`MachineConfig::dense_kernel`] or
//! `IFENCE_DENSE=1`) and is held equivalent by `tests/kernel_equivalence.rs`.
//! The cycles that *are* stepped stay cheap on their own: every kernel runs
//! the single guarded core pipeline, [`ifence_cpu::Core::step`], whose dead
//! stages cost a length check each.
//!
//! Quiescence detection gives deadlock detection for free: if no core has a
//! wake hint and the fabric has nothing scheduled, the simulation can never
//! progress again, and the machine stops immediately with
//! [`MachineResult::deadlocked`] set and a per-core diagnostic instead of
//! spinning to the cycle limit.
//!
//! One machine always runs on one host thread: sweeps get their host
//! parallelism across machines, through `IFENCE_JOBS`.

use ifence_coherence::{
    CoherenceFabric, CoherenceRequest, Delivery, EventQueue, FabricConfig, SnoopReply,
};
use ifence_cpu::{Core, CoreSleep};
use ifence_stats::{
    CoreStats, FabricStats, MachineTrace, Phase, PhaseProfile, PhaseTimer, RunHistograms,
    RunSummary,
};
use ifence_types::{
    earliest_wake, parse_flag, BoxedSource, CoreId, Cycle, MachineConfig, Program, ProgramSource,
};
use invisifence::build_engine;
use std::fmt;

/// Error returned when a machine cannot be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MachineBuildError {
    message: String,
}

impl fmt::Display for MachineBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cannot build machine: {}", self.message)
    }
}

impl std::error::Error for MachineBuildError {}

/// The outcome of running a [`Machine`].
#[derive(Debug, Clone, PartialEq)]
pub struct MachineResult {
    /// Total simulated cycles (wall clock: until the slowest core finished).
    pub cycles: Cycle,
    /// True if every core retired its whole program before the cycle limit.
    pub finished: bool,
    /// True if the run stopped because no core could ever act again and the
    /// fabric had nothing scheduled — a genuine deadlock, detected by the
    /// quiescence analysis instead of spinning to the cycle limit.
    pub deadlocked: bool,
    /// A per-core pipeline snapshot taken at the moment a deadlock was
    /// detected (`None` unless `deadlocked`).
    pub deadlock_diagnostic: Option<String>,
    /// Per-core statistics.
    pub per_core: Vec<CoreStats>,
    /// Memory-hierarchy counters gathered by the coherence fabric (L2
    /// hits/misses/evictions/recalls, DRAM traffic).
    pub fabric: FabricStats,
    /// Machine-wide telemetry histograms: the per-core three merged with the
    /// fabric's L2-miss-latency and queue-depth histograms.
    pub histograms: RunHistograms,
    /// Values observed by each core's retired loads (for litmus checking).
    pub load_results: Vec<Vec<(usize, u64)>>,
    /// The configuration label (engine name) the machine ran under.
    pub config_label: String,
}

impl MachineResult {
    /// Summarises the run for figure production.
    pub fn summary(&self, workload: impl Into<String>) -> RunSummary {
        let mut summary = RunSummary::from_parts(
            self.config_label.clone(),
            workload,
            self.cycles,
            &self.per_core,
            self.fabric,
        );
        // `from_parts` only sees the per-core histograms; this result also
        // carries the fabric's two.
        summary.histograms = self.histograms.clone();
        summary
    }
}

/// A complete simulated multiprocessor: one core per node plus the directory
/// coherence fabric, driven by the event-driven kernel (see the module
/// documentation).
pub struct Machine {
    cfg: MachineConfig,
    cores: Vec<Core>,
    fabric: CoherenceFabric,
    now: Cycle,
    /// Dense (poll-every-cycle) debug mode, resolved once at construction
    /// from the configuration flag and the `IFENCE_DENSE` environment
    /// variable.
    dense: bool,
    /// Per-core sleep state: `Some` while the core is quiescent and need not
    /// be stepped (see the module documentation).
    sleeping: Vec<Option<CoreSleep>>,
    /// Indexed wake dispatch: the ascending-sorted indices of the cores that
    /// are awake (`sleeping[i].is_none()`). The stepping loop walks exactly
    /// these instead of scanning every core each stepped cycle.
    awake: Vec<usize>,
    /// Indexed wake dispatch, timer side: each sleep transition with a wake
    /// hint schedules `(wake_at, core)` here, so due cores are found by
    /// popping the wheel instead of scanning the sleep array. Entries can go
    /// stale (the core was woken early by a delivery); stale pops are
    /// skipped — the core's live hint always has its own entry.
    wake_wheel: EventQueue<usize>,
    /// Whether the kernel phase profiler is accumulating, resolved once at
    /// construction so the hot loop pays a plain bool test instead of an
    /// atomic load per phase per cycle. Profiling observes host wall clock
    /// only — it cannot change any simulated result.
    profiling: bool,
    /// Reusable buffers for the per-cycle delivery/reply/request routing, so
    /// the hot loop allocates nothing in steady state.
    delivery_buf: Vec<Delivery>,
    reply_buf: Vec<SnoopReply>,
    request_buf: Vec<CoherenceRequest>,
}

/// Aggregate outcome of stepping one machine cycle.
#[derive(Debug, Clone, Copy)]
struct CycleOutcome {
    /// True if any delivery, request, reply or core state change happened.
    progressed: bool,
    /// Earliest wake hint among the quiescent cores (`None` = none of them
    /// can wake on their own).
    core_wake: Option<Cycle>,
}

impl Machine {
    /// Builds a machine from a configuration and one pre-materialized
    /// program per core (convenience wrapper over [`Machine::from_sources`]
    /// for litmus and unit tests, which keep their exact traces).
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid or the number of
    /// programs does not match the number of cores.
    pub fn new(cfg: MachineConfig, programs: Vec<Program>) -> Result<Self, MachineBuildError> {
        let sources = programs
            .into_iter()
            .map(|program| Box::new(ProgramSource::new(program)) as BoxedSource)
            .collect();
        Self::from_sources(cfg, sources)
    }

    /// Builds a machine from a configuration and one instruction source per
    /// core — the streaming construction path: a lazily generating source
    /// holds only its replay window, so trace length is bounded by simulated
    /// time, not memory.
    ///
    /// # Errors
    /// Returns an error if the configuration is invalid or the number of
    /// sources does not match the number of cores.
    pub fn from_sources(
        cfg: MachineConfig,
        sources: Vec<BoxedSource>,
    ) -> Result<Self, MachineBuildError> {
        cfg.validate().map_err(|e| MachineBuildError { message: e.to_string() })?;
        if sources.len() != cfg.cores {
            return Err(MachineBuildError {
                message: format!("{} sources provided for {} cores", sources.len(), cfg.cores),
            });
        }
        let mut fabric = CoherenceFabric::new(FabricConfig::from_machine(&cfg));
        let mut cores: Vec<Core> = sources
            .into_iter()
            .enumerate()
            .map(|(i, source)| {
                Core::from_source(CoreId(i), source, &cfg, build_engine(cfg.engine, &cfg))
            })
            .collect();
        let dense = cfg.dense_kernel || env_flag("IFENCE_DENSE");
        if cfg.trace || env_flag("IFENCE_TRACE") {
            for core in &mut cores {
                core.enable_trace(0);
            }
            fabric.enable_trace(0);
        }
        let sleeping = vec![None; cores.len()];
        let awake = (0..cores.len()).collect();
        Ok(Machine {
            cfg,
            cores,
            fabric,
            now: 0,
            dense,
            sleeping,
            awake,
            wake_wheel: EventQueue::new(),
            profiling: PhaseProfile::global().enabled(),
            delivery_buf: Vec::new(),
            reply_buf: Vec::new(),
            request_buf: Vec::new(),
        })
    }

    /// True if this machine polls every cycle instead of skipping quiescent
    /// stretches (the debug reference mode).
    pub fn dense_kernel(&self) -> bool {
        self.dense
    }

    /// Only `perfbench/` reads this; always `true`.
    #[doc(hidden)]
    pub fn batch_kernel(&self) -> bool {
        true
    }

    /// Only `perfbench/` reads this; always `false`.
    #[doc(hidden)]
    pub fn leap_kernel(&self) -> bool {
        false
    }

    /// Only `perfbench/` reads this; always `1`.
    #[doc(hidden)]
    pub fn machine_threads(&self) -> usize {
        1
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Access to a core (diagnostics/tests).
    pub fn core(&self, index: usize) -> &Core {
        &self.cores[index]
    }

    /// High-water mark, over all cores, of the trace sources' resident
    /// windows. On the streaming path this stays O(replay window) however
    /// long the trace is; on the materialized path it equals the trace
    /// length. Query it after [`Machine::run`] to demonstrate the memory
    /// bound (the long-trace CI smoke does).
    pub fn max_trace_resident(&self) -> usize {
        self.cores.iter().map(Core::max_trace_resident).max().unwrap_or(0)
    }

    /// Initialises a memory word in the backing store (litmus tests).
    pub fn write_memory_word(&mut self, addr: ifence_types::Addr, value: u64) {
        self.fabric.write_memory_word(addr, value);
    }

    /// Advances the machine by one cycle (the manual-driving API used by
    /// diagnostics and tests). Unlike the internal fast path under
    /// [`Machine::run`], this flushes every core's sleep attribution after
    /// the cycle so `core(i).stats()` stays cycle-exact between calls — at
    /// the cost of behaving like the dense kernel when driven this way.
    pub fn step(&mut self) {
        self.step_cycle();
        self.wake_all();
    }

    /// Starts a phase timer when the kernel phase profiler is on (the guard
    /// holds no borrow of the machine, so it can bracket `&mut self` work).
    fn timer(&self, phase: Phase) -> Option<PhaseTimer> {
        if self.profiling {
            PhaseProfile::global().start(phase)
        } else {
            None
        }
    }

    /// Wakes a sleeping core: its skipped cycles are attributed in bulk to
    /// the stall class it reported when it went quiescent — exactly what the
    /// dense loop would have recorded, one cycle at a time.
    fn wake_core(&mut self, idx: usize, now: Cycle) {
        if let Some(sleep) = self.sleeping[idx].take() {
            if let (Some(class), true) = (sleep.class, now > sleep.since) {
                self.cores[idx].absorb_quiescent_cycles(class, now - sleep.since);
            }
            // Keep the awake index sorted so the stepping loop visits cores
            // in ascending order — the same order as a full scan.
            if let Err(at) = self.awake.binary_search(&idx) {
                self.awake.insert(at, idx);
            }
        }
    }

    /// Wakes every sleeping core (end of the run: the loop finished, hit the
    /// cycle limit, or detected a deadlock) so their attribution is complete
    /// up to — but not including — the current cycle.
    fn wake_all(&mut self) {
        for idx in 0..self.cores.len() {
            self.wake_core(idx, self.now);
        }
    }

    /// Steps one cycle: deliver due coherence messages, step every core that
    /// is not provably asleep, route replies and requests, and aggregate the
    /// activity reports.
    fn step_cycle(&mut self) -> CycleOutcome {
        let now = self.now;
        let mut progressed = false;
        // Deliver coherence messages due this cycle and collect the cores'
        // snoop replies. A delivery mutates core state, so it first wakes a
        // sleeping target, and the cycle counts as progressed even if the
        // receiving core then reports quiescence. The delivery buffer is
        // persistent (cleared and refilled by `step_into`), so the routing
        // loop allocates nothing in steady state.
        let mut delivery_buf = std::mem::take(&mut self.delivery_buf);
        let timer = self.timer(Phase::FabricStep);
        self.fabric.step_into(now, &mut delivery_buf);
        drop(timer);
        progressed |= !delivery_buf.is_empty();
        let timer = self.timer(Phase::DeliveryRouting);
        for &delivery in &delivery_buf {
            let idx = delivery.core().index();
            self.wake_core(idx, now);
            if let Some(reply) = self.cores[idx].handle_delivery(delivery, now) {
                self.fabric.respond(reply, now);
            }
            // A delivery can queue outgoing traffic directly (an eviction's
            // writeback, a squash's flash-invalidation writebacks). Route it
            // now: the fabric sees it this same cycle either way.
            self.cores[idx].drain_requests_into(&mut self.request_buf);
            for request in self.request_buf.drain(..) {
                self.fabric.request(request, now);
            }
        }
        self.delivery_buf = delivery_buf;
        drop(timer);
        let timer = self.timer(Phase::CoreStep);
        // Wake the cores whose sleep hints are due. The wheel holds one
        // entry per sleep transition with a hint, so due cores are found by
        // popping rather than scanning every sleeper. An entry is stale when
        // its core was woken early (by a delivery) since it was scheduled —
        // the core is either awake again (`sleeping[idx]` is `None`) or
        // re-slept with a newer hint that has its own entry — so a stale pop
        // is skipped; no wake is ever missed.
        while let Some((_, idx)) = self.wake_wheel.pop_due(now) {
            if let Some(sleep) = self.sleeping[idx] {
                if matches!(sleep.wake_at, Some(wake) if wake <= now) {
                    self.wake_core(idx, now);
                }
            }
        }
        // Step every awake core, then route its asynchronous replies and new
        // requests into the fabric. Sleeping cores are provably no-ops this
        // cycle and are not in the awake index at all: a delivery wakes
        // exactly its target and a due hint wakes exactly its sleeper, so
        // the loop below walks only the cores that must be stepped — in
        // ascending index order, the identical fabric call order to a full
        // scan.
        let mut dense_wake = None;
        let mut awake = std::mem::take(&mut self.awake);
        let mut kept = 0;
        for r in 0..awake.len() {
            let i = awake[r];
            let core = &mut self.cores[i];
            let activity = core.step(now);
            core.drain_replies_into(&mut self.reply_buf);
            core.drain_requests_into(&mut self.request_buf);
            if !self.reply_buf.is_empty() || !self.request_buf.is_empty() {
                progressed = true;
            }
            for reply in self.reply_buf.drain(..) {
                self.fabric.respond(reply, now);
            }
            for request in self.request_buf.drain(..) {
                self.fabric.request(request, now);
            }
            let mut keep = true;
            if activity.progressed {
                progressed = true;
            } else if self.dense {
                // Dense mode never sleeps, so the quiescent cores' hints are
                // aggregated here (a sleep-array scan would see nothing).
                dense_wake = earliest_wake(dense_wake, activity.wake_at);
            } else {
                self.sleeping[i] = Some(CoreSleep {
                    since: now + 1,
                    class: activity.class,
                    wake_at: activity.wake_at,
                });
                if let Some(wake) = activity.wake_at {
                    self.wake_wheel.schedule(wake, i);
                }
                keep = false;
            }
            if keep {
                awake[kept] = i;
                kept += 1;
            }
        }
        awake.truncate(kept);
        self.awake = awake;
        drop(timer);
        self.now += 1;
        // The wake hint is only read on no-progress cycles, where (in the
        // skipping kernels) every core is provably asleep — so folding over
        // the sleep array reproduces exactly the minimum the full scan used
        // to aggregate, without paying for it on progressed cycles.
        let core_wake = if progressed {
            None
        } else if self.dense {
            dense_wake
        } else {
            self.sleeping.iter().flatten().fold(None, |acc, s| earliest_wake(acc, s.wake_at))
        };
        CycleOutcome { progressed, core_wake }
    }

    /// Returns true once every core has finished its program (and drained).
    pub fn all_finished(&self) -> bool {
        self.cores.iter().all(|c| c.finished())
    }

    /// The shared simulation loop: dense stepping after any progressed cycle,
    /// a single time jump over provably quiescent stretches otherwise (unless
    /// the dense debug mode is forced). Returns the deadlock verdict.
    fn run_loop(&mut self, max_cycles: Cycle) -> (bool, Option<String>) {
        while self.now < max_cycles && !self.all_finished() {
            let outcome = self.step_cycle();
            if outcome.progressed {
                continue;
            }
            // Every core is quiescent and nothing was delivered: the next
            // cycle on which anything can happen is the minimum of the
            // fabric's scheduled events and the cores' wake hints.
            let Some(wake) = earliest_wake(outcome.core_wake, self.fabric.next_due()) else {
                // No core can wake on its own and the fabric has nothing
                // scheduled: progress is impossible, now and forever.
                return (true, Some(self.deadlock_snapshot()));
            };
            if self.dense {
                continue;
            }
            // Every core is now asleep; jump straight to the next cycle on
            // which anything can happen. The skipped cycles are attributed
            // when each core wakes (or by `wake_all` at the end of the run).
            let target = wake.min(max_cycles);
            if target > self.now {
                self.now = target;
            }
        }
        (false, None)
    }

    /// A one-line-per-core snapshot of why nothing can make progress.
    fn deadlock_snapshot(&self) -> String {
        let mut out = format!(
            "deadlock at cycle {}: no core can wake and the fabric has no pending events \
             ({} transactions outstanding)",
            self.now,
            self.fabric.outstanding()
        );
        for core in &self.cores {
            out.push_str("\n  ");
            out.push_str(&core.debug_snapshot(self.now));
        }
        out
    }

    /// The shared tail of both finalisation paths: drive the loop, flush
    /// sleep attribution, fold any still-open speculation into the
    /// statistics, and report `(finished, deadlocked, diagnostic)`. Only the
    /// clone-vs-move extraction of the per-core data differs between
    /// [`Machine::run`] and [`Machine::into_result`].
    fn finalise(&mut self, max_cycles: Cycle) -> (bool, bool, Option<String>) {
        let (deadlocked, deadlock_diagnostic) = self.run_loop(max_cycles);
        self.wake_all();
        let finished = self.all_finished();
        let final_now = self.now;
        if deadlocked {
            // The structured twin of the free-text diagnostic: one Deadlock
            // event per core, carrying that core's pipeline snapshot.
            for core in &mut self.cores {
                core.trace_deadlock(final_now);
            }
        }
        for core in &mut self.cores {
            // Stamp the sink before folding open speculation in, so the
            // finalize-time emissions carry the final cycle in every kernel
            // mode (the dense loop keeps stepping finished cores — and
            // therefore re-stamping their sinks — the event-driven one
            // does not).
            core.stamp_trace(final_now);
            core.finalize();
        }
        (finished, deadlocked, deadlock_diagnostic)
    }

    /// The machine-wide telemetry histograms, assembled from every core's
    /// and the fabric's (only meaningful once the run has finalised).
    fn collect_histograms(&self) -> RunHistograms {
        let cores: Vec<_> = self.cores.iter().map(|c| c.stats().hists.clone()).collect();
        let (l2_miss_latency, queue_depth) = self.fabric.telemetry_hists();
        RunHistograms::from_parts(&cores, l2_miss_latency.clone(), queue_depth.clone())
    }

    /// Drains every trace shard (cores in core order, then the fabric) and
    /// merges them into the canonical cycle-major, core-minor order. Empty
    /// unless tracing was enabled.
    pub fn take_trace(&mut self) -> MachineTrace {
        let mut shards: Vec<_> = self.cores.iter_mut().map(Core::take_trace).collect();
        shards.push(self.fabric.take_trace());
        MachineTrace::from_shards(shards)
    }

    /// Runs until every core finishes, a deadlock is detected, or
    /// `max_cycles` elapse, then finalises statistics and returns the result
    /// (cloning the per-core data; prefer [`Machine::into_result`] when the
    /// machine is not needed afterwards).
    pub fn run(&mut self, max_cycles: Cycle) -> MachineResult {
        let (finished, deadlocked, deadlock_diagnostic) = self.finalise(max_cycles);
        MachineResult {
            cycles: self.now,
            finished,
            deadlocked,
            deadlock_diagnostic,
            histograms: self.collect_histograms(),
            per_core: self.cores.iter().map(|c| c.stats().clone()).collect(),
            fabric: *self.fabric.stats(),
            load_results: self.cores.iter().map(|c| c.load_results().to_vec()).collect(),
            config_label: self.cfg.engine.label(),
        }
    }

    /// Runs like [`Machine::run`] but consumes the machine, *moving* every
    /// core's statistics and load results into the result instead of cloning
    /// them — the finalisation path the experiment runners use.
    pub fn into_result(self, max_cycles: Cycle) -> MachineResult {
        self.into_result_with_trace(max_cycles).0
    }

    /// Runs like [`Machine::into_result`] and also returns the merged
    /// machine trace (empty unless the machine was built with tracing on).
    pub fn into_result_with_trace(mut self, max_cycles: Cycle) -> (MachineResult, MachineTrace) {
        let (finished, deadlocked, deadlock_diagnostic) = self.finalise(max_cycles);
        let trace = self.take_trace();
        let histograms = self.collect_histograms();
        let config_label = self.cfg.engine.label();
        let fabric = *self.fabric.stats();
        let (per_core, load_results) = self.cores.into_iter().map(Core::into_parts).unzip();
        let result = MachineResult {
            cycles: self.now,
            finished,
            deadlocked,
            deadlock_diagnostic,
            histograms,
            per_core,
            fabric,
            load_results,
            config_label,
        };
        (result, trace)
    }
}

/// True when the environment variable `name` holds a [`parse_flag`] spelling
/// of on. Unrecognised values count as off; the warning is printed once, by
/// `ExperimentParams::from_env`, not here — a sweep constructs many machines.
fn env_flag(name: &str) -> bool {
    std::env::var(name).ok().and_then(|raw| parse_flag(&raw)).unwrap_or(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_types::{ConsistencyModel, CycleClass, EngineKind};
    use ifence_workloads::WorkloadSpec;

    fn small_run(engine: EngineKind, instructions: usize) -> MachineResult {
        let cfg = MachineConfig::small_test(engine);
        let programs = WorkloadSpec::uniform("machine-test").generate(cfg.cores, instructions, 3);
        let mut machine = Machine::new(cfg, programs).unwrap();
        machine.run(5_000_000)
    }

    #[test]
    fn rejects_mismatched_program_count() {
        let cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Sc));
        let err = Machine::new(cfg, vec![Program::default()]).err().expect("must be rejected");
        assert!(err.to_string().contains("sources"));
    }

    #[test]
    fn rejects_invalid_config() {
        let mut cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Sc));
        cfg.cores = 3; // does not match the 2x2 torus
        let programs = vec![Program::default(); 3];
        assert!(Machine::new(cfg, programs).is_err());
    }

    #[test]
    fn conventional_machines_run_to_completion() {
        for model in ConsistencyModel::ALL {
            let result = small_run(EngineKind::Conventional(model), 800);
            assert!(result.finished, "{model} did not finish");
            assert_eq!(result.per_core.len(), 4);
            for core in &result.per_core {
                assert!(core.counters.instructions_retired >= 800);
                assert!(core.breakdown.total() > 0);
            }
        }
    }

    #[test]
    fn speculative_machines_run_to_completion() {
        for engine in [
            EngineKind::InvisiSelective(ConsistencyModel::Sc),
            EngineKind::InvisiSelective(ConsistencyModel::Rmo),
            EngineKind::InvisiContinuous { commit_on_violate: false },
            EngineKind::InvisiContinuous { commit_on_violate: true },
            EngineKind::Aso(ConsistencyModel::Sc),
        ] {
            let result = small_run(engine, 600);
            assert!(result.finished, "{} did not finish", engine.label());
            assert_eq!(result.config_label, engine.label());
        }
    }

    #[test]
    fn invisifence_reduces_ordering_stalls_versus_conventional_sc() {
        let conventional = small_run(EngineKind::Conventional(ConsistencyModel::Sc), 1_500);
        let invisi = small_run(EngineKind::InvisiSelective(ConsistencyModel::Sc), 1_500);
        assert!(conventional.finished && invisi.finished);
        let summary_conv = conventional.summary("uniform");
        let summary_inv = invisi.summary("uniform");
        let conv_penalty = summary_conv.breakdown.get(CycleClass::SbDrain)
            + summary_conv.breakdown.get(CycleClass::SbFull);
        let inv_penalty = summary_inv.breakdown.get(CycleClass::SbDrain)
            + summary_inv.breakdown.get(CycleClass::SbFull);
        assert!(
            inv_penalty * 2 < conv_penalty.max(1),
            "InvisiFence should remove most ordering stalls (conventional {conv_penalty}, InvisiFence {inv_penalty})"
        );
        // On this deliberately tiny (4-core, 8 KB L1) machine the violation
        // rate is far higher than at paper scale, so only require that
        // InvisiFence stays in the same performance neighbourhood here; the
        // paper-scale comparison is produced by the benchmark harness.
        assert!(
            (summary_inv.cycles as f64) <= 1.35 * summary_conv.cycles as f64,
            "InvisiFence-SC should not be drastically slower than conventional SC ({} vs {})",
            summary_inv.cycles,
            summary_conv.cycles
        );
    }

    #[test]
    fn dense_and_skipping_kernels_agree_on_a_small_run() {
        let engine = EngineKind::Conventional(ConsistencyModel::Sc);
        let spec = WorkloadSpec::uniform("kernel-mode");
        let mut dense_cfg = MachineConfig::small_test(engine);
        dense_cfg.dense_kernel = true;
        let skip_cfg = MachineConfig::small_test(engine);
        let programs = spec.generate(dense_cfg.cores, 500, 11);
        let mut dense = Machine::new(dense_cfg, programs.clone()).unwrap();
        assert!(dense.dense_kernel());
        let skip = Machine::new(skip_cfg, programs).unwrap();
        let dense_result = dense.run(5_000_000);
        let skip_result = skip.into_result(5_000_000);
        assert!(dense_result.finished);
        assert_eq!(dense_result, skip_result, "the two kernels must be byte-identical");
    }

    #[test]
    fn consuming_and_borrowing_finalisation_agree() {
        let engine = EngineKind::Conventional(ConsistencyModel::Tso);
        let cfg = MachineConfig::small_test(engine);
        let programs = WorkloadSpec::uniform("finalise").generate(cfg.cores, 300, 5);
        let mut borrowed = Machine::new(cfg.clone(), programs.clone()).unwrap();
        let via_run = borrowed.run(5_000_000);
        let via_into = Machine::new(cfg, programs).unwrap().into_result(5_000_000);
        assert_eq!(via_run, via_into);
    }

    #[test]
    fn manual_stepping_keeps_breakdowns_cycle_exact() {
        // The public step() API flushes sleep attribution every cycle, so a
        // diagnostic driver reading core stats mid-run sees exact totals.
        let cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Sc));
        let programs = WorkloadSpec::uniform("manual").generate(cfg.cores, 500, 3);
        let mut machine = Machine::new(cfg, programs).unwrap();
        for _ in 0..50 {
            machine.step();
        }
        for i in 0..4 {
            assert!(!machine.core(i).finished(), "500-instruction programs outlast 50 cycles");
            assert_eq!(
                machine.core(i).stats().breakdown.total(),
                50,
                "core {i}: every elapsed cycle is attributed"
            );
        }
    }

    #[test]
    fn starved_mshr_machine_is_reported_as_deadlocked() {
        // With zero MSHRs a load miss can never issue its coherence request,
        // so nothing will ever happen: the quiescence analysis must detect
        // this immediately instead of spinning to the cycle limit.
        let mut cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Sc));
        cfg.l1.mshrs = 0;
        let mut programs = vec![Program::new(); cfg.cores];
        programs[0].push(ifence_types::Instruction::load(ifence_types::Addr::new(0x4000)));
        let mut machine = Machine::new(cfg, programs).unwrap();
        let result = machine.run(1_000_000);
        assert!(result.deadlocked);
        assert!(!result.finished);
        assert!(result.cycles < 1_000, "detected immediately, not at the cycle limit");
        let diagnostic = result.deadlock_diagnostic.expect("a diagnostic is recorded");
        assert!(diagnostic.contains("deadlock at cycle"), "got: {diagnostic}");
        assert!(diagnostic.contains("core0"), "per-core snapshots included: {diagnostic}");
    }

    #[test]
    fn summary_reports_workload_and_config() {
        let result = small_run(EngineKind::Conventional(ConsistencyModel::Tso), 400);
        let summary = result.summary("Apache");
        assert_eq!(summary.workload, "Apache");
        assert_eq!(summary.config, "tso");
        assert_eq!(summary.cycles, result.cycles);
    }
}
