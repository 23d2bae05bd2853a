//! The traced run: the serial event-driven kernel loop of
//! `ifence_sim::Machine`, re-created here so that every call into a layer
//! can be timed from outside the program.
//!
//! The replica drives cores and fabric only through APIs that survive a
//! merge of the core's per-cycle pipelines: `Core::{step, handle_delivery,
//! drain_requests_into, drain_replies_into, absorb_quiescent_cycles,
//! finalize, into_parts}`, `CoherenceFabric::{step_into, request, respond,
//! next_due, stats}` and the `InstructionSource` trait, which it wraps to
//! time `fetch`. It runs the plain event kernel (per-core sleep plus
//! whole-machine jumps, no batched fast cycle, no leap, one thread), which
//! the repository's equivalence suites hold byte-identical to every other
//! kernel, so its `MachineResult` must equal `Machine::into_result`.
//!
//! `TIMED = false` compiles every timer out while keeping the counters, so
//! the wall-time ratio of the two instantiations is the tracing overhead.

use ifence_coherence::{CoherenceFabric, CoherenceRequest, Delivery, FabricConfig, SnoopReply};
use ifence_cpu::{Core, CoreSleep};
use ifence_sim::MachineResult;
use ifence_stats::RunHistograms;
use ifence_types::{
    earliest_wake, BoxedSource, CoreId, Cycle, Instruction, InstructionSource, MachineConfig,
};
use invisifence::build_engine;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host nanoseconds spent inside each layer call, summed over a run.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// `Core::step`, including the `fetch` calls it makes.
    pub core_step: u64,
    /// `Core::handle_delivery`.
    pub handle_delivery: u64,
    /// `CoherenceFabric::step_into`.
    pub fabric_step: u64,
    /// `CoherenceFabric::request`.
    pub request: u64,
    /// `CoherenceFabric::respond`.
    pub respond: u64,
    /// `InstructionSource::fetch` (nested inside `core_step`).
    pub fetch: u64,
    /// The whole run: loop, every call above, and finalisation.
    pub total: u64,
}

impl LayerTimes {
    /// Time in the replica's own loop: the total minus every top-level layer
    /// call (`fetch` is nested inside `core_step`, so it is not subtracted).
    pub fn loop_self(&self) -> u64 {
        self.total.saturating_sub(
            self.core_step + self.handle_delivery + self.fabric_step + self.request + self.respond,
        )
    }
}

/// Exact, host-independent counts of the calls the replica made.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerCounts {
    /// `Core::step` calls.
    pub core_steps: u64,
    /// `Core::handle_delivery` calls.
    pub handle_delivery_calls: u64,
    /// `CoherenceFabric::step_into` calls (one per stepped cycle).
    pub fabric_steps: u64,
    /// `CoherenceFabric::request` calls.
    pub requests: u64,
    /// `CoherenceFabric::respond` calls.
    pub replies: u64,
    /// `InstructionSource::fetch` calls, re-fetches after rollback included.
    pub fetches: u64,
    /// Deliveries by kind.
    pub fills: u64,
    /// Invalidations (remote writers and inclusion recalls).
    pub invalidates: u64,
    /// Downgrades.
    pub downgrades: u64,
    /// Machine cycles stepped (as opposed to jumped over).
    pub stepped_cycles: u64,
    /// Whole-machine jumps over quiescent stretches.
    pub jumps: u64,
    /// Cycles covered by those jumps.
    pub jumped_cycles: u64,
}

/// One replica run: the simulated result and where the host time went.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Must equal `Machine::into_result` for the same inputs.
    pub result: MachineResult,
    /// Per-layer host time (all zero except `total` when untimed).
    pub times: LayerTimes,
    /// Per-layer call counts.
    pub counts: LayerCounts,
}

/// Starts a span when `TIMED`; otherwise a no-op the compiler removes.
#[inline(always)]
fn start<const TIMED: bool>() -> Option<Instant> {
    if TIMED {
        Some(Instant::now())
    } else {
        None
    }
}

/// Adds a span's elapsed time to `acc`.
#[inline(always)]
fn stop(span: Option<Instant>, acc: &mut u64) {
    if let Some(started) = span {
        *acc += started.elapsed().as_nanos() as u64;
    }
}

/// Fetch totals shared between the wrapped sources (owned by the cores) and
/// the replica, which reads them when the run ends.
#[derive(Debug, Default)]
struct FetchTally {
    calls: AtomicU64,
    nanos: AtomicU64,
}

/// An instruction source that counts, and when `TIMED` times, every fetch.
struct TallySource<const TIMED: bool> {
    inner: BoxedSource,
    tally: Arc<FetchTally>,
}

impl<const TIMED: bool> InstructionSource for TallySource<TIMED> {
    fn fetch(&mut self, index: usize) -> Option<Instruction> {
        let span = start::<TIMED>();
        let instr = self.inner.fetch(index);
        // Relaxed: statistics only, read after the run on the same thread.
        if let Some(started) = span {
            self.tally.nanos.fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        }
        self.tally.calls.fetch_add(1, Ordering::Relaxed);
        instr
    }

    fn release(&mut self, frontier: usize) {
        self.inner.release(frontier);
    }

    fn end(&self) -> Option<usize> {
        self.inner.end()
    }

    fn resident(&self) -> usize {
        self.inner.resident()
    }
}

/// The serial event kernel, driven from outside the simulator.
struct Replica<const TIMED: bool> {
    cores: Vec<Core>,
    fabric: CoherenceFabric,
    now: Cycle,
    sleeping: Vec<Option<CoreSleep>>,
    /// Ascending indices of the awake cores.
    awake: Vec<usize>,
    /// Pending sleep wake hints as `(cycle, core)`; stale entries (the core
    /// was woken early by a delivery) are skipped when popped.
    wakes: BinaryHeap<Reverse<(Cycle, usize)>>,
    deliveries: Vec<Delivery>,
    replies: Vec<SnoopReply>,
    requests: Vec<CoherenceRequest>,
    times: LayerTimes,
    counts: LayerCounts,
}

/// Runs `sources` on a machine built from `cfg` through the replica and
/// returns its result with the per-layer breakdown.
///
/// # Errors
/// Returns an error if the configuration is invalid or the number of
/// sources does not match the number of cores.
pub fn run<const TIMED: bool>(
    cfg: &MachineConfig,
    sources: Vec<BoxedSource>,
    max_cycles: Cycle,
) -> Result<Trace, String> {
    cfg.validate().map_err(|e| e.to_string())?;
    if sources.len() != cfg.cores {
        return Err(format!("{} sources provided for {} cores", sources.len(), cfg.cores));
    }
    let started = Instant::now();
    let tally = Arc::new(FetchTally::default());
    let cores = sources
        .into_iter()
        .enumerate()
        .map(|(i, inner)| {
            let source = Box::new(TallySource::<TIMED> { inner, tally: Arc::clone(&tally) });
            Core::from_source(CoreId(i), source, cfg, build_engine(cfg.engine, cfg))
        })
        .collect::<Vec<_>>();
    let mut replica = Replica::<TIMED> {
        sleeping: vec![None; cores.len()],
        awake: (0..cores.len()).collect(),
        cores,
        fabric: CoherenceFabric::new(FabricConfig::from_machine(cfg)),
        now: 0,
        wakes: BinaryHeap::new(),
        deliveries: Vec::new(),
        replies: Vec::new(),
        requests: Vec::new(),
        times: LayerTimes::default(),
        counts: LayerCounts::default(),
    };
    let deadlock_diagnostic = replica.run_loop(max_cycles);
    let mut trace = replica.finish(deadlock_diagnostic, cfg.engine.label());
    trace.counts.fetches = tally.calls.load(Ordering::Relaxed);
    trace.times.fetch = tally.nanos.load(Ordering::Relaxed);
    trace.times.total = started.elapsed().as_nanos() as u64;
    Ok(trace)
}

impl<const TIMED: bool> Replica<TIMED> {
    fn request(&mut self, request: CoherenceRequest, now: Cycle) {
        let span = start::<TIMED>();
        self.fabric.request(request, now);
        stop(span, &mut self.times.request);
        self.counts.requests += 1;
    }

    fn respond(&mut self, reply: SnoopReply, now: Cycle) {
        let span = start::<TIMED>();
        self.fabric.respond(reply, now);
        stop(span, &mut self.times.respond);
        self.counts.replies += 1;
    }

    /// Routes core `idx`'s queued replies (when `with_replies`) and then its
    /// requests into the fabric; true if there were any.
    fn route_outbox(&mut self, idx: usize, with_replies: bool, now: Cycle) -> bool {
        let mut replies = std::mem::take(&mut self.replies);
        let mut requests = std::mem::take(&mut self.requests);
        if with_replies {
            self.cores[idx].drain_replies_into(&mut replies);
        }
        self.cores[idx].drain_requests_into(&mut requests);
        let routed = !replies.is_empty() || !requests.is_empty();
        for reply in replies.drain(..) {
            self.respond(reply, now);
        }
        for request in requests.drain(..) {
            self.request(request, now);
        }
        self.replies = replies;
        self.requests = requests;
        routed
    }

    /// Wakes a sleeping core, attributing its skipped cycles in bulk.
    fn wake_core(&mut self, idx: usize, now: Cycle) {
        if let Some(sleep) = self.sleeping[idx].take() {
            if let (Some(class), true) = (sleep.class, now > sleep.since) {
                self.cores[idx].absorb_quiescent_cycles(class, now - sleep.since);
            }
            if let Err(at) = self.awake.binary_search(&idx) {
                self.awake.insert(at, idx);
            }
        }
    }

    /// One machine cycle: deliveries, due wake-ups, then every awake core.
    /// Returns whether anything progressed and, if nothing did, the
    /// earliest core wake hint.
    fn step_cycle(&mut self) -> (bool, Option<Cycle>) {
        let now = self.now;
        self.counts.stepped_cycles += 1;
        let mut deliveries = std::mem::take(&mut self.deliveries);
        let span = start::<TIMED>();
        self.fabric.step_into(now, &mut deliveries);
        stop(span, &mut self.times.fabric_step);
        self.counts.fabric_steps += 1;
        let mut progressed = !deliveries.is_empty();
        for &delivery in &deliveries {
            match delivery {
                Delivery::Fill { .. } => self.counts.fills += 1,
                Delivery::Invalidate { .. } => self.counts.invalidates += 1,
                Delivery::Downgrade { .. } => self.counts.downgrades += 1,
            }
            let idx = delivery.core().index();
            self.wake_core(idx, now);
            let span = start::<TIMED>();
            let reply = self.cores[idx].handle_delivery(delivery, now);
            stop(span, &mut self.times.handle_delivery);
            self.counts.handle_delivery_calls += 1;
            if let Some(reply) = reply {
                self.respond(reply, now);
            }
            self.route_outbox(idx, false, now);
        }
        self.deliveries = deliveries;
        while let Some(&Reverse((at, idx))) = self.wakes.peek() {
            if at > now {
                break;
            }
            self.wakes.pop();
            if matches!(self.sleeping[idx], Some(CoreSleep { wake_at: Some(w), .. }) if w <= now) {
                self.wake_core(idx, now);
            }
        }
        let mut awake = std::mem::take(&mut self.awake);
        let mut kept = 0;
        for r in 0..awake.len() {
            let i = awake[r];
            let span = start::<TIMED>();
            let activity = self.cores[i].step(now);
            stop(span, &mut self.times.core_step);
            self.counts.core_steps += 1;
            progressed |= self.route_outbox(i, true, now);
            if activity.progressed {
                progressed = true;
                awake[kept] = i;
                kept += 1;
            } else {
                self.sleeping[i] = Some(CoreSleep {
                    since: now + 1,
                    class: activity.class,
                    wake_at: activity.wake_at,
                });
                if let Some(wake) = activity.wake_at {
                    self.wakes.push(Reverse((wake, i)));
                }
            }
        }
        awake.truncate(kept);
        self.awake = awake;
        self.now += 1;
        let core_wake = if progressed {
            None
        } else {
            self.sleeping.iter().flatten().fold(None, |acc, s| earliest_wake(acc, s.wake_at))
        };
        (progressed, core_wake)
    }

    /// Steps until every core finishes, a deadlock is proven, or the cycle
    /// limit; returns the deadlock diagnostic, if any.
    fn run_loop(&mut self, max_cycles: Cycle) -> Option<String> {
        while self.now < max_cycles && !self.cores.iter().all(Core::finished) {
            let (progressed, core_wake) = self.step_cycle();
            if progressed {
                continue;
            }
            let Some(wake) = earliest_wake(core_wake, self.fabric.next_due()) else {
                return Some(self.deadlock_snapshot());
            };
            let target = wake.min(max_cycles);
            if target > self.now {
                self.counts.jumps += 1;
                self.counts.jumped_cycles += target - self.now;
                self.now = target;
            }
        }
        None
    }

    /// The machine's deadlock diagnostic, word for word.
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

    /// Flushes sleep attribution, finalises every core and assembles the
    /// result exactly as `Machine::into_result` does.
    fn finish(mut self, deadlock_diagnostic: Option<String>, config_label: String) -> Trace {
        for idx in 0..self.cores.len() {
            self.wake_core(idx, self.now);
        }
        let finished = self.cores.iter().all(Core::finished);
        let deadlocked = deadlock_diagnostic.is_some();
        for core in &mut self.cores {
            if deadlocked {
                core.trace_deadlock(self.now);
            }
            core.stamp_trace(self.now);
            core.finalize();
        }
        let hists: Vec<_> = self.cores.iter().map(|c| c.stats().hists.clone()).collect();
        let (l2_miss_latency, queue_depth) = self.fabric.telemetry_hists();
        let histograms =
            RunHistograms::from_parts(&hists, l2_miss_latency.clone(), queue_depth.clone());
        let fabric = *self.fabric.stats();
        let (per_core, load_results) = self.cores.into_iter().map(Core::into_parts).unzip();
        let result = MachineResult {
            cycles: self.now,
            finished,
            deadlocked,
            deadlock_diagnostic,
            per_core,
            fabric,
            histograms,
            load_results,
            config_label,
        };
        Trace { result, times: self.times, counts: self.counts }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_sim::{ExperimentParams, Machine};
    use ifence_types::EngineKind;
    use ifence_workloads::{presets, Workload};

    #[test]
    fn replica_equals_into_result_on_the_quick_machine() {
        let params = ExperimentParams::quick_test();
        let workloads: [Workload; 2] = [presets::barnes().into(), presets::apache().into()];
        for engine in EngineKind::all() {
            for workload in &workloads {
                let cfg = params.config_for(engine);
                let sources =
                    || workload.sources(cfg.cores, params.instructions_per_core, params.seed);
                let expected = Machine::from_sources(cfg.clone(), sources())
                    .expect("quick configuration is valid")
                    .into_result(params.max_cycles);
                assert!(expected.finished, "{} on {}", engine.label(), workload.name());
                let timed = run::<true>(&cfg, sources(), params.max_cycles).expect("valid");
                let untimed = run::<false>(&cfg, sources(), params.max_cycles).expect("valid");
                let context = format!("{} on {}", engine.label(), workload.name());
                assert_eq!(timed.result, expected, "{context}: timed replica");
                assert_eq!(untimed.result, expected, "{context}: untimed replica");
                assert_eq!(timed.counts, untimed.counts, "{context}: counts are exact");
                assert_eq!(untimed.times.core_step, 0, "{context}: timers compiled out");
                assert!(timed.counts.fetches >= params.instructions_per_core as u64);
            }
        }
    }

    #[test]
    fn replica_rejects_a_source_count_mismatch() {
        let cfg = ExperimentParams::quick_test().config_for(EngineKind::all()[0]);
        assert!(run::<false>(&cfg, Vec::new(), 1_000).is_err());
    }
}
