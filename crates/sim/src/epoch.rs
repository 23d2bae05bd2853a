//! The epoch-parallel machine kernel: one simulated machine's cores stepped
//! across threads, byte-identical to the serial kernel.
//!
//! # Why independent stepping is sound
//!
//! Cores interact only through coherence deliveries — there is no shared
//! mutable state between two cores except the fabric. Every core emission at
//! cycle `t` schedules its earliest consequence no sooner than
//! `t + min_crossing_latency` (a request pays directory occupancy before its
//! transaction can schedule anything; a reply's completion fill crosses at
//! least one hop — see [`ifence_types::InterconnectConfig::min_crossing_latency`]),
//! and everything already scheduled is bounded below by the fabric's event
//! heap. So with the per-epoch horizon
//!
//! ```text
//! horizon = min(next_due, start + min_crossing_latency)   (> start)
//! ```
//!
//! no delivery can land strictly inside `(start, horizon)`: each core's
//! cycles in `[start, horizon)` depend only on its own state plus the
//! deliveries due at `start` — and can run on any thread.
//!
//! # Why the merge preserves byte-identity
//!
//! During an epoch the serial kernel's only fabric mutations are the calls
//! made while routing (its per-cycle `fabric.step(t)` calls for
//! `t ∈ (start, horizon)` pop nothing — every event lies at or beyond the
//! horizon — and schedule nothing). That routing order is fully determined:
//! cycle-major; within a cycle the delivery phase before the per-core phase;
//! within the delivery phase the fabric's own delivery order; within the
//! per-core phase ascending core index, each core's replies before its
//! requests. Workers tag every buffered emission with (cycle, phase, order,
//! seq) and the control thread replays the sorted log through
//! [`ifence_coherence::CoherenceFabric::ingest`] — the exact call sequence
//! the serial kernel would have made, so heap keys, sequence numbers, slab
//! layouts, statistics and therefore all simulated results are identical.
//!
//! # Shape
//!
//! One control thread (which also steps the first chunk of cores) plus
//! `threads - 1` workers under `std::thread::scope`, synchronised by a
//! sense-reversing spin barrier twice per epoch: the control thread runs the
//! fabric to the epoch start, partitions the due deliveries, and publishes
//! `(start, horizon, deliveries)`; everyone steps their chunk; the control
//! thread merges the logs, ingests them in serial order, and decides —
//! finish, deadlock, jump (a fully quiescent machine still time-jumps, like
//! the serial event kernel), or next epoch. Steady-state allocations are
//! zero: chunks, logs and scratch buffers persist across epochs.

use crate::machine::Machine;
use ifence_coherence::{CoherenceRequest, Delivery, FabricInput};
use ifence_cpu::{Core, CoreSleep};
use ifence_stats::Phase;
use ifence_types::{earliest_wake, Cycle};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One buffered core→fabric message with its position in the serial routing
/// order: `cycle`-major, `phase` (0 = delivery-phase routing, 1 = per-core
/// stepping) next, `order` (delivery index / core index), then `seq`. Ties on
/// (cycle, phase, order) — one core's several emissions in one cycle — are
/// always produced by a single chunk (an order value names one delivery or
/// one core, each owned by exactly one chunk), so the per-log push index
/// `seq` reconstructs their insertion order (replies before requests) and
/// the merge can use an allocation-free unstable sort on the now-unique key.
struct MergeEntry {
    cycle: Cycle,
    phase: u8,
    order: u64,
    seq: u32,
    input: FabricInput,
}

/// Per-core outcome a chunk reports to the control thread after each epoch.
#[derive(Clone, Copy)]
struct CoreReport {
    /// Cycle the core finished on (sticky across epochs), if it has.
    finished_at: Option<Cycle>,
    /// True if the core ended the epoch asleep (quiescent).
    asleep: bool,
    /// The sleeping core's own wake hint, if any.
    wake_at: Option<Cycle>,
}

/// What the control thread publishes to a worker before each epoch.
#[derive(Default)]
struct EpochInput {
    start: Cycle,
    horizon: Cycle,
    stop: bool,
    /// Deliveries due at `start` addressed to this worker's cores, each with
    /// its global delivery-order index.
    deliveries: Vec<(u64, Delivery)>,
}

/// What a worker publishes back after each epoch.
#[derive(Default)]
struct EpochOutput {
    log: Vec<MergeEntry>,
    reports: Vec<CoreReport>,
    /// Latest cycle at which any of the worker's cores progressed or
    /// emitted (machine-level progress, for the deadlock cycle number).
    last_progress: Option<Cycle>,
}

/// One worker's mailbox. The control thread writes `input` and reads
/// `output` strictly outside the epoch (between barrier B and barrier A), the
/// worker strictly inside it, so the mutexes are never contended.
#[derive(Default)]
struct WorkerSlot {
    input: Mutex<EpochInput>,
    output: Mutex<EpochOutput>,
    /// Where the worker deposits its cores when told to stop.
    chunk_back: Mutex<Option<Chunk>>,
}

/// A contiguous partition of the machine's cores, owned by one thread for
/// the duration of the run.
struct Chunk {
    /// Global index of the first core in this chunk.
    first: usize,
    cores: Vec<Core>,
    sleep: Vec<Option<CoreSleep>>,
    /// Cycle each core finished on (sticky: recorded the first time the
    /// core's `step_until` observes it finished).
    finished_at: Vec<Option<Cycle>>,
    /// Scratch for the delivery phase's request routing.
    request_buf: Vec<CoherenceRequest>,
    /// Scratch for one core's `step_until` emissions.
    emit: Vec<(Cycle, FabricInput)>,
}

impl Chunk {
    /// Runs one epoch over this chunk's cores: the delivery phase, then the
    /// step phase. Workers call this back to back; the control thread calls
    /// the two phases separately so each runs under its own profiler timer
    /// (delivery handling under `DeliveryRouting`, stepping under
    /// `CoreStep` — the same attribution the serial kernel uses).
    fn run_epoch(&mut self, input: &EpochInput, output: &mut EpochOutput) {
        self.run_delivery_phase(input, output);
        self.run_step_phase(input, output);
    }

    /// Delivery phase (all deliveries land at the epoch start): wake the
    /// target, handle, and log the reply and any directly queued requests
    /// under the delivery's global order — exactly the serial delivery
    /// loop, minus the fabric calls (replayed at merge time).
    fn run_delivery_phase(&mut self, input: &EpochInput, output: &mut EpochOutput) {
        let start = input.start;
        output.log.clear();
        output.reports.clear();
        output.last_progress = None;
        for &(order, delivery) in &input.deliveries {
            let li = delivery.core().index() - self.first;
            if let Some(sleep) = self.sleep[li].take() {
                if let (Some(class), true) = (sleep.class, start > sleep.since) {
                    self.cores[li].absorb_quiescent_cycles(class, start - sleep.since);
                }
            }
            if let Some(reply) = self.cores[li].handle_delivery(delivery, start) {
                output.log.push(MergeEntry {
                    cycle: start,
                    phase: 0,
                    order,
                    seq: output.log.len() as u32,
                    input: FabricInput::Reply(reply),
                });
            }
            self.cores[li].drain_requests_into(&mut self.request_buf);
            for request in self.request_buf.drain(..) {
                output.log.push(MergeEntry {
                    cycle: start,
                    phase: 0,
                    order,
                    seq: output.log.len() as u32,
                    input: FabricInput::Request(request),
                });
            }
            output.last_progress = Some(start);
        }
    }

    /// Step phase: each core runs `[start, horizon)` on its own. Cores that
    /// entered the epoch asleep with no wake hint inside it are skipped
    /// outright — `step_until` would observe the hint at or past the horizon
    /// and return untouched (the delivery phase already woke every delivery
    /// target), so the report is constructed directly from the sleep state.
    fn run_step_phase(&mut self, input: &EpochInput, output: &mut EpochOutput) {
        let start = input.start;
        for li in 0..self.cores.len() {
            if let Some(sleep) = self.sleep[li] {
                if sleep.wake_at.map_or(true, |w| w >= input.horizon) {
                    output.reports.push(CoreReport {
                        finished_at: self.finished_at[li],
                        asleep: true,
                        wake_at: sleep.wake_at,
                    });
                    continue;
                }
            }
            let order = (self.first + li) as u64;
            self.emit.clear();
            let report = self.cores[li].step_until(
                start,
                input.horizon,
                &mut self.sleep[li],
                &mut self.emit,
            );
            for &(cycle, input) in &self.emit {
                output.log.push(MergeEntry {
                    cycle,
                    phase: 1,
                    order,
                    seq: output.log.len() as u32,
                    input,
                });
            }
            if self.finished_at[li].is_none() {
                self.finished_at[li] = report.finished_at;
            }
            output.last_progress = later(output.last_progress, report.last_progress);
            output.reports.push(CoreReport {
                finished_at: self.finished_at[li],
                asleep: self.sleep[li].is_some(),
                wake_at: self.sleep[li].and_then(|s| s.wake_at),
            });
        }
    }
}

/// A sense-reversing spin barrier for the twice-per-epoch rendezvous.
/// Epochs are microseconds long, so parking threads in the OS would dominate;
/// spinners fall back to `yield_now` so oversubscribed hosts still make
/// progress.
struct SpinBarrier {
    members: usize,
    count: AtomicUsize,
    generation: AtomicUsize,
}

impl SpinBarrier {
    fn new(members: usize) -> Self {
        SpinBarrier { members, count: AtomicUsize::new(0), generation: AtomicUsize::new(0) }
    }

    fn wait(&self) {
        let generation = self.generation.load(Ordering::Acquire);
        if self.count.fetch_add(1, Ordering::AcqRel) + 1 == self.members {
            // Last arriver: reset the count for the next barrier, then open
            // this one. Threads only touch `count` after observing the new
            // generation, so the reset cannot race the next barrier's
            // arrivals.
            self.count.store(0, Ordering::Release);
            self.generation.fetch_add(1, Ordering::Release);
        } else {
            let mut spins = 0u32;
            while self.generation.load(Ordering::Acquire) == generation {
                spins = spins.wrapping_add(1);
                if spins < 64 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// How an epoch-parallel run ended, with the machine's final cycle.
enum Verdict {
    /// Every core finished; `now` is the cycle after the last finish —
    /// exactly where the serial loop's `all_finished` check would stop.
    Finished(Cycle),
    /// The cycle limit was reached.
    CycleLimit(Cycle),
    /// No core can ever act again and the fabric has nothing scheduled.
    Deadlock(Cycle),
}

/// The later of two optional cycles.
fn later(a: Option<Cycle>, b: Option<Cycle>) -> Option<Cycle> {
    match (a, b) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, None) => x,
        (None, y) => y,
    }
}

/// Splits the machine's cores into `threads` contiguous chunks (sizes
/// differing by at most one, larger chunks first).
fn partition(cores: Vec<Core>, sleep: Vec<Option<CoreSleep>>, threads: usize) -> Vec<Chunk> {
    let n = cores.len();
    let (base, rem) = (n / threads, n % threads);
    let mut cores = cores.into_iter();
    let mut sleep = sleep.into_iter();
    let mut chunks = Vec::with_capacity(threads);
    let mut first = 0;
    for i in 0..threads {
        let len = base + usize::from(i < rem);
        chunks.push(Chunk {
            first,
            cores: cores.by_ref().take(len).collect(),
            sleep: sleep.by_ref().take(len).collect(),
            finished_at: vec![None; len],
            request_buf: Vec::new(),
            emit: Vec::new(),
        });
        first += len;
    }
    chunks
}

fn worker_main(mut chunk: Chunk, slot: &WorkerSlot, barrier: &SpinBarrier) {
    loop {
        // Barrier A: the control thread has published this epoch's input.
        barrier.wait();
        {
            let input = slot.input.lock().expect("epoch input mutex");
            if input.stop {
                break;
            }
            let mut output = slot.output.lock().expect("epoch output mutex");
            chunk.run_epoch(&input, &mut output);
        }
        // Barrier B: every chunk is done; the control thread may merge.
        barrier.wait();
    }
    *slot.chunk_back.lock().expect("chunk return mutex") = Some(chunk);
}

/// The epoch-parallel replacement for the serial `run_loop` body. Partitions
/// the machine's cores across scoped threads, drives epochs until the run
/// finishes, deadlocks or hits `max_cycles`, then reassembles the machine.
/// Returns the serial loop's `(deadlocked, diagnostic)` contract.
pub(crate) fn run_epoch_loop(m: &mut Machine, max_cycles: Cycle) -> (bool, Option<String>) {
    if m.now >= max_cycles || m.all_finished() {
        return (false, None);
    }
    let threads = m.threads.min(m.cores.len()).max(1);
    let cores = std::mem::take(&mut m.cores);
    let sleeping = std::mem::take(&mut m.sleeping);
    let mut chunks = partition(cores, sleeping, threads);
    let ranges: Vec<(usize, usize)> = chunks.iter().map(|c| (c.first, c.cores.len())).collect();
    let control_chunk = chunks.remove(0);
    let slots: Vec<WorkerSlot> = (1..threads).map(|_| WorkerSlot::default()).collect();
    let barrier = SpinBarrier::new(threads);
    let (verdict, control_chunk) = std::thread::scope(|s| {
        for (chunk, slot) in chunks.into_iter().zip(&slots) {
            let barrier = &barrier;
            s.spawn(move || worker_main(chunk, slot, barrier));
        }
        control_loop(m, control_chunk, &slots, &ranges, &barrier, max_cycles)
    });
    // Reassemble the machine: every worker deposited its chunk on the way
    // out (the scope join guarantees they all have).
    let mut chunks = vec![control_chunk];
    for slot in &slots {
        let chunk = slot.chunk_back.lock().expect("chunk return mutex").take();
        chunks.push(chunk.expect("stopped worker returns its chunk"));
    }
    chunks.sort_by_key(|c| c.first);
    for chunk in chunks {
        m.cores.extend(chunk.cores);
        m.sleeping.extend(chunk.sleep);
    }
    m.rebuild_wake_index();
    match verdict {
        Verdict::Finished(now) | Verdict::CycleLimit(now) => {
            m.now = now;
            (false, None)
        }
        Verdict::Deadlock(now) => {
            m.now = now;
            (true, Some(m.deadlock_snapshot()))
        }
    }
}

/// The control thread's epoch loop (it also steps chunk 0 between the
/// barriers). Owns the fabric throughout; workers never touch it.
fn control_loop(
    m: &mut Machine,
    mut chunk: Chunk,
    slots: &[WorkerSlot],
    ranges: &[(usize, usize)],
    barrier: &SpinBarrier,
    max_cycles: Cycle,
) -> (Verdict, Chunk) {
    let n: usize = ranges.iter().map(|&(_, len)| len).sum();
    let loop_start = m.now;
    let mut now = m.now;
    // Machine-wide per-core summaries, refreshed from every epoch's reports.
    let mut finished_at: Vec<Option<Cycle>> = vec![None; n];
    let mut asleep: Vec<bool> = vec![false; n];
    let mut wake_hints: Vec<Option<Cycle>> = vec![None; n];
    let mut last_activity: Option<Cycle> = None;
    let mut deliveries: Vec<Delivery> = Vec::new();
    let mut merge: Vec<MergeEntry> = Vec::new();
    let mut control_input = EpochInput::default();
    let mut control_output = EpochOutput::default();
    let verdict = loop {
        if now >= max_cycles {
            break Verdict::CycleLimit(now);
        }
        // Run the fabric to the epoch start and derive the safe horizon:
        // after `step_into(now)` every scheduled event lies beyond `now`,
        // and every emission made during the epoch lands at or beyond
        // `now + min_crossing_latency` — so nothing can land inside
        // `(now, horizon)` and the epoch's cycles are core-local.
        // Phase timers (control thread only — worker chunks are untimed, so
        // the epoch kernel's CoreStep covers one chunk in 1/threads of the
        // wall clock; Merge is the phase this kernel adds).
        let timer = m.timer(Phase::FabricStep);
        m.fabric.step_into(now, &mut deliveries);
        drop(timer);
        if !deliveries.is_empty() {
            last_activity = Some(now);
        }
        let horizon = m.fabric.next_interaction_bound(now).max(now + 1).min(max_cycles);
        // Publish the epoch and partition its deliveries by target chunk.
        let timer = m.timer(Phase::DeliveryRouting);
        control_input.start = now;
        control_input.horizon = horizon;
        control_input.deliveries.clear();
        for slot in slots {
            let mut input = slot.input.lock().expect("epoch input mutex");
            input.start = now;
            input.horizon = horizon;
            input.deliveries.clear();
        }
        for (order, &delivery) in deliveries.iter().enumerate() {
            let target = delivery.core().index();
            let entry = (order as u64, delivery);
            let owner = ranges
                .iter()
                .position(|&(first, len)| target >= first && target < first + len)
                .expect("delivery targets an existing core");
            if owner == 0 {
                control_input.deliveries.push(entry);
            } else {
                slots[owner - 1].input.lock().expect("epoch input mutex").deliveries.push(entry);
            }
        }
        drop(timer);
        barrier.wait(); // A: inputs published, everyone steps.
        let timer = m.timer(Phase::DeliveryRouting);
        chunk.run_delivery_phase(&control_input, &mut control_output);
        drop(timer);
        let timer = m.timer(Phase::CoreStep);
        chunk.run_step_phase(&control_input, &mut control_output);
        drop(timer);
        barrier.wait(); // B: every chunk done, outputs stable.
                        // Merge: fold every chunk's report and replay the combined log in
                        // serial order (`seq` makes the key unique, so the in-place
                        // unstable sort reproduces the stable within-cycle order).
        let timer = m.timer(Phase::Merge);
        merge.clear();
        fold(
            &mut control_output,
            ranges[0].0,
            &mut merge,
            &mut finished_at,
            &mut asleep,
            &mut wake_hints,
            &mut last_activity,
        );
        for (slot, &(first, _)) in slots.iter().zip(&ranges[1..]) {
            let mut output = slot.output.lock().expect("epoch output mutex");
            fold(
                &mut output,
                first,
                &mut merge,
                &mut finished_at,
                &mut asleep,
                &mut wake_hints,
                &mut last_activity,
            );
        }
        merge.sort_unstable_by_key(|e| (e.cycle, e.phase, e.order, e.seq));
        for entry in merge.drain(..) {
            m.fabric.ingest(entry.input, entry.cycle);
        }
        drop(timer);
        // Decide: finished, deadlocked, jump, or straight into the next
        // epoch — each exactly where the serial loop would land.
        if finished_at.iter().all(Option::is_some) {
            let last = finished_at.iter().filter_map(|&f| f).max().unwrap_or(now);
            break Verdict::Finished(last + 1);
        }
        if asleep.iter().all(|&a| a) {
            let core_wake = wake_hints.iter().fold(None, |acc, &w| earliest_wake(acc, w));
            match earliest_wake(core_wake, m.fabric.next_due()) {
                // Nothing can ever happen again: the serial kernel detects
                // this on its first no-progress cycle, two past the last
                // activity (the no-progress step itself advances `now`).
                None => {
                    break Verdict::Deadlock(last_activity.map(|p| p + 2).unwrap_or(loop_start + 1))
                }
                // Fully quiescent but scheduled: jump, like the serial
                // event kernel (every intra-epoch hint was consumed by its
                // worker, so the wake lies at or beyond the horizon).
                Some(wake) => now = wake.max(horizon).min(max_cycles),
            }
        } else {
            now = horizon;
        }
    };
    // Stop the workers (they are parked at barrier A).
    for slot in slots {
        slot.input.lock().expect("epoch input mutex").stop = true;
    }
    barrier.wait();
    (verdict, chunk)
}

/// Folds one chunk's epoch output into the machine-wide summaries and the
/// merge log.
fn fold(
    output: &mut EpochOutput,
    first: usize,
    merge: &mut Vec<MergeEntry>,
    finished_at: &mut [Option<Cycle>],
    asleep: &mut [bool],
    wake_hints: &mut [Option<Cycle>],
    last_activity: &mut Option<Cycle>,
) {
    merge.append(&mut output.log);
    *last_activity = later(*last_activity, output.last_progress);
    for (li, report) in output.reports.drain(..).enumerate() {
        finished_at[first + li] = report.finished_at;
        asleep[first + li] = report.asleep;
        wake_hints[first + li] = report.wake_at;
    }
}
