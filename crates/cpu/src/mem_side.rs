//! The memory-side state of one core: L1, store buffer, MSHRs, and the
//! request path to the coherence fabric.

use ifence_coherence::{CoherenceReqKind, CoherenceRequest};
use ifence_mem::{EvictionAction, FillSlot, L1Cache, LineState, MshrError, SbError, StoreBuffer};
use ifence_stats::{CoreStats, SimCounters, TraceKind};
use ifence_types::{Addr, BlockAddr, CoreId, Cycle, MachineConfig};

/// The L1 cache, store buffer, MSHRs and outgoing-request queue of one core.
///
/// Ordering engines receive `&mut CoreMem` and use it to implement the
/// retirement mechanics of their consistency model: writing stores to the
/// buffer or directly to the cache, marking speculative bits, issuing
/// coherence requests, and draining the store buffer.
#[derive(Debug)]
pub struct CoreMem {
    /// This core's identifier.
    pub id: CoreId,
    /// Private L1 data cache (with victim cache and speculative bits).
    pub l1: L1Cache,
    /// Store buffer (the engine kind fixes its organization).
    pub sb: StoreBuffer,
    /// Miss-status holding registers.
    pub mshrs: ifence_mem::MshrFile,
    block_bytes: usize,
    store_prefetch: bool,
    outbox: Vec<CoherenceRequest>,
    /// Drain candidates, refilled on every drain attempt (kept to reuse the
    /// allocation).
    drain_scratch: Vec<(BlockAddr, Option<u8>)>,
}

impl CoreMem {
    /// Creates the memory side of core `id` from the machine configuration.
    pub fn new(id: CoreId, cfg: &MachineConfig) -> Self {
        CoreMem {
            id,
            l1: L1Cache::new(&cfg.l1),
            sb: StoreBuffer::new(
                cfg.engine.store_buffer_kind(),
                cfg.store_buffer.entries,
                cfg.l1.block_bytes,
            ),
            mshrs: ifence_mem::MshrFile::new(cfg.l1.mshrs),
            block_bytes: cfg.l1.block_bytes,
            store_prefetch: cfg.core.store_prefetch,
            outbox: Vec::new(),
            drain_scratch: Vec::new(),
        }
    }

    /// Cache-block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// The cache block containing `addr`.
    pub fn block_of(&self, addr: Addr) -> BlockAddr {
        BlockAddr::containing(addr, self.block_bytes)
    }

    /// True if the store buffer is empty (the paper's commit / ordering
    /// condition).
    pub fn sb_empty(&self) -> bool {
        self.sb.is_empty()
    }

    /// True if the block is present with read permission.
    pub fn readable(&mut self, block: BlockAddr) -> bool {
        self.l1.lookup(block).readable()
    }

    /// True if the block is present with write permission.
    pub fn writable(&mut self, block: BlockAddr) -> bool {
        self.l1.lookup(block).writable()
    }

    /// True if a miss for the block is already outstanding.
    pub fn miss_outstanding(&self, block: BlockAddr) -> bool {
        self.mshrs.contains(block)
    }

    /// True while any miss is outstanding: the memory side is waiting on the
    /// coherence fabric and a fill will eventually arrive. Used by the
    /// event-driven kernel to classify a quiescent core as fabric-blocked
    /// (rather than deadlocked) and by its diagnostics.
    pub fn awaiting_fabric(&self) -> bool {
        !self.mshrs.is_empty()
    }

    /// Drains the coherence requests produced since the last call (including
    /// writebacks generated by L1 evictions) in place, so the outbox keeps
    /// its allocation across stepped cycles.
    pub fn drain_requests(&mut self) -> std::vec::Drain<'_, CoherenceRequest> {
        self.collect_writebacks();
        self.outbox.drain(..)
    }

    fn collect_writebacks(&mut self) {
        let id = self.id;
        for action in self.l1.drain_writebacks() {
            let req = match action {
                EvictionAction::WritebackDirty(block, data) => CoherenceRequest {
                    core: id,
                    block,
                    kind: CoherenceReqKind::WritebackDirty(data),
                },
                EvictionAction::WritebackClean(block) => {
                    CoherenceRequest { core: id, block, kind: CoherenceReqKind::WritebackClean }
                }
                EvictionAction::Silent(_) => continue,
            };
            self.outbox.push(req);
        }
    }

    /// Ensures a read (GetS) request is outstanding for `block`, registering
    /// `waiter` on it. Returns false if no MSHR could be allocated (the access
    /// must retry next cycle).
    pub fn ensure_read_miss(
        &mut self,
        block: BlockAddr,
        waiter: u64,
        now: Cycle,
        counters: &mut SimCounters,
    ) -> bool {
        if self.mshrs.merge_waiter(block, waiter, false) {
            return true;
        }
        match self.mshrs.allocate(block, false, false, now) {
            Ok(e) => {
                e.waiters.push(waiter);
                self.outbox.push(CoherenceRequest {
                    core: self.id,
                    block,
                    kind: CoherenceReqKind::GetS,
                });
                counters.coherence_requests += 1;
                counters.l1_misses += 1;
                true
            }
            Err(MshrError::AlreadyPresent) => self.mshrs.merge_waiter(block, waiter, false),
            Err(MshrError::Full) => false,
        }
    }

    /// Ensures a write-permission (GetM) request is outstanding for `block`.
    /// `waiter` is registered if provided; `prefetch` marks requests issued
    /// speculatively on behalf of stores at execute time. Returns false if no
    /// MSHR could be allocated.
    pub fn ensure_write_miss(
        &mut self,
        block: BlockAddr,
        waiter: Option<u64>,
        prefetch: bool,
        now: Cycle,
        counters: &mut SimCounters,
    ) -> bool {
        if self.mshrs.contains(block) {
            if let Some(w) = waiter {
                self.mshrs.merge_waiter(block, w, true);
            } else if let Some(e) = self.mshrs.get_mut(block) {
                e.for_write = true;
            }
            return true;
        }
        match self.mshrs.allocate(block, true, prefetch, now) {
            Ok(e) => {
                if let Some(w) = waiter {
                    e.waiters.push(w);
                }
                self.outbox.push(CoherenceRequest {
                    core: self.id,
                    block,
                    kind: CoherenceReqKind::GetM,
                });
                counters.coherence_requests += 1;
                if prefetch {
                    counters.store_prefetches += 1;
                } else {
                    counters.l1_misses += 1;
                }
                true
            }
            Err(MshrError::AlreadyPresent) => true,
            Err(MshrError::Full) => false,
        }
    }

    /// Issues an exclusive prefetch for a store's block at execute time, if
    /// store prefetching is enabled and the block is not already writable.
    pub fn store_prefetch(&mut self, block: BlockAddr, now: Cycle, counters: &mut SimCounters) {
        if !self.store_prefetch {
            return;
        }
        if self.l1.peek(block).writable() || self.mshrs.contains(block) {
            return;
        }
        if self.mshrs.is_full() {
            return;
        }
        let _ = self.ensure_write_miss(block, None, true, now, counters);
    }

    /// Inserts a retired store into the store buffer, tagging it with the
    /// speculation epoch it belongs to (`None` = non-speculative). Also issues
    /// a write request for the block if one is not already outstanding so the
    /// buffered store can eventually drain.
    ///
    /// # Errors
    /// Returns [`SbError::Full`] when the buffer has no free entry; the caller
    /// must stall retirement (an "SB full" cycle).
    pub fn store_to_sb(
        &mut self,
        addr: Addr,
        value: u64,
        epoch: Option<u8>,
        now: Cycle,
        stats: &mut CoreStats,
    ) -> Result<(), SbError> {
        let prior_high_water = self.sb.high_water();
        self.sb.push(addr, value, epoch)?;
        stats.counters.sb_inserts += 1;
        stats.hists.sb_occupancy.record(self.sb.len() as u64);
        let high_water = self.sb.high_water();
        if high_water > prior_high_water {
            stats.trace.emit_at(now, TraceKind::SbHighWater, high_water as u64);
        }
        let block = self.block_of(addr);
        if !self.l1.peek(block).writable() {
            let _ = self.ensure_write_miss(block, None, false, now, &mut stats.counters);
        }
        Ok(())
    }

    /// Writes a retired store directly into the L1 (the "store hit retires
    /// into the data cache" path of RMO and InvisiFence). If the store is
    /// speculative and the target block is dirty but not yet speculatively
    /// written, the block is first "cleaned" by writing it back so the
    /// pre-speculative value survives an abort (Section 3.2). Returns false if
    /// the block is not writable.
    pub fn store_to_l1(
        &mut self,
        addr: Addr,
        value: u64,
        epoch: Option<u8>,
        counters: &mut SimCounters,
    ) -> bool {
        let block = self.block_of(addr);
        if !self.l1.lookup(block).writable() {
            return false;
        }
        if epoch.is_some() {
            self.clean_before_spec_write(block, counters);
        }
        let word = addr.word_in_block(self.block_bytes).index();
        let ok = self.l1.write_word(block, word, value);
        if let (true, Some(e)) = (ok, epoch) {
            self.l1.mark_spec_written(block, e as usize);
        }
        ok
    }

    /// The cleaning-writeback rule (Section 3.2), applied before every
    /// speculative write into the L1: a Modified `block` not yet
    /// speculatively written in epoch 0 or 1 is written back and stays
    /// resident as Exclusive, so the L2 keeps its pre-speculative value.
    fn clean_before_spec_write(&mut self, block: BlockAddr, counters: &mut SimCounters) {
        if !self.l1.is_spec_written(block, 0)
            && !self.l1.is_spec_written(block, 1)
            && self.l1.clean_writeback(block).is_some()
        {
            counters.writebacks += 1;
        }
    }

    /// Drains up to `max` store-buffer entries whose blocks are writable in
    /// the L1, asking `can_drain` whether an entry of the given epoch may
    /// drain (used by multi-checkpoint policies). Entries whose blocks are not
    /// yet writable get a write request issued. Returns the number of entries
    /// drained.
    ///
    /// An entry whose block is absent from the L1 and its victim cache while
    /// the block's miss is outstanding is parked ([`L1Cache::park`]): a visit
    /// would touch no LRU stamp, promote nothing and send no request, and
    /// only the block's fill can change that. The drain skips parked entries,
    /// and once every candidate is parked it returns at once until the store
    /// buffer changes or a fill unparks a block.
    pub fn drain_store_buffer<F>(
        &mut self,
        max: usize,
        now: Cycle,
        counters: &mut SimCounters,
        can_drain: F,
    ) -> usize
    where
        F: Fn(Option<u8>) -> bool,
    {
        let unparked = self.l1.take_unparked();
        let idle = self.sb.drain_stalled() && !unparked;
        #[cfg(debug_assertions)]
        self.assert_parked_entries_wait(idle);
        if idle {
            return 0;
        }
        let mut drained = 0;
        let mut attempts = 0;
        let mut stalled = false;
        let mut candidates = std::mem::take(&mut self.drain_scratch);
        while drained < max {
            attempts += 1;
            if attempts > 64 {
                break;
            }
            self.sb.drain_candidates_into(&mut candidates);
            if candidates.is_empty() {
                break;
            }
            let mut progressed = false;
            let mut all_parked = true;
            for &(block, epoch) in &candidates {
                if self.l1.is_parked(block) {
                    continue;
                }
                if !can_drain(epoch) {
                    all_parked = false;
                    continue;
                }
                let state = self.l1.lookup(block);
                if state.writable() {
                    let entry = self.sb.drain_block(block).expect("a drain candidate has an entry");
                    if entry.epoch.is_some() {
                        self.clean_before_spec_write(block, counters);
                    }
                    let ok = self.l1.merge_store(block, &entry.data, entry.word_mask);
                    debug_assert!(ok, "writable block must accept the drained store");
                    // Epochs 0 and 1 are the cache's physical speculative-bit
                    // sets, used by every speculative engine (ASO's first two
                    // checkpoints included); the checkpoint ledger clears a
                    // slot's bits when it commits or aborts. ASO's larger
                    // slots have no bits: its read and write sets track them.
                    if let Some(e) = entry.epoch {
                        if (e as usize) < 2 {
                            self.l1.mark_spec_written(block, e as usize);
                        }
                    }
                    counters.sb_drains += 1;
                    drained += 1;
                    progressed = true;
                    break;
                }
                let outstanding = self.mshrs.contains(block)
                    || (!self.mshrs.is_full()
                        && self.ensure_write_miss(block, None, false, now, counters));
                if outstanding && state == LineState::Invalid {
                    self.l1.park(block);
                } else {
                    all_parked = false;
                }
            }
            if !progressed {
                stalled = all_parked;
                break;
            }
        }
        self.drain_scratch = candidates;
        self.sb.set_drain_stalled(stalled);
        drained
    }

    /// Checks what makes skipping parked entries exact: a parked block is
    /// absent from the L1 and its victim cache with its miss outstanding, and
    /// an idle drain has only parked candidates.
    #[cfg(debug_assertions)]
    fn assert_parked_entries_wait(&mut self, idle: bool) {
        for &block in self.l1.parked() {
            assert_eq!(
                self.l1.peek(block),
                LineState::Invalid,
                "core{}: parked {block} is present in the L1",
                self.id.index()
            );
            assert!(
                self.mshrs.contains(block),
                "core{}: parked {block} has no miss outstanding",
                self.id.index()
            );
        }
        if idle {
            let mut candidates = std::mem::take(&mut self.drain_scratch);
            self.sb.drain_candidates_into(&mut candidates);
            for &(block, _) in &candidates {
                assert!(
                    self.l1.is_parked(block),
                    "core{}: the drain idles with {block} unparked",
                    self.id.index()
                );
            }
            self.drain_scratch = candidates;
        }
    }

    /// Handles a data fill from the coherence fabric: installs the line at
    /// `slot` (from [`L1Cache::fill_slot`]), completes the MSHR, and (if a buffered store needed write
    /// permission but only read permission was granted) issues an upgrade.
    /// The MSHR's waiters replace the contents of `waiters`. Returns true if
    /// an upgrade was issued.
    pub fn fill(
        &mut self,
        slot: FillSlot,
        state: LineState,
        data: ifence_mem::BlockData,
        now: Cycle,
        counters: &mut SimCounters,
        waiters: &mut Vec<u64>,
    ) -> bool {
        let block = slot.block();
        self.l1.fill_at(slot, state, data);
        match self.mshrs.complete(block, waiters) {
            // The in-flight request was a GetS but a store now needs
            // ownership: upgrade.
            Some(true) if !state.writable() => {
                self.ensure_write_miss(block, None, false, now, counters)
            }
            _ => false,
        }
    }

    /// Applies an external invalidation to the L1, returning the dirty data if
    /// this core held the block Modified.
    pub fn apply_invalidate(&mut self, block: BlockAddr) -> Option<ifence_mem::BlockData> {
        self.l1.external_invalidate(block)
    }

    /// Applies an external downgrade to the L1, returning the dirty data if
    /// this core held the block Modified.
    pub fn apply_downgrade(&mut self, block: BlockAddr) -> Option<ifence_mem::BlockData> {
        self.l1.external_downgrade(block)
    }

    /// Reads the architectural value of `addr` as seen by this core: the
    /// youngest store-buffer entry for the word, else the L1 copy, if present.
    pub fn read_value(&mut self, addr: Addr) -> Option<u64> {
        if let Some(v) = self.sb.forward(addr) {
            return Some(v);
        }
        let block = self.block_of(addr);
        self.l1.load_word(block, addr.word_in_block(self.block_bytes).index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifence_mem::{BlockData, LineState};
    use ifence_types::{ConsistencyModel, EngineKind};

    fn mem() -> (CoreMem, SimCounters) {
        mem_for(ConsistencyModel::Rmo)
    }

    fn mem_for(model: ConsistencyModel) -> (CoreMem, SimCounters) {
        let cfg = MachineConfig::small_test(EngineKind::Conventional(model));
        (CoreMem::new(CoreId(0), &cfg), SimCounters::new())
    }

    /// Delivers a fill, returning its waiters and whether it issued an upgrade.
    fn fill(
        m: &mut CoreMem,
        block: BlockAddr,
        state: LineState,
        data: BlockData,
        now: Cycle,
        c: &mut SimCounters,
    ) -> (Vec<u64>, bool) {
        let mut waiters = vec![u64::MAX];
        let upgrade = m.fill(m.l1.fill_slot(block), state, data, now, c, &mut waiters);
        (waiters, upgrade)
    }

    /// Drains with an open gate, returning how many entries drained and how
    /// many entries the drain asked the gate about (parked ones are skipped
    /// before the gate).
    fn drain_counting_visits(m: &mut CoreMem, c: &mut SimCounters) -> (usize, usize) {
        let visits = std::cell::Cell::new(0);
        let drained = m.drain_store_buffer(4, 1, c, |_| {
            visits.set(visits.get() + 1);
            true
        });
        (drained, visits.get())
    }

    fn blk(byte: u64) -> BlockAddr {
        BlockAddr::containing(Addr::new(byte), 64)
    }

    #[test]
    fn read_miss_allocates_mshr_and_issues_gets() {
        let (mut m, mut c) = mem();
        assert!(m.ensure_read_miss(blk(0x1000), 7, 0, &mut c));
        assert!(m.miss_outstanding(blk(0x1000)));
        let reqs: Vec<_> = m.drain_requests().collect();
        assert_eq!(reqs.len(), 1);
        assert_eq!(reqs[0].kind, CoherenceReqKind::GetS);
        assert_eq!(c.coherence_requests, 1);
        // A second waiter merges without a new request.
        assert!(m.ensure_read_miss(blk(0x1000), 8, 0, &mut c));
        assert_eq!(m.drain_requests().count(), 0);
        assert_eq!(m.mshrs.get(blk(0x1000)).unwrap().waiters, vec![7, 8]);
    }

    #[test]
    fn fill_completes_waiters_and_installs_line() {
        let (mut m, mut c) = mem();
        m.ensure_read_miss(blk(0x2000), 3, 0, &mut c);
        let (waiters, upgrade) =
            fill(&mut m, blk(0x2000), LineState::Shared, BlockData::from_words([5; 8]), 10, &mut c);
        assert_eq!(waiters, vec![3]);
        assert!(!upgrade);
        assert!(m.readable(blk(0x2000)));
        assert_eq!(m.read_value(Addr::new(0x2000)), Some(5));
    }

    #[test]
    fn fill_issues_upgrade_when_write_needed_but_shared_granted() {
        let (mut m, mut c) = mem();
        m.ensure_read_miss(blk(0x2000), 3, 0, &mut c);
        // A store now also needs the block.
        m.ensure_write_miss(blk(0x2000), Some(4), false, 1, &mut c);
        let _ = m.drain_requests();
        let (waiters, upgrade) =
            fill(&mut m, blk(0x2000), LineState::Shared, BlockData::zeroed(), 10, &mut c);
        assert!(upgrade);
        assert_eq!(waiters, vec![3, 4]);
        let reqs: Vec<_> = m.drain_requests().collect();
        assert!(reqs.iter().any(|r| r.kind == CoherenceReqKind::GetM));
    }

    #[test]
    fn store_to_sb_requests_ownership() {
        let (mut m, _) = mem();
        let mut s = CoreStats::new();
        m.store_to_sb(Addr::new(0x3000), 9, None, 0, &mut s).unwrap();
        assert_eq!(s.counters.sb_inserts, 1);
        assert_eq!(s.hists.sb_occupancy.count(), 1, "occupancy sampled per insert");
        assert!(!m.sb_empty());
        let reqs: Vec<_> = m.drain_requests().collect();
        assert!(reqs.iter().any(|r| r.kind == CoherenceReqKind::GetM));
    }

    #[test]
    fn drain_waits_for_write_permission() {
        let (mut m, mut c) = mem();
        let mut s = CoreStats::new();
        m.store_to_sb(Addr::new(0x3000), 9, None, 0, &mut s).unwrap();
        assert_eq!(m.drain_store_buffer(4, 1, &mut c, |_| true), 0, "no permission yet");
        fill(&mut m, blk(0x3000), LineState::Exclusive, BlockData::zeroed(), 5, &mut c);
        assert_eq!(m.drain_store_buffer(4, 6, &mut c, |_| true), 1);
        assert!(m.sb_empty());
        assert_eq!(m.read_value(Addr::new(0x3000)), Some(9));
        assert_eq!(c.sb_drains, 1);
    }

    #[test]
    fn drain_respects_epoch_gate() {
        let (mut m, mut c) = mem();
        fill(&mut m, blk(0x3000), LineState::Exclusive, BlockData::zeroed(), 0, &mut c);
        let mut s = CoreStats::new();
        m.store_to_sb(Addr::new(0x3000), 9, Some(1), 0, &mut s).unwrap();
        assert_eq!(m.drain_store_buffer(4, 1, &mut c, |e| e.is_none()), 0, "gate blocks epoch 1");
        assert_eq!(m.drain_store_buffer(4, 1, &mut c, |_| true), 1);
        assert!(m.l1.is_spec_written(blk(0x3000), 1), "drained spec store marks the written bit");
    }

    #[test]
    fn speculative_store_to_dirty_block_cleans_first() {
        let (mut m, mut c) = mem();
        fill(&mut m, blk(0x4000), LineState::Modified, BlockData::from_words([1; 8]), 0, &mut c);
        assert!(m.store_to_l1(Addr::new(0x4000), 42, Some(0), &mut c));
        assert!(m.l1.is_spec_written(blk(0x4000), 0));
        // The cleaning writeback carries the pre-speculative value (1), not 42.
        let reqs: Vec<_> = m.drain_requests().collect();
        let wb = reqs
            .iter()
            .find_map(|r| match r.kind {
                CoherenceReqKind::WritebackDirty(d) => Some(d),
                _ => None,
            })
            .expect("cleaning writeback issued");
        assert_eq!(wb.word(0), 1);
        assert_eq!(m.read_value(Addr::new(0x4000)), Some(42));
    }

    #[test]
    fn non_speculative_store_hit_does_not_clean() {
        let (mut m, mut c) = mem();
        fill(&mut m, blk(0x4000), LineState::Modified, BlockData::from_words([1; 8]), 0, &mut c);
        assert!(m.store_to_l1(Addr::new(0x4000), 42, None, &mut c));
        assert_eq!(m.drain_requests().count(), 0);
    }

    #[test]
    fn store_prefetch_respects_configuration() {
        let cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Rmo));
        let mut no_prefetch_cfg = cfg.clone();
        no_prefetch_cfg.core.store_prefetch = false;
        let mut with = CoreMem::new(CoreId(0), &cfg);
        let mut without = CoreMem::new(CoreId(0), &no_prefetch_cfg);
        let mut c = SimCounters::new();
        with.store_prefetch(blk(0x5000), 0, &mut c);
        without.store_prefetch(blk(0x5000), 0, &mut c);
        assert_eq!(c.store_prefetches, 1);
        assert_eq!(with.drain_requests().count(), 1);
        assert_eq!(without.drain_requests().count(), 0);
    }

    #[test]
    fn forwarding_prefers_store_buffer() {
        let (mut m, mut c) = mem();
        fill(&mut m, blk(0x6000), LineState::Exclusive, BlockData::from_words([7; 8]), 0, &mut c);
        let mut s = CoreStats::new();
        m.store_to_sb(Addr::new(0x6000), 99, None, 0, &mut s).unwrap();
        assert_eq!(m.read_value(Addr::new(0x6000)), Some(99));
        assert_eq!(m.read_value(Addr::new(0x6008)), Some(7));
        assert_eq!(m.read_value(Addr::new(0x7000)), None);
    }

    #[test]
    fn fill_without_a_miss_outstanding_has_no_waiters() {
        let (mut m, mut c) = mem();
        let (waiters, upgrade) =
            fill(&mut m, blk(0x2000), LineState::Shared, BlockData::zeroed(), 0, &mut c);
        assert!(waiters.is_empty() && !upgrade);
    }

    #[test]
    fn parked_entry_is_skipped_until_its_own_fill() {
        let (mut m, mut c) = mem();
        let mut s = CoreStats::new();
        m.store_to_sb(Addr::new(0x3000), 1, None, 0, &mut s).unwrap();
        m.store_to_sb(Addr::new(0x3040), 2, None, 0, &mut s).unwrap();
        let requests = m.drain_requests().count();
        assert_eq!(requests, 2, "one GetM per block");
        // The first drain visits both entries and parks them: absent, miss
        // outstanding.
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 2));
        assert!(m.l1.is_parked(blk(0x3000)) && m.l1.is_parked(blk(0x3040)));
        assert!(m.sb.drain_stalled());
        // From then on the drain visits nothing and sends nothing.
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 0));
        assert_eq!(m.drain_requests().count(), 0);
        // Another block's fill unparks nothing.
        fill(&mut m, blk(0x5000), LineState::Exclusive, BlockData::zeroed(), 2, &mut c);
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 0));
        assert!(m.l1.is_parked(blk(0x3000)) && m.l1.is_parked(blk(0x3040)));
        // The first block's fill unparks exactly that block, which drains.
        fill(&mut m, blk(0x3000), LineState::Exclusive, BlockData::zeroed(), 3, &mut c);
        assert!(!m.l1.is_parked(blk(0x3000)) && m.l1.is_parked(blk(0x3040)));
        assert_eq!(drain_counting_visits(&mut m, &mut c), (1, 1));
        assert_eq!(m.read_value(Addr::new(0x3000)), Some(1));
        assert_eq!(m.sb.len(), 1);
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 0), "the rest is parked");
        // A fill straight into the L1, with the miss still outstanding, also
        // unparks its block.
        m.l1.fill(blk(0x3040), LineState::Exclusive, BlockData::zeroed());
        assert!(m.l1.parked().is_empty());
        assert_eq!(drain_counting_visits(&mut m, &mut c), (1, 1));
        assert!(m.sb_empty());
    }

    #[test]
    fn shared_block_with_upgrade_in_flight_is_never_parked() {
        let cfg = MachineConfig::small_test(EngineKind::Conventional(ConsistencyModel::Rmo));
        let (mut m, mut c) = mem();
        let set_stride = (cfg.l1.sets() * cfg.l1.block_bytes) as u64;
        let block_in_set = |way: u64| blk(0x10000 + way * set_stride);
        // Fill one set, oldest first, so the shared block is its LRU way.
        let shared = block_in_set(0);
        for way in 0..cfg.l1.associativity as u64 {
            fill(&mut m, block_in_set(way), LineState::Shared, BlockData::zeroed(), 0, &mut c);
        }
        let mut s = CoreStats::new();
        m.store_to_sb(shared.byte_addr(), 1, None, 1, &mut s).unwrap();
        assert!(m.miss_outstanding(shared), "an upgrade is in flight");
        for _ in 0..3 {
            assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 1), "visited every drain");
            assert!(!m.l1.is_parked(shared) && !m.sb.drain_stalled());
        }
        // Each visit touched the block, so a new fill to the set displaces
        // the next-oldest way instead.
        let newcomer = block_in_set(cfg.l1.associativity as u64);
        fill(&mut m, newcomer, LineState::Shared, BlockData::zeroed(), 2, &mut c);
        assert!(m.l1.contains(shared), "the drain's LRU touch kept the block resident");
        assert!(!m.l1.contains(block_in_set(1)));
    }

    #[test]
    fn fifo_head_parks() {
        let (mut m, mut c) = mem_for(ConsistencyModel::Sc);
        assert_eq!(m.sb.kind(), ifence_types::StoreBufferKind::FifoWord);
        let mut s = CoreStats::new();
        m.store_to_sb(Addr::new(0x3000), 1, None, 0, &mut s).unwrap();
        m.store_to_sb(Addr::new(0x3040), 2, None, 0, &mut s).unwrap();
        // Only the head is a candidate: it parks, and the drain stalls.
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 1));
        assert!(m.l1.is_parked(blk(0x3000)) && !m.l1.is_parked(blk(0x3040)));
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 0));
        // Its fill drains the head; the new head parks behind its own miss.
        fill(&mut m, blk(0x3000), LineState::Exclusive, BlockData::zeroed(), 2, &mut c);
        assert_eq!(drain_counting_visits(&mut m, &mut c), (1, 2));
        assert!(m.l1.is_parked(blk(0x3040)));
        assert!(m.sb.drain_stalled());
    }

    #[test]
    fn flash_invalidation_keeps_surviving_entries_parked() {
        let (mut m, mut c) = mem();
        let mut s = CoreStats::new();
        m.store_to_sb(Addr::new(0x3000), 1, None, 0, &mut s).unwrap();
        m.store_to_sb(Addr::new(0x3040), 2, Some(0), 0, &mut s).unwrap();
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 2));
        assert_eq!(m.sb.flash_invalidate_exact(0), 1);
        assert_eq!(m.sb.epoch_len(None), 1);
        assert!(!m.sb.drain_stalled(), "a change to the buffer clears the stall");
        // The surviving entry is still parked, so the drain visits nothing.
        assert!(m.l1.is_parked(blk(0x3000)));
        assert_eq!(drain_counting_visits(&mut m, &mut c), (0, 0));
        assert!(m.sb.drain_stalled());
        fill(&mut m, blk(0x3000), LineState::Exclusive, BlockData::zeroed(), 2, &mut c);
        assert_eq!(drain_counting_visits(&mut m, &mut c), (1, 1));
        assert!(m.sb_empty());
    }
}
