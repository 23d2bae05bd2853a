//! Property-style tests on the core data structures and their invariants.
//!
//! Each property is checked over many randomized cases driven by the
//! workspace's own deterministic [`TraceRng`] (the workspace builds offline,
//! without proptest), so failures reproduce exactly from the printed case
//! seed.

use ifence_coherence::EventQueue;
use ifence_cpu::Rob;
use ifence_mem::{
    BankedL2, BlockData, EvictionAction, L1Cache, L2FillOutcome, L2Handle, LineState, MshrError,
    MshrFile, StoreBuffer, VictimCache,
};
use ifence_types::{
    Addr, BlockAddr, CacheConfig, Instruction, InterconnectConfig, L2Config, StoreBufferKind,
};
use ifence_workloads::TraceRng;
use std::collections::{HashMap, VecDeque};

const CASES: u64 = 64;

fn block(byte: u64) -> BlockAddr {
    BlockAddr::containing(Addr::new(byte), 64)
}

fn random_vec(rng: &mut TraceRng, max_len: usize, bound: u64) -> Vec<u64> {
    let len = rng.range_usize(0..max_len + 1);
    (0..len).map(|_| rng.range_u64(0..bound)).collect()
}

/// An L1 of `lines` lines (2 ways per set, no victim cache) holding blocks
/// `0..lines`, so that line `i` of a mark test is block `i`.
fn marked_cache(lines: u64) -> L1Cache {
    let mut cache = L1Cache::new(&CacheConfig {
        size_bytes: lines as usize * 64,
        associativity: 2,
        block_bytes: 64,
        hit_latency: 2,
        mshrs: 4,
        victim_entries: 0,
    });
    for i in 0..lines {
        cache.fill(block(i * 64), LineState::Exclusive, BlockData::zeroed());
    }
    assert_eq!(cache.valid_lines(), lines as usize);
    cache
}

/// Clears every mark of block `i` individually: it leaves the cache and
/// comes back into the way it left (the only invalid way of its set).
fn clear_marks(cache: &mut L1Cache, i: u64) {
    cache.external_invalidate(block(i * 64));
    cache.fill(block(i * 64), LineState::Exclusive, BlockData::zeroed());
}

/// Flash clear always leaves every mark clear, no matter the set/clear
/// history of the four marks (read and written, epochs 0 and 1).
#[test]
fn spec_bits_flash_clear_resets_everything() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(case);
        let ops = random_vec(&mut rng, 200, 256);
        let mut cache = marked_cache(256);
        for (i, op) in ops.iter().enumerate() {
            let (b, epoch) = (block(op * 64), i % 2);
            match i % 7 {
                3 => clear_marks(&mut cache, *op),
                0 | 4 => assert!(cache.mark_spec_written(b, epoch)),
                _ => assert!(cache.mark_spec_read(b, epoch)),
            }
        }
        cache.flash_clear_epoch(0);
        cache.flash_clear_epoch(1);
        assert!(!cache.has_spec_lines(), "case {case}");
        assert_eq!(cache.spec_line_count(0) + cache.spec_line_count(1), 0, "case {case}");
        assert!((0..256).all(|i| !cache.is_spec_any(block(i * 64))), "case {case}");
    }
}

/// The per-mark logs never report a line whose mark is clear:
/// `spec_line_count` matches a brute-force count over the tags, and the
/// abort invalidates exactly the written lines, in the order they were
/// first written since the last flash clear (individual clears keep a
/// line's place).
#[test]
fn spec_bits_log_is_consistent() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0x1000 + case);
        let sets = random_vec(&mut rng, 100, 64);
        let clears = random_vec(&mut rng, 100, 64);
        let mut cache = marked_cache(64);
        let mut first_written: Vec<u64> = Vec::new();
        for (k, s) in sets.iter().enumerate() {
            if k % 2 == 0 {
                cache.mark_spec_written(block(s * 64), 0);
                if !first_written.contains(s) {
                    first_written.push(*s);
                }
            } else {
                cache.mark_spec_read(block(s * 64), 0);
            }
            if let Some(c) = clears.get(k).filter(|_| k % 3 == 0) {
                clear_marks(&mut cache, *c);
            }
        }
        for c in &clears {
            if rng.bool(0.3) {
                clear_marks(&mut cache, *c);
            }
        }
        let marked = |i: u64| {
            let b = block(i * 64);
            cache.is_spec_read(b, 0) || cache.is_spec_written(b, 0)
        };
        let brute = (0..64).filter(|&i| marked(i)).count();
        assert_eq!(cache.spec_line_count(0), brute, "case {case}");
        assert_eq!(cache.has_spec_lines(), brute > 0, "case {case}");
        let expected: Vec<BlockAddr> = first_written
            .iter()
            .filter(|&&i| cache.is_spec_written(block(i * 64), 0))
            .map(|&i| block(i * 64))
            .collect();
        assert_eq!(cache.flash_invalidate_written(0), expected, "case {case}");
        assert!(!cache.has_spec_lines(), "case {case}");
    }
}

/// A coalescing store buffer never exceeds its capacity, never merges across
/// the speculative/non-speculative boundary, and forwarding always returns
/// the youngest value written to a word.
#[test]
fn coalescing_store_buffer_invariants() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0x2000 + case);
        let n = rng.range_usize(1..64);
        let capacity = 8;
        let mut sb = StoreBuffer::new(StoreBufferKind::CoalescingBlock, capacity, 64);
        // Forwarding is defined to prefer the highest-epoch entry for a word
        // (speculative entries are younger than non-speculative ones in real
        // executions); model exactly that rule here.
        let mut per_epoch: std::collections::HashMap<(u64, u64, i16), u64> =
            std::collections::HashMap::new();
        for _ in 0..n {
            let blk_idx = rng.range_u64(0..32);
            let word = rng.range_u64(0..8);
            let value = rng.next_u64();
            let epoch = if rng.bool(0.5) { Some(rng.range_u64(0..2) as u8) } else { None };
            let addr = Addr::new(blk_idx * 64 + word * 8);
            if sb.push(addr, value, epoch).is_ok() {
                let key = (blk_idx, word, epoch.map(|e| e as i16).unwrap_or(-1));
                per_epoch.insert(key, value);
                assert!(sb.len() <= capacity, "case {case}");
            }
            let expected = (-1..2).rev().find_map(|e| per_epoch.get(&(blk_idx, word, e)).copied());
            if let Some(expected) = expected {
                assert_eq!(sb.forward(addr), Some(expected), "case {case}");
            }
        }
        // Epoch-exact invalidation removes exactly the tagged entries.
        let (nonspec, spec) = (sb.epoch_len(None), sb.epoch_len(Some(0)) + sb.epoch_len(Some(1)));
        let removed = sb.flash_invalidate_exact(0) + sb.flash_invalidate_exact(1);
        assert_eq!(removed, spec, "case {case}");
        assert_eq!(sb.len(), nonspec, "case {case}: only the non-speculative entries remain");
    }
}

/// A FIFO store buffer drains blocks in insertion order.
#[test]
fn fifo_store_buffer_preserves_order() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0x3000 + case);
        let len = rng.range_usize(1..32);
        let blocks: Vec<u64> = (0..len).map(|_| rng.range_u64(0..16)).collect();
        let mut sb = StoreBuffer::new(StoreBufferKind::FifoWord, 64, 64);
        for (i, b) in blocks.iter().enumerate() {
            sb.push(Addr::new(b * 64), i as u64, None).unwrap();
        }
        let mut drained = Vec::new();
        let mut candidates = Vec::new();
        loop {
            sb.drain_candidates_into(&mut candidates);
            let Some(&(blk, _)) = candidates.first() else { break };
            let entry = sb.drain_block(blk).unwrap();
            drained.push(entry.block.number());
        }
        assert!(sb.is_empty(), "case {case}");
        // The sequence of drained blocks is the insertion sequence with
        // consecutive duplicates collapsed: collapsing only merges *adjacent*
        // same-block runs, so the drained list cannot be longer than the
        // insertion list and must preserve relative order of first
        // occurrences.
        let mut expected = Vec::new();
        for b in &blocks {
            if expected.last() != Some(b) {
                expected.push(*b);
            }
        }
        assert_eq!(drained, expected, "case {case}");
    }
}

/// The cache never holds two lines for the same block, and its valid-line
/// count never exceeds its capacity.
#[test]
fn cache_uniqueness_and_capacity() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0x4000 + case);
        let n = rng.range_usize(1..300);
        let cfg = CacheConfig {
            size_bytes: 2 * 1024,
            associativity: 2,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 4,
            victim_entries: 0,
        };
        let capacity = cfg.blocks();
        let mut cache = L1Cache::new(&cfg);
        for _ in 0..n {
            let b = block(rng.range_u64(0..128) * 64);
            cache.fill(b, LineState::Shared, BlockData::zeroed());
            assert!(cache.valid_lines() <= capacity, "case {case}");
            assert!(cache.contains(b), "case {case}: a just-filled block is resident");
        }
        let mut seen = std::collections::HashSet::new();
        for (blk, _) in cache.iter_valid() {
            assert!(seen.insert(blk.number()), "case {case}: duplicate resident block");
        }
    }
}

/// The event queue pops in exactly the order a binary-heap oracle over
/// `(time, seq)` does — cycle-major, schedule-order-minor — under random
/// bursts of near-future, duplicate-cycle, at-or-before-now and far-future
/// schedules interleaved with random time advances, and `next_due` is always
/// the oracle's exact minimum.
#[test]
fn event_queue_matches_a_binary_heap_oracle() {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0x9000 + case);
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut oracle: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut now = 0u64;
        for step in 0..300 {
            let burst = rng.range_usize(0..5);
            for _ in 0..burst {
                let time = match rng.range_u64(0..10) {
                    // Due immediately (the fabric's zero-hop fills).
                    0 => now,
                    // Directory and hop latencies.
                    1..=6 => now + rng.range_u64(0..200),
                    7 | 8 => now + rng.range_u64(0..5_000),
                    // Far future.
                    _ => now + rng.range_u64(0..400_000),
                };
                queue.schedule(time, seq);
                oracle.push(Reverse((time, seq)));
                seq += 1;
            }
            assert_eq!(queue.len(), oracle.len(), "case {case} step {step}");
            assert_eq!(
                queue.next_due(),
                oracle.peek().map(|Reverse((t, _))| *t),
                "case {case} step {step}: next_due must be exact"
            );
            now += rng.range_u64(0..300);
            if rng.bool(0.1) {
                // Occasionally jump far, draining many cycles' events in one
                // advance.
                now += rng.range_u64(0..100_000);
            }
            while let Some((time, value)) = queue.pop_due(now) {
                assert!(time <= now, "case {case} step {step}: popped a future event");
                let Reverse(expected) = oracle.pop().expect("oracle has the event");
                assert_eq!((time, value), expected, "case {case} step {step}: pop order");
            }
            let stale = oracle.peek().is_some_and(|Reverse((t, _))| *t <= now);
            assert!(!stale, "case {case} step {step}: queue left a due event unpopped");
        }
        // Drain the tails so the full order is compared, not just the prefix.
        now = now.saturating_add(500_000);
        while let Some((time, value)) = queue.pop_due(now) {
            let Reverse(expected) = oracle.pop().expect("oracle has the event");
            assert_eq!((time, value), expected, "case {case}: tail pop order");
        }
        assert!(oracle.is_empty() && queue.is_empty(), "case {case}: both drained");
    }
}

/// The precomputed routing table equals the arithmetic torus routing for
/// every (from, to) pair on every width×height up to 16×16 — including the
/// wrap-around columns and rows, where the shortest path crosses the torus
/// seam.
#[test]
fn routing_table_matches_arithmetic_routing_up_to_16x16() {
    let mut ic = InterconnectConfig::paper_torus();
    ic.hop_latency = 7; // an odd latency, so hops*latency exposes any mixup
    for width in 1..=16usize {
        for height in 1..=16usize {
            ic.mesh_width = width;
            ic.mesh_height = height;
            let table = ic.routing_table();
            assert_eq!(table.nodes(), width * height);
            for from in 0..table.nodes() {
                for to in 0..table.nodes() {
                    assert_eq!(
                        table.hops(from, to),
                        ic.hops(from, to),
                        "{width}x{height} hops {from}->{to}"
                    );
                    assert_eq!(
                        table.latency(from, to),
                        ic.latency(from, to),
                        "{width}x{height} latency {from}->{to}"
                    );
                }
            }
            // Wrap-around spot checks: torus neighbours across the seam are
            // one hop apart.
            if width > 1 {
                assert_eq!(table.hops(0, width - 1), 1, "{width}x{height} row wrap");
            }
            if height > 1 {
                assert_eq!(table.hops(0, (height - 1) * width), 1, "{width}x{height} column wrap");
            }
        }
    }
}

/// Flash-invalidating speculatively-written lines removes exactly those lines
/// and clears every speculative mark.
#[test]
fn cache_abort_invalidates_only_written_lines() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0x5000 + case);
        let reads = random_vec(&mut rng, 20, 32);
        let writes = random_vec(&mut rng, 20, 32);
        let cfg = CacheConfig {
            size_bytes: 4 * 1024,
            associativity: 4,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 4,
            victim_entries: 0,
        };
        let mut cache = L1Cache::new(&cfg);
        for r in &reads {
            let b = block(r * 64);
            cache.fill(b, LineState::Shared, BlockData::zeroed());
            cache.mark_spec_read(b, 0);
        }
        for w in &writes {
            let b = block(w * 64);
            cache.fill(b, LineState::Modified, BlockData::zeroed());
            cache.mark_spec_written(b, 0);
        }
        let invalidated = cache.flash_invalidate_written(0);
        for b in &invalidated {
            assert_eq!(cache.peek(*b), LineState::Invalid, "case {case}");
        }
        assert!(!cache.has_spec_lines(), "case {case}");
        // Read-only speculative blocks survive the abort (they are simply
        // unmarked), unless the same block was also written.
        for r in &reads {
            if !writes.contains(r) {
                assert!(cache.peek(block(r * 64)).readable(), "case {case}");
            }
        }
    }
}

/// One resident line of the naive L2 model.
#[derive(Debug, Clone, Copy)]
struct ModelL2Line {
    /// The handle the fill returned: it must not change until the line
    /// leaves.
    line: L2Handle,
    slot: usize,
    lru: u64,
    busy: bool,
    dirty: bool,
    holders: usize,
    word: u64,
}

/// The banked L2's slot function, written out plainly: bank by block
/// number, then a golden-ratio hashed set within the bank.
fn model_l2_slot(banks: usize, sets_per_bank: usize, block: u64) -> usize {
    let spread = (block / banks as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
    (block as usize % banks) * sets_per_bank + spread as usize % sets_per_bank
}

/// The finite banked L2 behaves exactly like a naive map-plus-LRU model
/// under random fill / touch / remove / busy-pin / holder sequences: the
/// same resident lines and payloads, the same victim on every fill, the same
/// `NeedsRecall` and `Blocked` refusals. Every access goes through the
/// handle API, and a resident block's handle — the one its fill returned —
/// never changes until the block leaves; a fill that evicts takes its
/// victim's way. Geometries include non-power-of-two bank and set counts,
/// so the divide fallback of the set index is covered along with the
/// shift-and-mask path.
#[test]
fn banked_l2_matches_a_naive_lru_model() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0xa000 + case);
        let banks = [1, 2, 3, 4, 16][rng.range_usize(0..5)];
        let sets_per_bank = [1, 2, 3, 4, 8][rng.range_usize(0..5)];
        let ways = rng.range_usize(1..5);
        let cfg = L2Config {
            size_bytes: banks * sets_per_bank * ways * 64,
            associativity: ways,
            hit_latency: 5,
        };
        let mut l2: BankedL2<usize> = BankedL2::new(&cfg, banks, 64);
        assert!(!l2.unbounded(), "case {case}");
        let mut model: HashMap<u64, ModelL2Line> = HashMap::new();
        let mut stamp = 0u64;
        let universe = (banks * sets_per_bank * ways * 3) as u64;
        for step in 0..400 {
            let block = rng.range_u64(0..universe);
            match rng.range_u64(0..10) {
                0..=3 => {
                    if model.contains_key(&block) {
                        continue;
                    }
                    let word = rng.next_u64();
                    let holders = rng.range_usize(0..3);
                    let outcome =
                        l2.fill(block, BlockData::from_words([word; 8]), holders, |h| *h == 0);
                    stamp += 1;
                    let slot = model_l2_slot(banks, sets_per_bank, block);
                    let set: Vec<(u64, ModelL2Line)> = model
                        .iter()
                        .filter(|(_, l)| l.slot == slot)
                        .map(|(&b, &l)| (b, l))
                        .collect();
                    let new_line = |line| ModelL2Line {
                        line,
                        slot,
                        lru: stamp,
                        busy: false,
                        dirty: false,
                        holders,
                        word,
                    };
                    let expected_victim = if set.len() < ways {
                        None
                    } else {
                        Some(*set.iter().min_by_key(|(_, l)| l.lru).unwrap())
                    };
                    match (outcome, expected_victim) {
                        (L2FillOutcome::Installed { line, evicted: None }, None) => {
                            model.insert(block, new_line(line));
                        }
                        (L2FillOutcome::Installed { line, evicted: Some(ev) }, Some((vb, vl)))
                            if !vl.busy && vl.holders == 0 =>
                        {
                            assert_eq!(ev.block, vb, "case {case} step {step}: victim");
                            assert_eq!(ev.dirty, vl.dirty, "case {case} step {step}");
                            assert_eq!(ev.data.word(0), vl.word, "case {case} step {step}");
                            assert_eq!(line, vl.line, "case {case} step {step}: victim's way");
                            model.remove(&vb);
                            model.insert(block, new_line(line));
                        }
                        (L2FillOutcome::Blocked, Some((_, vl))) if vl.busy => {}
                        (L2FillOutcome::NeedsRecall { victim, line }, Some((vb, vl)))
                            if !vl.busy && vl.holders > 0 =>
                        {
                            assert_eq!(victim, vb, "case {case} step {step}: recall victim");
                            assert_eq!(line, vl.line, "case {case} step {step}: victim's way");
                        }
                        (outcome, expected) => panic!(
                            "case {case} step {step}: fill of {block} gave {outcome:?}, \
                             model expected victim {expected:?}"
                        ),
                    }
                }
                4 | 5 => {
                    // A pinned line answers `Err` and keeps its LRU
                    // position; an unpinned one becomes MRU.
                    let touched = l2.touch_unpinned(block);
                    let expected =
                        model.get(&block).map(|l| if l.busy { Err(l.line) } else { Ok(l.line) });
                    assert_eq!(touched, expected, "case {case} step {step}");
                    if let Some(l) = model.get_mut(&block).filter(|l| !l.busy) {
                        stamp += 1;
                        l.lru = stamp;
                    }
                }
                6 => {
                    let expected = model.remove(&block);
                    let line = l2.probe(block);
                    assert_eq!(line, expected.map(|e| e.line), "case {case} step {step}");
                    if let (Some(line), Some(e)) = (line, expected) {
                        let r = l2.remove(line);
                        assert_eq!((r.block, r.dirty, r.dir), (block, e.dirty, e.holders));
                        assert_eq!(l2.probe(block), None, "case {case} step {step}");
                    }
                }
                _ => {
                    // Pin or unpin the line, change its holders, dirty it.
                    let (busy, holders, dirty) =
                        (rng.bool(0.5), rng.range_usize(0..2), rng.bool(0.5));
                    match (l2.probe(block), model.get_mut(&block)) {
                        (Some(line), Some(l)) => {
                            let line = l2.line_mut(line);
                            (line.busy, line.dir, line.dirty) = (busy, holders, dirty);
                            (l.busy, l.holders, l.dirty) = (busy, holders, dirty);
                        }
                        (None, None) => {}
                        (real, _) => {
                            panic!("case {case} step {step}: residency {}", real.is_some())
                        }
                    }
                }
            }
            assert_eq!(l2.resident_lines(), model.len(), "case {case} step {step}");
            for probe in 0..8 {
                let b = rng.range_u64(0..universe);
                let real = l2.probe(b).map(|line| {
                    let l = l2.line(line);
                    (line, l.busy, l.dirty, l.dir, l.data.word(0))
                });
                let expected = model.get(&b).map(|l| (l.line, l.busy, l.dirty, l.holders, l.word));
                assert_eq!(real, expected, "case {case} step {step} probe {probe}: block {b}");
            }
        }
    }
}

/// The victim cache behaves exactly like a FIFO `VecDeque` of
/// `(block, state, data)` under random inserts, takes, invalidations and
/// downgrades, at capacities from zero (pass-through) up.
#[test]
fn victim_cache_matches_a_deque_model() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0xb000 + case);
        let capacity = rng.range_usize(0..6);
        let mut vc = VictimCache::new(capacity);
        let mut model: VecDeque<(BlockAddr, LineState, BlockData)> = VecDeque::new();
        let states = [LineState::Shared, LineState::Exclusive, LineState::Modified];
        for step in 0..300 {
            let b = block(rng.range_u64(0..12) * 64);
            match rng.range_u64(0..5) {
                0 | 1 => {
                    let state = states[rng.range_usize(0..3)];
                    let data = BlockData::from_words([rng.next_u64(); 8]);
                    let displaced = vc.insert(b, state, data);
                    let expected = if capacity == 0 {
                        Some((b, state, data))
                    } else {
                        model.retain(|(mb, _, _)| *mb != b);
                        let displaced =
                            if model.len() >= capacity { model.pop_front() } else { None };
                        model.push_back((b, state, data));
                        displaced
                    };
                    assert_eq!(displaced, expected, "case {case} step {step}: insert");
                }
                2 => {
                    let expected = model
                        .iter()
                        .position(|(mb, _, _)| *mb == b)
                        .and_then(|i| model.remove(i))
                        .map(|(_, s, d)| (s, d));
                    assert_eq!(vc.take(b), expected, "case {case} step {step}: take");
                }
                3 => {
                    let expected = model
                        .iter()
                        .position(|(mb, _, _)| *mb == b)
                        .and_then(|i| model.remove(i))
                        .and_then(|(_, s, d)| (s == LineState::Modified).then_some(d));
                    assert_eq!(vc.invalidate(b), expected, "case {case} step {step}: invalidate");
                }
                _ => {
                    let expected = model.iter_mut().find(|(mb, _, _)| *mb == b).and_then(|e| {
                        let dirty = (e.1 == LineState::Modified).then_some(e.2);
                        e.1 = LineState::Shared;
                        dirty
                    });
                    assert_eq!(vc.downgrade(b), expected, "case {case} step {step}: downgrade");
                }
            }
            assert_eq!(vc.len(), model.len(), "case {case} step {step}");
            for n in 0..12 {
                let present = model.iter().any(|(mb, _, _)| *mb == block(n * 64));
                assert_eq!(vc.contains(block(n * 64)), present, "case {case} step {step}");
            }
        }
    }
}

/// One outstanding miss of the MSHR reference model.
#[derive(Debug, Clone, PartialEq)]
struct ModelMshr {
    block: BlockAddr,
    for_write: bool,
    prefetch: bool,
    waiters: Vec<u64>,
    issued_at: u64,
}

/// The dense-key miss-path structures behave exactly like plain `Vec`s
/// searched by linear scan: the `MshrFile` (blocks in their own array,
/// registers reused after completion) under random allocations, merges and
/// completions, and the `VictimCache` (blocks in one contiguous array) under
/// random inserts, takes, invalidations and downgrades.
#[test]
fn dense_miss_path_keys_match_vec_scan_references() {
    let states = [LineState::Shared, LineState::Exclusive, LineState::Modified];
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0xd000 + case);
        let capacity = rng.range_usize(1..6);
        let mut mshrs = MshrFile::new(capacity);
        let mut mshr_model: Vec<ModelMshr> = Vec::new();
        let mut vc = VictimCache::new(capacity);
        let mut vc_model: Vec<(BlockAddr, LineState, BlockData)> = Vec::new();
        let mut waiters = Vec::new();
        for step in 0..400u64 {
            let b = block(rng.range_u64(0..10) * 64);
            let at = format!("case {case} step {step}");
            match rng.range_u64(0..8) {
                0 | 1 => {
                    let (for_write, prefetch) = (rng.bool(0.5), rng.bool(0.3));
                    let expected = if mshr_model.iter().any(|m| m.block == b) {
                        Err(MshrError::AlreadyPresent)
                    } else if mshr_model.len() >= capacity {
                        Err(MshrError::Full)
                    } else {
                        Ok(())
                    };
                    match mshrs.allocate(b, for_write, prefetch, step) {
                        Ok(e) => {
                            assert_eq!(expected, Ok(()), "{at}: allocate");
                            assert!(e.waiters.is_empty(), "{at}: a reused register starts empty");
                            e.waiters.push(step);
                            mshr_model.push(ModelMshr {
                                block: b,
                                for_write,
                                prefetch,
                                waiters: vec![step],
                                issued_at: step,
                            });
                        }
                        Err(err) => assert_eq!(expected, Err(err), "{at}: allocate"),
                    }
                }
                2 => {
                    let (waiter, for_write) = (rng.range_u64(0..4), rng.bool(0.5));
                    let expected = mshr_model.iter_mut().find(|m| m.block == b).map(|m| {
                        m.prefetch = false;
                        m.for_write |= for_write;
                        if !m.waiters.contains(&waiter) {
                            m.waiters.push(waiter);
                        }
                    });
                    let merged = mshrs.merge_waiter(b, waiter, for_write);
                    assert_eq!(merged, expected.is_some(), "{at}: merge_waiter");
                }
                3 | 4 => {
                    waiters.clear();
                    waiters.push(u64::MAX);
                    let expected =
                        mshr_model.iter().position(|m| m.block == b).map(|i| mshr_model.remove(i));
                    let done = mshrs.complete(b, &mut waiters);
                    assert_eq!(done, expected.as_ref().map(|m| m.for_write), "{at}: complete");
                    let expected_waiters = expected.map(|m| m.waiters).unwrap_or_default();
                    assert_eq!(waiters, expected_waiters, "{at}: completed waiters");
                }
                5 => {
                    let state = states[rng.range_usize(0..3)];
                    let data = BlockData::from_words([rng.next_u64(); 8]);
                    vc_model.retain(|(mb, _, _)| *mb != b);
                    let displaced =
                        if vc_model.len() >= capacity { Some(vc_model.remove(0)) } else { None };
                    vc_model.push((b, state, data));
                    assert_eq!(vc.insert(b, state, data), displaced, "{at}: insert");
                }
                6 => {
                    let expected = vc_model
                        .iter()
                        .position(|(mb, _, _)| *mb == b)
                        .map(|i| vc_model.remove(i))
                        .map(|(_, s, d)| (s, d));
                    if rng.bool(0.5) {
                        assert_eq!(vc.take(b), expected, "{at}: take");
                    } else {
                        let dirty =
                            expected.and_then(|(s, d)| (s == LineState::Modified).then_some(d));
                        assert_eq!(vc.invalidate(b), dirty, "{at}: invalidate");
                    }
                }
                _ => {
                    let expected = vc_model.iter_mut().find(|(mb, _, _)| *mb == b).and_then(|e| {
                        let dirty = (e.1 == LineState::Modified).then_some(e.2);
                        e.1 = LineState::Shared;
                        dirty
                    });
                    assert_eq!(vc.downgrade(b), expected, "{at}: downgrade");
                }
            }
            let outstanding: Vec<ModelMshr> = mshrs
                .iter()
                .map(|e| ModelMshr {
                    block: e.block,
                    for_write: e.for_write,
                    prefetch: e.prefetch,
                    waiters: e.waiters.clone(),
                    issued_at: e.issued_at,
                })
                .collect();
            assert_eq!(outstanding, mshr_model, "{at}: outstanding misses, oldest first");
            assert_eq!(mshrs.len(), mshr_model.len(), "{at}");
            assert_eq!(mshrs.is_full(), mshr_model.len() >= capacity, "{at}");
            let oldest = mshr_model.iter().map(|m| m.issued_at).min();
            assert_eq!(mshrs.oldest_issue(), oldest, "{at}");
            assert_eq!(vc.len(), vc_model.len(), "{at}");
            for n in 0..10 {
                let nb = block(n * 64);
                let m = mshr_model.iter().find(|m| m.block == nb);
                assert_eq!(mshrs.contains(nb), m.is_some(), "{at}: contains {nb}");
                assert_eq!(mshrs.get(nb).map(|e| e.issued_at), m.map(|m| m.issued_at), "{at}");
                let resident = vc_model.iter().any(|(mb, _, _)| *mb == nb);
                assert_eq!(vc.contains(nb), resident, "{at}: victim contains {nb}");
            }
        }
    }
}

/// One resident line of the naive set-associative cache model.
#[derive(Debug, Clone, Copy)]
struct ModelL1Line {
    state: LineState,
    word: u64,
    lru: u64,
    spec: [bool; 2],
}

/// The L1 with a 3-set geometry and no victim cache (so the set index takes
/// the divide path, not the mask) behaves exactly like a naive map-plus-LRU
/// model: same states and data, same victims (invalid ways first, then the
/// least-recently-used non-speculative way, then plain LRU), same
/// speculative-line counts.
#[test]
fn three_set_cache_matches_a_naive_lru_model() {
    const SETS: u64 = 3;
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0xc000 + case);
        let ways = rng.range_usize(1..4);
        let cfg = CacheConfig {
            size_bytes: SETS as usize * ways * 64,
            associativity: ways,
            block_bytes: 64,
            hit_latency: 2,
            mshrs: 4,
            victim_entries: 0,
        };
        let mut cache = L1Cache::new(&cfg);
        let mut model: HashMap<u64, ModelL1Line> = HashMap::new();
        let mut stamp = 0u64;
        let states = [LineState::Shared, LineState::Exclusive, LineState::Modified];
        for step in 0..400 {
            let n = rng.range_u64(0..SETS * ways as u64 * 3);
            let b = block(n * 64);
            match rng.range_u64(0..9) {
                0..=2 => {
                    let state = states[rng.range_usize(0..3)];
                    let word = rng.next_u64();
                    let slot = cache.fill_slot(b);
                    let evicts_spec = cache.slot_evicts_spec(slot);
                    cache.fill_at(slot, state, BlockData::from_words([word; 8]));
                    // Without a victim cache a displaced line goes straight
                    // to the writeback queue.
                    let evicted: Vec<EvictionAction> = cache.drain_writebacks().collect();
                    stamp += 1;
                    if let Some(l) = model.get_mut(&n) {
                        (l.state, l.word, l.lru) = (state, word, stamp);
                        assert!(evicted.is_empty(), "case {case} step {step}: refill evicts");
                        continue;
                    }
                    let set: Vec<(u64, ModelL1Line)> = model
                        .iter()
                        .filter(|(&mb, _)| mb % SETS == n % SETS)
                        .map(|(&mb, &l)| (mb, l))
                        .collect();
                    let expected = if set.len() < ways {
                        None
                    } else {
                        let plain = set.iter().filter(|(_, l)| l.spec == [false; 2]);
                        let victim = plain.min_by_key(|(_, l)| l.lru).copied();
                        Some(
                            victim
                                .unwrap_or_else(|| *set.iter().min_by_key(|(_, l)| l.lru).unwrap()),
                        )
                    };
                    let spec = [false; 2];
                    model.insert(n, ModelL1Line { state, word, lru: stamp, spec });
                    match (evicted.as_slice(), expected) {
                        ([], None) => {}
                        ([ev], Some((vn, vl))) => {
                            // The victim's state picks the action; only a
                            // Modified victim carries its data.
                            let (vb, data) = (block(vn * 64), BlockData::from_words([vl.word; 8]));
                            let left = match vl.state {
                                LineState::Modified => EvictionAction::WritebackDirty(vb, data),
                                LineState::Exclusive => EvictionAction::WritebackClean(vb),
                                _ => EvictionAction::Silent(vb),
                            };
                            assert_eq!(*ev, left, "case {case} step {step}: victim");
                            assert_eq!(evicts_spec, vl.spec != [false; 2]);
                            model.remove(&vn);
                        }
                        (real, expected) => {
                            panic!("case {case} step {step}: evicted {real:?}, model {expected:?}")
                        }
                    }
                    assert!(
                        !cache.is_spec_any(b),
                        "case {case} step {step}: refilled way is clean"
                    );
                }
                3 => {
                    let state = cache.lookup(b);
                    let expected = model.get_mut(&n).map(|l| {
                        stamp += 1;
                        l.lru = stamp;
                        l.state
                    });
                    assert_eq!(state, expected.unwrap_or(LineState::Invalid), "case {case}");
                }
                4 => {
                    let value = cache.load_word(b, 0);
                    let expected = model.get_mut(&n).map(|l| {
                        stamp += 1;
                        l.lru = stamp;
                        l.word
                    });
                    assert_eq!(value, expected, "case {case} step {step}: read");
                }
                5 => {
                    let value = rng.next_u64();
                    let wrote = cache.write_word(b, 0, value);
                    let expected = match model.get_mut(&n) {
                        Some(l) if l.state.writable() => {
                            (l.state, l.word) = (LineState::Modified, value);
                            true
                        }
                        _ => false,
                    };
                    assert_eq!(wrote, expected, "case {case} step {step}: write");
                    if wrote {
                        // Keep the model's single-word view: fill the rest too.
                        cache.merge_store(b, &BlockData::from_words([value; 8]), 0xff);
                        stamp += 1;
                        model.get_mut(&n).unwrap().lru = stamp;
                    }
                }
                6 => {
                    let state = cache.peek(b);
                    let dirty = cache.external_invalidate(b);
                    let expected = model.remove(&n);
                    let gone = (state != LineState::Invalid).then_some(state);
                    assert_eq!(gone, expected.map(|l| l.state), "case {case}");
                    let modified = expected.filter(|l| l.state == LineState::Modified);
                    assert_eq!(dirty.map(|d| d.word(0)), modified.map(|l| l.word), "case {case}");
                }
                7 => {
                    let epoch = rng.range_usize(0..2);
                    let marked = if rng.bool(0.5) {
                        cache.mark_spec_read(b, epoch)
                    } else {
                        cache.mark_spec_written(b, epoch)
                    };
                    assert_eq!(marked, model.contains_key(&n), "case {case} step {step}");
                    if let Some(l) = model.get_mut(&n) {
                        l.spec[epoch] = true;
                    }
                }
                _ => {
                    let epoch = rng.range_usize(0..2);
                    cache.flash_clear_epoch(epoch);
                    for l in model.values_mut() {
                        l.spec[epoch] = false;
                    }
                }
            }
            assert_eq!(cache.valid_lines(), model.len(), "case {case} step {step}");
            for epoch in 0..2 {
                let expected = model.values().filter(|l| l.spec[epoch]).count();
                assert_eq!(cache.spec_line_count(epoch), expected, "case {case} step {step}");
            }
            for (&mn, l) in &model {
                let mb = block(mn * 64);
                assert_eq!(cache.peek(mb), l.state, "case {case} step {step}: block {mn}");
                assert_eq!(cache.read_word(mb, 0), Some(l.word), "case {case} step {step}");
            }
        }
    }
}

/// The old linear scan `Rob::position_of` replaced: the first position
/// holding each dispatch id.
fn linear_rob_positions(rob: &Rob) -> HashMap<u64, usize> {
    let mut positions = HashMap::new();
    for i in 0..rob.len() {
        positions.entry(rob.get(i).unwrap().dispatch_id).or_insert(i);
    }
    positions
}

/// `Rob::position_of` (a binary search) agrees with a plain linear scan
/// across ring wrap-around, retirement, partial squashes that leave gaps in
/// the dispatch ids, and full squashes followed by a refill.
#[test]
fn rob_lookups_match_linear_scans() {
    for case in 0..CASES {
        let mut rng = TraceRng::seed_from_u64(0xd000 + case);
        let capacity = rng.range_usize(1..13);
        let mut rob = Rob::new(capacity);
        let (mut next_program, mut next_id) = (0usize, 0u64);
        for step in 0..400 {
            match rng.range_u64(0..10) {
                0..=4 if !rob.is_full() => {
                    rob.push(next_program, next_id, Instruction::load(Addr::new(0)));
                    next_program += 1;
                    next_id += 1;
                }
                0..=5 => {
                    rob.pop_head();
                }
                6 | 7 if !rob.is_empty() => {
                    // Partial squash: refetch from the cut, with fresh ids.
                    let cut = rob.get(rng.range_usize(0..rob.len())).unwrap().program_index;
                    rob.squash_from(cut);
                    next_program = cut;
                    next_id += rng.range_u64(1..5);
                }
                8 => {
                    rob.squash_all();
                    next_program = next_program.saturating_sub(rng.range_usize(0..4));
                    next_id += 1;
                }
                _ => {}
            }
            let positions = linear_rob_positions(&rob);
            for id in next_id.saturating_sub(20)..next_id + 2 {
                let expected = positions.get(&id).copied();
                assert_eq!(rob.position_of(id), expected, "case {case} step {step}: id {id}");
            }
        }
    }
}
