//! The sharded cache hierarchy: per-core private L1/L2 over lock-striped shared
//! levels.
//!
//! The monolithic [`CacheHierarchy`](crate::hierarchy::CacheHierarchy) is a
//! single-threaded model: putting it behind one global `Mutex` made every
//! receiver shard serialise on every simulated byte, which is exactly the
//! wall-clock ceiling the multi-shard drain hit. This module splits the model
//! along the same line real hardware does:
//!
//! * [`CoreBus`] — one per core (one per receiver shard). It **owns** that
//!   core's private L1, L2 and stride prefetcher outright: a private-cache hit
//!   costs zero locks and zero atomic RMWs — the only synchronisation on the
//!   hot path is one `Acquire` load of the core's invalidation-inbox flag.
//! * [`SharedHierarchy`] — the shared outer levels. The per-cluster L3 slices
//!   each sit behind their own mutex, the LLC is split into
//!   [`LLC_STRIPES`] lock stripes selected by line index, and the DRAM model is
//!   striped into [`DRAM_CHANNELS`] independently locked channels keyed by line
//!   address (`line % DRAM_CHANNELS`), modelling a multi-channel part. Misses
//!   from different cores only contend when they genuinely collide on the same
//!   stripe or channel.
//!
//! # Invalidation contract
//!
//! Inbound DMA ([`SharedHierarchy::dma_write`]) makes the LLC (stash path) or
//! DRAM (non-stash path) copy of each delivered line authoritative; any private
//! L1/L2 copy is stale from that instant. Because the private levels are
//! lock-free, DMA cannot reach into them — instead it posts the line set to
//! every core's *invalidation inbox* and raises that core's flag.
//! [`CoreBus::access`] drains its inbox before touching its private caches, so
//! a core can never observe a line it cached before the DMA overwrote it. This
//! is the same hook the receiver's cross-shard injection-cache invalidation
//! rides on: package reinstalls invalidate the (shared) decoded-program caches
//! directly, and the per-core *hardware* state follows through the inbox on the
//! next access. An inbox that outgrows [`INVAL_INBOX_LIMIT`] degrades to a full
//! private-cache flush — correct, just conservatively slow.
//!
//! # Statistics
//!
//! Shared-level counters live in relaxed atomics on the [`SharedHierarchy`];
//! private-level counters accumulate lock-free in each [`CoreBus`] as
//! [`CoreCacheStats`]. [`HierarchyStats::absorb_core`] folds the per-core view
//! back into the global one, so the merged picture matches what the monolithic
//! model would have reported (the `parity_with_monolithic_model` test pins
//! this).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::cache::{AccessKind, CacheStats, SetAssocCache};
use crate::clock::SimTime;
use crate::config::TestbedConfig;
use crate::hierarchy::{HierarchyStats, MemoryBus};
use crate::latency::DramModel;
use crate::prefetch::{PrefetchRun, StridePrefetcher};
use crate::stress::MemoryStressor;

/// Number of lock stripes the shared LLC is split into.
pub const LLC_STRIPES: usize = 8;

/// Number of independently locked DRAM channels at the bottom of the shared
/// levels. Line `l` is served by channel `l % DRAM_CHANNELS` (consecutive
/// lines interleave across channels, like real multi-channel parts), so DRAM
/// misses from different cores only contend when they genuinely collide on a
/// channel. Every channel runs the same [`DramModel`] configuration, so the
/// per-access *cost* is identical to the single-model monolithic hierarchy —
/// the split removes lock contention, not latency (pinned by the parity
/// tests).
pub const DRAM_CHANNELS: usize = 4;

/// Past this many pending line invalidations a core's inbox degrades to a full
/// private-cache flush (bounded memory, conservative correctness).
pub const INVAL_INBOX_LIMIT: usize = 4096;

/// Private-cache counters owned (lock-free) by one [`CoreBus`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreCacheStats {
    /// Demand accesses that hit this core's private L1.
    pub l1_hits: u64,
    /// Demand accesses that hit this core's private L2.
    pub l2_hits: u64,
    /// Dirty write-backs generated by this core's private evictions.
    pub writebacks: u64,
    /// Prefetches issued by this core's stride prefetcher.
    pub prefetches_issued: u64,
    /// Demand accesses satisfied by a previously prefetched LLC line.
    pub prefetch_hits: u64,
    /// Stale lines dropped from the private levels by DMA invalidation.
    pub invalidations_applied: u64,
}

/// One core's pending-invalidation inbox: written by the DMA engine (short
/// lock), drained by the owning [`CoreBus`] at its next access.
#[derive(Debug, Default)]
struct InvalInbox {
    flag: AtomicBool,
    pending: Mutex<PendingInvals>,
}

#[derive(Debug, Default)]
struct PendingInvals {
    /// Byte addresses (line-aligned) to invalidate.
    lines: Vec<u64>,
    /// Drop everything (hierarchy clear, or an overflowed inbox).
    flush_all: bool,
}

/// One lock stripe of the shared LLC: a cache indexed by folded line.
///
/// Stripe `k` owns the lines with `line % LLC_STRIPES == k`, and indexes its
/// backing cache by `line / LLC_STRIPES`. When `LLC_STRIPES` divides the LLC
/// set count, `(stripe, stripe-set)` is a bijection of the monolithic set
/// index, so conflict behaviour matches the unsharded model exactly. The
/// prefetched-not-yet-demanded mark is a bit on each way of that cache (see
/// [`SetAssocCache::prefetch_line`]), so it leaves with the line on eviction or
/// invalidation, exactly as in the monolithic LLC.
#[derive(Debug)]
struct LlcStripe {
    cache: SetAssocCache,
}

impl LlcStripe {
    #[inline]
    fn fold(line: u64) -> u64 {
        line / LLC_STRIPES as u64
    }

    fn access_line(&mut self, line: u64, kind: AccessKind) -> crate::cache::FillOutcome {
        self.cache.access_line(Self::fold(line), kind)
    }

    fn stash_line(&mut self, line: u64) -> Option<u64> {
        self.cache.stash_line(Self::fold(line))
    }

    fn prefetch_line(&mut self, line: u64) -> Option<u64> {
        self.cache.prefetch_line(Self::fold(line))
    }

    fn take_prefetched(&mut self, line: u64) -> bool {
        self.cache.take_prefetched(Self::fold(line))
    }

    fn invalidate_line(&mut self, line: u64) -> bool {
        let byte = Self::fold(line) * self.cache.line_size() as u64;
        self.cache.invalidate(byte)
    }

    fn contains_line(&self, line: u64) -> bool {
        let byte = Self::fold(line) * self.cache.line_size() as u64;
        self.cache.contains(byte)
    }
}

/// Outcome of a shared-level (L3 → LLC → DRAM) access, fed back to the core so
/// it can train its own prefetcher without holding any shared lock.
#[derive(Debug, Clone, Copy)]
struct SharedOutcome {
    cost: SimTime,
    /// The access missed all caches and went to DRAM.
    dram: bool,
    /// The access hit an LLC line installed by a prefetch.
    prefetch_hit: bool,
}

#[derive(Debug, Default)]
struct SharedStats {
    l3_hits: AtomicU64,
    llc_hits: AtomicU64,
    dram_accesses: AtomicU64,
    stashed_lines: AtomicU64,
    dma_dram_lines: AtomicU64,
    writebacks: AtomicU64,
}

/// The striped DRAM bottom: one short-hold mutex per channel, plus the (rarely
/// attached) stressor behind its own lock. Lock order is always channel →
/// stressor; the stressor lock is only taken when the `stressed` flag says one
/// is attached.
#[derive(Debug)]
struct DramBanks {
    channels: Vec<Mutex<DramModel>>,
    stressor: Mutex<Option<MemoryStressor>>,
}

/// The shared outer levels of the sharded hierarchy. Internally synchronized:
/// every method takes `&self`, and no caller-visible lock wraps the whole
/// object.
#[derive(Debug)]
pub struct SharedHierarchy {
    cfg: TestbedConfig,
    llc_stashing: AtomicBool,
    prefetch_enabled: AtomicBool,
    /// Bumped on every prefetcher reconfiguration; cores reset their private
    /// prefetcher when they observe a new generation.
    prefetch_gen: AtomicU64,
    stressed: AtomicBool,
    l3: Vec<Mutex<SetAssocCache>>,
    llc: Vec<Mutex<LlcStripe>>,
    dram: DramBanks,
    invals: Vec<InvalInbox>,
    stats: SharedStats,
    line_size: usize,
}

impl SharedHierarchy {
    /// Build an empty (cold) shared hierarchy for the given machine description.
    pub fn new(cfg: TestbedConfig) -> Self {
        let l3 = (0..cfg.num_clusters())
            .map(|_| Mutex::new(SetAssocCache::new(cfg.caches.l3)))
            .collect();
        let stripe_cfg = crate::config::CacheLevelConfig::new(
            (cfg.caches.llc.capacity / LLC_STRIPES)
                .max(cfg.caches.llc.ways * cfg.caches.llc.line_size),
            cfg.caches.llc.ways,
            cfg.caches.llc.line_size,
        );
        let llc = (0..LLC_STRIPES)
            .map(|_| {
                Mutex::new(LlcStripe {
                    cache: SetAssocCache::new(stripe_cfg),
                })
            })
            .collect();
        let dram = DramBanks {
            channels: (0..DRAM_CHANNELS)
                .map(|_| Mutex::new(DramModel::new(cfg.latency.dram, cfg.dram)))
                .collect(),
            stressor: Mutex::new(None),
        };
        let invals = (0..cfg.caches.num_cores)
            .map(|_| InvalInbox::default())
            .collect();
        let line_size = cfg.caches.llc.line_size;
        SharedHierarchy {
            llc_stashing: AtomicBool::new(cfg.llc_stashing),
            prefetch_enabled: AtomicBool::new(cfg.prefetch.enabled),
            prefetch_gen: AtomicU64::new(0),
            stressed: AtomicBool::new(false),
            cfg,
            l3,
            llc,
            dram,
            invals,
            stats: SharedStats::default(),
            line_size,
        }
    }

    /// The machine description this hierarchy models.
    pub fn config(&self) -> &TestbedConfig {
        &self.cfg
    }

    /// Number of cores (and so of valid [`CoreBus`] slots).
    pub fn num_cores(&self) -> usize {
        self.cfg.caches.num_cores
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.line_size
    }

    /// Build the private-level bus for `core`. One live bus per core: a second
    /// bus for the same core would drain the same invalidation inbox and let
    /// the other one read stale lines.
    pub fn core_bus(self: &Arc<Self>, core: usize) -> CoreBus {
        assert!(core < self.num_cores(), "core {core} out of range");
        // Honour the *current* prefetcher enable state, not the construction
        // config: a set_prefetching() issued before this bus exists must not
        // be silently undone by seeding the already-observed generation.
        let mut prefetch_cfg = self.cfg.prefetch;
        prefetch_cfg.enabled = self.prefetching_enabled();
        CoreBus {
            core,
            l1: SetAssocCache::new(self.cfg.caches.l1),
            l2: SetAssocCache::new(self.cfg.caches.l2),
            prefetcher: StridePrefetcher::new(prefetch_cfg),
            prefetch_gen_seen: self.prefetch_gen.load(Ordering::Acquire),
            stats: CoreCacheStats::default(),
            inval_scratch: Vec::new(),
            shared: Arc::clone(self),
        }
    }

    /// Whether inbound DMA is stashed into the LLC.
    pub fn stashing_enabled(&self) -> bool {
        self.llc_stashing.load(Ordering::Relaxed)
    }

    /// Toggle LLC stashing (the paper's firmware knob).
    pub fn set_stashing(&self, enabled: bool) {
        self.llc_stashing.store(enabled, Ordering::Relaxed);
    }

    /// Toggle the hardware prefetcher (the paper's kernel knob). Cores reset
    /// their private prefetchers when they observe the new generation.
    pub fn set_prefetching(&self, enabled: bool) {
        self.prefetch_enabled.store(enabled, Ordering::Relaxed);
        self.prefetch_gen.fetch_add(1, Ordering::AcqRel);
    }

    /// Whether the prefetcher is currently enabled.
    pub fn prefetching_enabled(&self) -> bool {
        self.prefetch_enabled.load(Ordering::Relaxed)
    }

    /// Attach (or detach, with `None`) a memory stressor. Background
    /// utilization applies to every channel — the stressor's traffic spreads
    /// over the whole memory system, exactly as in the monolithic model.
    pub fn set_stressor(&self, stressor: Option<MemoryStressor>) {
        let util = stressor
            .as_ref()
            .map(|s| s.bandwidth_share())
            .unwrap_or(0.0);
        for channel in &self.dram.channels {
            channel.lock().set_background_utilization(util);
        }
        self.stressed.store(stressor.is_some(), Ordering::Relaxed);
        *self.dram.stressor.lock() = stressor;
    }

    /// Whether a stressor is currently attached (one atomic load; safe on the
    /// per-message path).
    pub fn stressed(&self) -> bool {
        self.stressed.load(Ordering::Relaxed)
    }

    /// Per-message software-visible jitter from the loaded system; zero when no
    /// stressor is attached.
    pub fn scheduler_jitter(&self) -> SimTime {
        if !self.stressed() {
            return SimTime::ZERO;
        }
        match &mut *self.dram.stressor.lock() {
            Some(s) => s.scheduler_jitter(),
            None => SimTime::ZERO,
        }
    }

    /// The DRAM channel serving `line` (`line % DRAM_CHANNELS`).
    #[inline]
    fn dram_channel(line: u64) -> usize {
        (line as usize) % DRAM_CHANNELS
    }

    /// One demand line-fill from DRAM, charged on `line`'s channel. The
    /// stressor's queueing jitter (when attached) rides on top, as in the
    /// monolithic model; the `stressed` flag keeps the stressor lock off the
    /// common path.
    fn dram_line_access(&self, line: u64) -> SimTime {
        let mut channel = self.dram.channels[Self::dram_channel(line)].lock();
        if self.stressed() {
            channel.line_access(self.dram.stressor.lock().as_mut())
        } else {
            channel.line_access(None)
        }
    }

    /// One posted write-back, charged on `line`'s channel.
    fn dram_writeback(&self, line: u64) -> SimTime {
        self.dram.channels[Self::dram_channel(line)]
            .lock()
            .writeback()
    }

    /// Total DRAM model accesses (demand fills + write-backs) across every
    /// channel — the striped counterpart of
    /// [`DramModel::accesses`](crate::latency::DramModel::accesses).
    pub fn dram_model_accesses(&self) -> u64 {
        self.dram.channels.iter().map(|c| c.lock().accesses()).sum()
    }

    /// Shared-level statistics (L3/LLC/DRAM/DMA). Private L1/L2 counters live
    /// on each [`CoreBus`]; fold them in with [`HierarchyStats::absorb_core`].
    pub fn stats(&self) -> HierarchyStats {
        HierarchyStats {
            l1_hits: 0,
            l2_hits: 0,
            l3_hits: self.stats.l3_hits.load(Ordering::Relaxed),
            llc_hits: self.stats.llc_hits.load(Ordering::Relaxed),
            dram_accesses: self.stats.dram_accesses.load(Ordering::Relaxed),
            stashed_lines: self.stats.stashed_lines.load(Ordering::Relaxed),
            dma_dram_lines: self.stats.dma_dram_lines.load(Ordering::Relaxed),
            prefetches_issued: 0,
            prefetch_hits: 0,
            writebacks: self.stats.writebacks.load(Ordering::Relaxed),
        }
    }

    /// Reset the shared-level statistics (cache contents are preserved).
    /// Per-core counters are reset by [`CoreBus::reset_stats`].
    pub fn reset_stats(&self) {
        self.stats.l3_hits.store(0, Ordering::Relaxed);
        self.stats.llc_hits.store(0, Ordering::Relaxed);
        self.stats.dram_accesses.store(0, Ordering::Relaxed);
        self.stats.stashed_lines.store(0, Ordering::Relaxed);
        self.stats.dma_dram_lines.store(0, Ordering::Relaxed);
        self.stats.writebacks.store(0, Ordering::Relaxed);
        for l3 in &self.l3 {
            l3.lock().reset_stats();
        }
        for stripe in &self.llc {
            stripe.lock().cache.reset_stats();
        }
    }

    /// Drop every shared-level line and post a full flush to every core's
    /// private caches.
    pub fn clear(&self) {
        for l3 in &self.l3 {
            l3.lock().clear();
        }
        for stripe in &self.llc {
            stripe.lock().cache.clear();
        }
        for inbox in &self.invals {
            let mut pending = inbox.pending.lock();
            pending.lines.clear();
            pending.flush_all = true;
            inbox.flag.store(true, Ordering::Release);
        }
        self.reset_stats();
    }

    /// Aggregate LLC statistics across the stripes (stash-behaviour tests).
    pub fn llc_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for stripe in &self.llc {
            let s = stripe.lock().cache.stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.writebacks += s.writebacks;
            total.stashed_lines += s.stashed_lines;
        }
        total
    }

    /// Check whether the line containing `addr` currently resides in the LLC.
    pub fn llc_contains(&self, addr: u64) -> bool {
        let line = addr / self.line_size as u64;
        self.llc[Self::stripe_of(line)].lock().contains_line(line)
    }

    #[inline]
    fn stripe_of(line: u64) -> usize {
        (line as usize) % LLC_STRIPES
    }

    #[inline]
    fn lines_covering(&self, addr: u64, len: usize) -> (u64, u64) {
        let first = addr / self.line_size as u64;
        let last = (addr + len.max(1) as u64 - 1) / self.line_size as u64;
        (first, last)
    }

    /// Post the delivered lines `first..=last` to every core's inbox — one lock
    /// round-trip per core per delivery, not per line.
    fn post_invalidations(&self, first: u64, last: u64) {
        let count = (last - first + 1) as usize;
        for inbox in &self.invals {
            let mut pending = inbox.pending.lock();
            if !pending.flush_all {
                if pending.lines.len() + count > INVAL_INBOX_LIMIT {
                    pending.lines.clear();
                    pending.flush_all = true;
                } else {
                    pending
                        .lines
                        .extend((first..=last).map(|line| line * self.line_size as u64));
                }
            }
            inbox.flag.store(true, Ordering::Release);
        }
    }

    /// Write `len` bytes arriving from the NIC DMA engine at `addr`. Same
    /// contract as the monolithic
    /// [`CacheHierarchy::dma_write`](crate::hierarchy::CacheHierarchy::dma_write),
    /// with private-level invalidation delivered through the per-core inboxes.
    ///
    /// The LLC stripes and DRAM channels are visited line by line in address
    /// order, exactly as the monolithic model does; the L3 slices hold no state
    /// those visits read, so each slice is locked once per put and drops the
    /// whole line range in one pass.
    pub fn dma_write(&self, addr: u64, len: usize) -> SimTime {
        let (first, last) = self.lines_covering(addr, len);
        let mut cost = SimTime::ZERO;
        let stashing = self.stashing_enabled();
        for line in first..=last {
            if stashing {
                let victim = self.llc[Self::stripe_of(line)].lock().stash_line(line);
                if let Some(victim) = victim {
                    // The displaced dirty line writes back on *its* channel
                    // (same stripe as `line`, so unfolding recovers it).
                    let victim_line = victim * LLC_STRIPES as u64 + line % LLC_STRIPES as u64;
                    cost += self.dram_writeback(victim_line);
                    self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
                }
                self.stats.stashed_lines.fetch_add(1, Ordering::Relaxed);
                cost += self.cfg.latency.stash_install;
            } else {
                self.llc[Self::stripe_of(line)].lock().invalidate_line(line);
                self.stats.dma_dram_lines.fetch_add(1, Ordering::Relaxed);
                cost += self.dram_writeback(line);
            }
        }
        for l3 in &self.l3 {
            let mut l3 = l3.lock();
            for line in first..=last {
                l3.invalidate(line * self.line_size as u64);
            }
        }
        self.post_invalidations(first, last);
        cost
    }

    /// Warm the given range into the LLC (resident local-function libraries).
    pub fn warm_llc(&self, addr: u64, len: usize) {
        let (first, last) = self.lines_covering(addr, len);
        for line in first..=last {
            self.llc[Self::stripe_of(line)].lock().stash_line(line);
        }
    }

    /// Install a prefetcher's run into the LLC in the background. Displaced
    /// dirty victims are charged to the shared write-back counter (the installs
    /// themselves happen off the demand path, exactly as in the monolithic
    /// model).
    fn install_prefetches(&self, run: PrefetchRun) {
        let mut writebacks = 0;
        for line in run {
            if self.llc[Self::stripe_of(line)]
                .lock()
                .prefetch_line(line)
                .is_some()
            {
                writebacks += 1;
            }
        }
        if writebacks > 0 {
            self.stats
                .writebacks
                .fetch_add(writebacks, Ordering::Relaxed);
        }
    }

    /// One shared-level demand access (the private levels already missed).
    fn access_line(&self, core: usize, line: u64, kind: AccessKind) -> SharedOutcome {
        let lat = self.cfg.latency;
        let cluster = self.cfg.cluster_of(core);
        let mut cost = SimTime::ZERO;

        // L3 (per-cluster slice, own mutex).
        {
            let mut l3 = self.l3[cluster].lock();
            let out = l3.access_line(line, kind);
            if out.hit {
                self.stats.l3_hits.fetch_add(1, Ordering::Relaxed);
                return SharedOutcome {
                    cost: cost + lat.l3_hit,
                    dram: false,
                    prefetch_hit: false,
                };
            }
            cost += lat.l3_hit;
            if out.dirty_victim.is_some() {
                cost += lat.writeback;
                self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
            }
        }

        // LLC stripe.
        let (llc_hit, prefetch_hit, dirty_victim) = {
            let mut stripe = self.llc[Self::stripe_of(line)].lock();
            let out = stripe.access_line(line, kind);
            let pf = out.hit && stripe.take_prefetched(line);
            (out.hit, pf, out.dirty_victim)
        };
        if llc_hit {
            self.stats.llc_hits.fetch_add(1, Ordering::Relaxed);
            return SharedOutcome {
                cost: cost + lat.llc_hit,
                dram: false,
                prefetch_hit,
            };
        }
        cost += lat.llc_hit;

        // DRAM: per-channel mutexes keyed by line address. The dirty victim
        // (an LLC line from the same stripe as `line`) writes back on its own
        // channel; the demand fill charges `line`'s channel.
        if let Some(victim) = dirty_victim {
            let victim_line = victim * LLC_STRIPES as u64 + line % LLC_STRIPES as u64;
            cost += self.dram_writeback(victim_line);
            self.stats.writebacks.fetch_add(1, Ordering::Relaxed);
        }
        self.stats.dram_accesses.fetch_add(1, Ordering::Relaxed);
        cost += self.dram_line_access(line);
        SharedOutcome {
            cost,
            dram: true,
            prefetch_hit: false,
        }
    }
}

/// The per-core memory bus: private L1/L2 and prefetcher owned lock-free, with
/// misses escalated to the shared striped levels. Implements [`MemoryBus`], so
/// the jam VM and the dispatch engine charge through it exactly as they did
/// through the monolithic hierarchy.
#[derive(Debug)]
pub struct CoreBus {
    core: usize,
    l1: SetAssocCache,
    l2: SetAssocCache,
    prefetcher: StridePrefetcher,
    prefetch_gen_seen: u64,
    stats: CoreCacheStats,
    /// Drained inbox lines; swapped with the inbox's list on every drain.
    inval_scratch: Vec<u64>,
    shared: Arc<SharedHierarchy>,
}

impl CoreBus {
    /// The core this bus models.
    pub fn core(&self) -> usize {
        self.core
    }

    /// The shared outer levels this bus escalates misses to.
    pub fn shared(&self) -> &Arc<SharedHierarchy> {
        &self.shared
    }

    /// This core's private-cache counters.
    pub fn stats(&self) -> CoreCacheStats {
        self.stats
    }

    /// Zero this core's private-cache counters (cache contents preserved).
    pub fn reset_stats(&mut self) {
        self.stats = CoreCacheStats::default();
        self.l1.reset_stats();
        self.l2.reset_stats();
    }

    /// Warm the given range into this core's private L1/L2 and the shared LLC
    /// (the sharded counterpart of the monolithic `warm_l2`).
    pub fn warm(&mut self, addr: u64, len: usize) {
        self.shared.warm_llc(addr, len);
        let (first, last) = self.shared.lines_covering(addr, len);
        for line in first..=last {
            self.l2.access_line(line, AccessKind::Read);
            self.l1.access_line(line, AccessKind::Read);
        }
    }

    /// Drain pending DMA invalidations before touching the private levels. The
    /// pending list is swapped with this bus's own (empty) scratch list, so both
    /// keep their capacity and a steady stream of puts allocates nothing.
    #[inline]
    fn drain_invalidations(&mut self) {
        let inbox = &self.shared.invals[self.core];
        if !inbox.flag.load(Ordering::Acquire) {
            return;
        }
        let flush_all = {
            let mut pending = inbox.pending.lock();
            inbox.flag.store(false, Ordering::Release);
            std::mem::swap(&mut pending.lines, &mut self.inval_scratch);
            std::mem::replace(&mut pending.flush_all, false)
        };
        if flush_all {
            self.l1.clear();
            self.l2.clear();
            self.prefetcher.reset();
            self.stats.invalidations_applied += 1;
        } else {
            for &byte in &self.inval_scratch {
                // Count every stale line actually dropped, at either level.
                let in_l1 = self.l1.invalidate(byte);
                let in_l2 = self.l2.invalidate(byte);
                if in_l1 || in_l2 {
                    self.stats.invalidations_applied += 1;
                }
            }
        }
        self.inval_scratch.clear();
    }

    /// Charge a single-line demand access.
    fn access_line(&mut self, line: u64, kind: AccessKind) -> SimTime {
        let lat = self.shared.cfg.latency;

        // L1 (no lock).
        let out1 = self.l1.access_line(line, kind);
        if out1.hit {
            self.stats.l1_hits += 1;
            return lat.l1_hit;
        }
        let mut cost = lat.l1_hit;
        if out1.dirty_victim.is_some() {
            cost += lat.writeback;
            self.stats.writebacks += 1;
        }

        // L2 (no lock).
        let out2 = self.l2.access_line(line, kind);
        if out2.hit {
            self.stats.l2_hits += 1;
            return cost + lat.l2_hit;
        }
        cost += lat.l2_hit;
        if out2.dirty_victim.is_some() {
            cost += lat.writeback;
            self.stats.writebacks += 1;
        }

        // Shared levels (striped locks inside).
        let out = self.shared.access_line(self.core, line, kind);
        cost += out.cost;

        // Prefetcher training happens core-locally; installs go to the stripes.
        if out.prefetch_hit {
            self.stats.prefetch_hits += 1;
            self.prefetcher.record_useful();
        }
        // A prefetch hit keeps the stream trained, exactly like the
        // monolithic model.
        if out.prefetch_hit || out.dram {
            let run = self.prefetcher.observe_miss(line);
            self.stats.prefetches_issued += run.len() as u64;
            self.shared.install_prefetches(run);
        }
        cost
    }
}

impl MemoryBus for CoreBus {
    fn access(&mut self, core: usize, addr: u64, len: usize, kind: AccessKind) -> SimTime {
        debug_assert_eq!(
            core, self.core,
            "CoreBus for core {} charged an access attributed to core {core}",
            self.core
        );
        // Prefetcher reconfiguration (generation bump) and pending DMA
        // invalidations are observed at access boundaries.
        let gen = self.shared.prefetch_gen.load(Ordering::Acquire);
        if gen != self.prefetch_gen_seen {
            self.prefetch_gen_seen = gen;
            let mut cfg = self.shared.cfg.prefetch;
            cfg.enabled = self.shared.prefetching_enabled();
            self.prefetcher = StridePrefetcher::new(cfg);
        }
        self.drain_invalidations();
        let (first, last) = self.shared.lines_covering(addr, len);
        let mut total = SimTime::ZERO;
        for line in first..=last {
            total += self.access_line(line, kind);
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::CacheHierarchy;

    fn shared() -> Arc<SharedHierarchy> {
        Arc::new(SharedHierarchy::new(TestbedConfig::tiny_for_tests()))
    }

    #[test]
    fn private_hit_path_needs_no_shared_state() {
        let h = shared();
        let mut bus = h.core_bus(0);
        let cold = bus.access(0, 0x1000, 64, AccessKind::Read);
        let warm = bus.access(0, 0x1000, 64, AccessKind::Read);
        assert!(cold > warm);
        assert_eq!(bus.stats().l1_hits, 1);
        assert_eq!(h.stats().dram_accesses, 1);
    }

    #[test]
    fn dma_invalidation_reaches_private_caches_through_the_inbox() {
        let h = shared();
        h.set_stashing(true);
        let mut bus = h.core_bus(1);
        // Cache the line privately, then let DMA overwrite it.
        bus.access(1, 0x4000, 64, AccessKind::Read);
        bus.access(1, 0x4000, 64, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1);
        h.dma_write(0x4000, 64);
        // The next access must *not* be a private hit: the stale copy is gone
        // and the authoritative stashed copy is in the LLC.
        let before_llc = h.stats().llc_hits;
        bus.access(1, 0x4000, 64, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1, "no stale private hit");
        assert_eq!(h.stats().llc_hits, before_llc + 1);
        assert!(bus.stats().invalidations_applied >= 1);
    }

    #[test]
    fn one_byte_dma_invalidates_the_polling_core_like_a_frame_does() {
        // The §VI-A2 credit return is a one-byte put into the sender's flag
        // region: its DMA delivery must ride the same inbox contract as a
        // full inbound frame, even though the write is far below a cache
        // line. A core spinning on the flag word caches it privately; the
        // credit's delivery invalidates that line through the core's inbox,
        // and the poll that observes the token is the one that re-fetches
        // the freshly stashed line — which is exactly what the sender lane's
        // per-acquire bus charge models.
        let h = shared();
        h.set_stashing(true);
        let mut bus = h.core_bus(2);
        bus.access(2, 0x6000, 1, AccessKind::Read);
        bus.access(2, 0x6000, 1, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1, "the spin loop hits its own L1");
        let cost = h.dma_write(0x6000, 1);
        assert!(cost > SimTime::ZERO, "a sub-line DMA still installs a line");
        assert_eq!(h.stats().stashed_lines, 1);
        let before_llc = h.stats().llc_hits;
        bus.access(2, 0x6000, 1, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 1, "no stale private hit on the token");
        assert_eq!(
            h.stats().llc_hits,
            before_llc + 1,
            "re-read finds the stash"
        );
        assert!(bus.stats().invalidations_applied >= 1);
    }

    #[test]
    fn unstashed_dma_forces_dram_on_every_core() {
        let h = shared();
        h.set_stashing(false);
        let mut a = h.core_bus(0);
        let mut b = h.core_bus(1);
        a.access(0, 0x2000, 64, AccessKind::Read);
        b.access(1, 0x2000, 64, AccessKind::Read);
        h.reset_stats();
        h.dma_write(0x2000, 64);
        a.access(0, 0x2000, 64, AccessKind::Read);
        b.access(1, 0x2000, 64, AccessKind::Read);
        // First re-toucher goes to DRAM; the second finds the refill upstream,
        // but neither sees a stale private copy.
        assert!(h.stats().dram_accesses >= 1);
        assert_eq!(h.stats().dma_dram_lines, 1);
    }

    #[test]
    fn parity_with_monolithic_model() {
        // The same access streams charge identical costs, produce identical
        // counters and leave identical LLC contents in both models, with the
        // prefetcher off and on, under either stash setting. Core 0 reads
        // ascending, rewrites those lines and fetches code; core 2 (the other
        // cluster) reads a descending range. Then core 0 writes a sequential
        // range whose prefetch lookahead runs past its end and core 2 re-reads
        // it, while puts land in its middle. The footprint stays well inside
        // the LLC.
        for prefetch in [false, true] {
            for stashing in [true, false] {
                let mut cfg = TestbedConfig::tiny_for_tests();
                cfg.prefetch.enabled = prefetch;
                cfg.llc_stashing = stashing;
                let line_size = cfg.caches.llc.line_size as u64;
                let degree = cfg.prefetch.degree as u64;
                let mut mono = CacheHierarchy::new(cfg.clone());
                let sh = Arc::new(SharedHierarchy::new(cfg));
                let mut buses = [sh.core_bus(0), sh.core_bus(2)];
                let write_base = 0x8000u64;
                let write_lines = 48u64;
                let pattern: Vec<(usize, u64, usize, AccessKind)> = (0..32u64)
                    .map(|i| (0, i * 64, 64, AccessKind::Read))
                    .chain((0..32u64).map(|i| (0, i * 64, 8, AccessKind::Write)))
                    .chain((0..8u64).map(|i| (0, 0x9000 + i * 128, 256, AccessKind::Fetch)))
                    .chain(
                        (0..24u64)
                            .rev()
                            .map(|i| (1, 0x4000 + i * 64, 64, AccessKind::Read)),
                    )
                    .chain(
                        (0..write_lines).map(|i| (0, write_base + i * 64, 64, AccessKind::Write)),
                    )
                    .chain((0..write_lines).map(|i| (1, write_base + i * 64, 8, AccessKind::Read)))
                    .collect();
                let (mut t_mono, mut t_shard) = (SimTime::ZERO, SimTime::ZERO);
                for (step, &(bus, addr, len, kind)) in pattern.iter().enumerate() {
                    let core = buses[bus].core();
                    t_mono += mono.access(core, addr, len, kind);
                    t_shard += buses[bus].access(core, addr, len, kind);
                    if step % 16 == 0 {
                        t_mono += mono.dma_write(write_base + 16 * 64, 256);
                        t_shard += sh.dma_write(write_base + 16 * 64, 256);
                    }
                }
                let ctx = format!("prefetch={prefetch} stashing={stashing}");
                assert_eq!(t_mono, t_shard, "{ctx}: cost models diverged");
                let mut merged = sh.stats();
                for bus in &buses {
                    merged.absorb_core(&bus.stats());
                }
                assert_eq!(merged, mono.stats(), "{ctx}");
                assert_eq!(merged.prefetch_hits > 0, prefetch, "{ctx}");
                assert!(merged.prefetch_hits <= merged.prefetches_issued, "{ctx}");
                let past_end = write_base / line_size + write_lines;
                for line in 0..past_end + degree + 4 {
                    assert_eq!(
                        sh.llc_contains(line * line_size),
                        mono.llc_contains(line * line_size),
                        "{ctx}: LLC line {line:#x}"
                    );
                }
                assert_eq!(
                    (past_end..past_end + degree).all(|l| mono.llc_contains(l * line_size)),
                    prefetch,
                    "{ctx}: the write stream's lookahead runs past its end"
                );
                assert!(
                    !mono.llc_contains((past_end + degree) * line_size),
                    "{ctx}: and no further than degree lines"
                );
            }
        }
    }

    #[test]
    fn evicted_prefetches_never_count_as_prefetch_hits() {
        // A prefetched line that leaves the LLC before any demand, and is then
        // refilled by a demand miss, is ordinary data: the later hit on it is
        // not a prefetch hit in either model, whether a DMA stash or a later
        // prefetch install evicted it.
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.prefetch.enabled = true;
        let line_size = cfg.caches.llc.line_size as u64;
        let sets = cfg.caches.llc.sets() as u64;
        let ways = cfg.caches.llc.ways as u64;
        let degree = cfg.prefetch.degree as u64;
        let mut mono = CacheHierarchy::new(cfg.clone());
        let sh = Arc::new(SharedHierarchy::new(cfg));
        // Core 0 trains on lines 0..=2 and prefetches 3..=2+degree; core 1
        // (same cluster) evicts by prefetch, core 2 (other cluster) refills.
        let mut buses = [sh.core_bus(0), sh.core_bus(1), sh.core_bus(2)];
        let run = |mono: &mut CacheHierarchy, bus: &mut CoreBus, line: u64| {
            let core = bus.core();
            let t = mono.access(core, line * line_size, 8, AccessKind::Read);
            assert_eq!(t, bus.access(core, line * line_size, 8, AccessKind::Read));
        };
        for line in 0..3 {
            run(&mut mono, &mut buses[0], line);
        }
        let by_stash = 2 + degree;
        let by_prefetch = 1 + degree;
        // Fill the stashed line's set through the stash port...
        for k in 1..=ways {
            mono.dma_write((by_stash + k * sets) * line_size, 8);
            sh.dma_write((by_stash + k * sets) * line_size, 8);
        }
        // ...and the other line's set with core 1's trained prefetch runs.
        for k in 1..=ways {
            let base = by_prefetch + k * sets - 3;
            for line in base..base + 3 {
                run(&mut mono, &mut buses[1], line);
            }
        }
        for line in [by_stash, by_prefetch] {
            assert!(!mono.llc_contains(line * line_size), "line {line} evicted");
            assert!(!sh.llc_contains(line * line_size), "line {line} evicted");
        }
        let before = mono.stats().prefetch_hits;
        for line in [by_stash, by_prefetch] {
            run(&mut mono, &mut buses[2], line); // demand refill from DRAM
            run(&mut mono, &mut buses[0], line); // LLC hit on the refilled line
        }
        let mut merged = sh.stats();
        for bus in &buses {
            merged.absorb_core(&bus.stats());
        }
        assert_eq!(merged, mono.stats());
        assert_eq!(mono.stats().prefetch_hits, before, "stale marks counted");
        assert!(merged.prefetch_hits <= merged.prefetches_issued);
    }

    #[test]
    fn dma_parity_with_monolithic_model() {
        // Mailbox-shaped traffic: unaligned multi-line frames delivered into two
        // reused slots, each followed by a poll of the header line and a read of
        // the whole frame on a core in each cluster. Between puts the pollers hold
        // the slot's lines in L1/L2, so every put must drop them through the inbox
        // (batched per put) exactly where the monolithic model drops them inline.
        for stashing in [true, false] {
            let cfg = TestbedConfig::tiny_for_tests();
            let line_size = cfg.caches.llc.line_size as u64;
            let mut mono = CacheHierarchy::new(cfg.clone());
            mono.set_stashing(stashing);
            let sh = Arc::new(SharedHierarchy::new(cfg.clone()));
            sh.set_stashing(stashing);
            let mut buses = [sh.core_bus(1), sh.core_bus(2)];
            let (mut t_mono, mut t_shard) = (SimTime::ZERO, SimTime::ZERO);
            let mut held = 0;
            for round in 0..8u64 {
                for slot in 0..2u64 {
                    let addr = 0x10_0000 + slot * 1280 + round % 3;
                    let len = 1173;
                    let (first, last) = sh.lines_covering(addr, len);
                    for bus in &buses {
                        held += (first..=last)
                            .filter(|l| {
                                bus.l1.contains(l * line_size) || bus.l2.contains(l * line_size)
                            })
                            .count() as u64;
                    }
                    t_mono += mono.dma_write(addr, len);
                    t_shard += sh.dma_write(addr, len);
                    for bus in &mut buses {
                        let core = bus.core();
                        for _ in 0..3 {
                            t_mono += mono.access(core, addr, 16, AccessKind::Read);
                            t_shard += bus.access(core, addr, 16, AccessKind::Read);
                        }
                        t_mono += mono.access(core, addr, len, AccessKind::Read);
                        t_shard += bus.access(core, addr, len, AccessKind::Read);
                    }
                }
            }
            assert_eq!(t_mono, t_shard, "stashing={stashing}");
            for cluster in 0..cfg.num_clusters() {
                for line in (0x10_0000 / line_size)..((0x10_0000 + 2 * 1280) / line_size) {
                    let byte = line * line_size;
                    assert_eq!(
                        sh.l3[cluster].lock().contains(byte),
                        mono.l3_contains(cluster, byte),
                        "stashing={stashing} L3 slice {cluster} line {line:#x}"
                    );
                }
            }
            let applied: u64 = buses.iter().map(|b| b.stats().invalidations_applied).sum();
            assert!(held > 0, "the pollers must hold delivered lines privately");
            assert_eq!(applied, held, "one invalidation per privately held line");
            let mut merged = sh.stats();
            for bus in &buses {
                merged.absorb_core(&bus.stats());
            }
            assert_eq!(merged, mono.stats(), "stashing={stashing}");
            assert_eq!(sh.dram_model_accesses(), mono.dram_model_accesses());
        }
    }

    #[test]
    fn dram_channel_striping_keeps_parity_with_monolithic_model() {
        // A DRAM-heavy stream (every access a distinct line, far beyond the
        // tiny caches) must charge exactly the monolithic model's costs: the
        // channel split relocates the lock, not the latency. Write traffic
        // forces dirty evictions so the victim-writeback channel routing is
        // exercised too.
        let cfg = TestbedConfig::tiny_for_tests();
        let mut mono = CacheHierarchy::new(cfg.clone());
        let sh = Arc::new(SharedHierarchy::new(cfg));
        let mut bus = sh.core_bus(0);
        let mut t_mono = SimTime::ZERO;
        let mut t_shard = SimTime::ZERO;
        for i in 0..512u64 {
            let addr = i * 64 * 3; // stride across sets, stripes and channels
            t_mono += mono.access(0, addr, 64, AccessKind::Write);
            t_shard += bus.access(0, addr, 64, AccessKind::Write);
        }
        assert_eq!(t_mono, t_shard, "striped DRAM cost diverged");
        let mut merged = sh.stats();
        merged.absorb_core(&bus.stats());
        assert_eq!(merged.dram_accesses, mono.stats().dram_accesses);
        assert_eq!(merged.writebacks, mono.stats().writebacks);
    }

    #[test]
    fn dram_channels_spread_traffic_and_conserve_accesses() {
        let h = shared();
        let mut bus = h.core_bus(0);
        // 64 distinct lines -> every channel serves some fills, and the
        // aggregate model-access count matches the demand-fill counter (no
        // write traffic, so no write-backs inflate it).
        for i in 0..64u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert_eq!(h.dram_model_accesses(), h.stats().dram_accesses);
        assert_eq!(h.stats().dram_accesses, 64);
        let spread: Vec<u64> = h
            .dram
            .channels
            .iter()
            .map(|c| c.lock().accesses())
            .collect();
        assert_eq!(spread.len(), DRAM_CHANNELS);
        assert!(
            spread.iter().all(|&n| n > 0),
            "interleaved lines must touch every channel: {spread:?}"
        );
    }

    #[test]
    fn dram_channels_are_independently_lockable_under_threads() {
        // Four cores hammer disjoint DRAM-missing footprints concurrently;
        // totals must conserve (each access lands at exactly one level) and
        // the channel counters must sum to the shared demand counter plus the
        // write-backs the evictions generated.
        let h = shared();
        let buses: Vec<Mutex<CoreBus>> = (0..4).map(|c| Mutex::new(h.core_bus(c))).collect();
        std::thread::scope(|s| {
            for (c, slot) in buses.iter().enumerate() {
                s.spawn(move || {
                    let mut bus = slot.lock();
                    for i in 0..256u64 {
                        bus.access(c, (c as u64) << 24 | (i * 64), 64, AccessKind::Write);
                    }
                });
            }
        });
        // Each core touched 256 distinct cold lines: every one is a DRAM
        // demand fill, none may be lost or double-counted by the channel
        // split.
        assert_eq!(h.stats().dram_accesses, 4 * 256);
        let spread: Vec<u64> = h
            .dram
            .channels
            .iter()
            .map(|c| c.lock().accesses())
            .collect();
        assert!(
            spread.iter().all(|&n| n > 0),
            "every channel must have served traffic: {spread:?}"
        );
        assert!(
            h.dram_model_accesses() >= h.stats().dram_accesses,
            "channel totals cover at least the demand fills (plus write-backs)"
        );
    }

    #[test]
    fn llc_stripes_are_independently_lockable() {
        // Smoke the concurrency story: four threads, four cores, disjoint and
        // overlapping footprints; totals must conserve accesses.
        let h = shared();
        let buses: Vec<Mutex<CoreBus>> = (0..4).map(|c| Mutex::new(h.core_bus(c))).collect();
        std::thread::scope(|s| {
            for (c, slot) in buses.iter().enumerate() {
                s.spawn(move || {
                    let mut bus = slot.lock();
                    for i in 0..256u64 {
                        bus.access(c, (c as u64) << 20 | (i * 64), 64, AccessKind::Read);
                        bus.access(c, 0xF_0000 + i * 64, 8, AccessKind::Read);
                    }
                });
            }
        });
        let mut merged = h.stats();
        let mut private = 0;
        for slot in &buses {
            let bus = slot.lock();
            merged.absorb_core(&bus.stats());
            private += bus.stats().l1_hits + bus.stats().l2_hits;
        }
        let shared_level = merged.l3_hits + merged.llc_hits + merged.dram_accesses;
        assert_eq!(
            private + shared_level,
            4 * 512,
            "every access lands at exactly one level"
        );
    }

    #[test]
    fn warm_makes_local_library_private_hits() {
        let h = shared();
        let mut bus = h.core_bus(0);
        bus.warm(0x9000, 512);
        bus.reset_stats();
        h.reset_stats();
        bus.access(0, 0x9000, 512, AccessKind::Fetch);
        assert_eq!(h.stats().dram_accesses, 0);
        assert_eq!(bus.stats().l1_hits + bus.stats().l2_hits, 8);
    }

    #[test]
    fn clear_posts_full_flush() {
        let h = shared();
        let mut bus = h.core_bus(0);
        bus.access(0, 0, 64, AccessKind::Read);
        h.clear();
        h.reset_stats();
        bus.reset_stats();
        bus.access(0, 0, 64, AccessKind::Read);
        assert_eq!(bus.stats().l1_hits, 0, "private copy was flushed");
        assert_eq!(h.stats().dram_accesses, 1);
    }

    #[test]
    fn prefetch_disable_before_bus_creation_is_honoured() {
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.prefetch.enabled = true;
        cfg.llc_stashing = false;
        let h = Arc::new(SharedHierarchy::new(cfg));
        // The toggle lands *before* the bus exists; the bus must still see it.
        h.set_prefetching(false);
        let mut bus = h.core_bus(0);
        for i in 0..64u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert_eq!(bus.stats().prefetches_issued, 0);
    }

    #[test]
    fn prefetch_generation_reset_is_observed() {
        let mut cfg = TestbedConfig::tiny_for_tests();
        cfg.prefetch.enabled = true;
        cfg.llc_stashing = false;
        let h = Arc::new(SharedHierarchy::new(cfg));
        let mut bus = h.core_bus(0);
        for i in 0..64u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert!(bus.stats().prefetches_issued > 0);
        h.set_prefetching(false);
        bus.reset_stats();
        for i in 64..128u64 {
            bus.access(0, i * 64, 64, AccessKind::Read);
        }
        assert_eq!(
            bus.stats().prefetches_issued,
            0,
            "disabled prefetcher issues nothing"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn core_bounds_are_checked() {
        let h = shared();
        let _ = h.core_bus(99);
    }
}
