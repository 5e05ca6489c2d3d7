//! Generic set-associative cache with true-LRU replacement.
//!
//! The cache tracks *tags only*; data contents live in the real process memory that
//! the runtime operates on. That is all the timing model needs: whether a line is
//! present at a level, whether it is dirty, and which line a fill evicts.

use crate::config::CacheLevelConfig;

/// What kind of access is being performed. Instruction fetches are distinguished from
/// data reads only for statistics; the paper's platform stashes both code and data
/// into the same LLC.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// Data load.
    Read,
    /// Data store.
    Write,
    /// Instruction fetch (the injected function code path).
    Fetch,
}

impl AccessKind {
    /// True for accesses that mark the line dirty.
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

/// Result of a lookup+fill operation on one level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FillOutcome {
    /// Whether the line was already present (hit).
    pub hit: bool,
    /// If a fill evicted a dirty victim, its line address (unit: line index, i.e.
    /// byte address / line size).
    pub dirty_victim: Option<u64>,
}

#[derive(Debug, Clone, Copy)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Installed by the prefetcher and not yet demanded. The mark lives and dies
    /// with the way, so an evicted or invalidated line cannot leave it behind.
    prefetched: bool,
    /// LRU timestamp: larger = more recently used.
    stamp: u64,
}

impl Way {
    const fn empty() -> Self {
        Way {
            tag: 0,
            valid: false,
            dirty: false,
            prefetched: false,
            stamp: 0,
        }
    }
}

/// Per-level hit/miss statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Number of accesses that hit.
    pub hits: u64,
    /// Number of accesses that missed.
    pub misses: u64,
    /// Number of dirty evictions (write-backs generated).
    pub writebacks: u64,
    /// Number of lines installed through the stash port rather than demand fills.
    pub stashed_lines: u64,
}

impl CacheStats {
    /// Total accesses observed.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Hit rate in \[0,1\]; 0 if no accesses.
    pub fn hit_rate(&self) -> f64 {
        let total = self.accesses();
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A set-associative, write-back, write-allocate cache model (tags only).
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    cfg: CacheLevelConfig,
    sets: usize,
    ways_per_set: usize,
    line_shift: u32,
    ways: Vec<Way>,
    tick: u64,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Build an empty cache with the given geometry.
    pub fn new(cfg: CacheLevelConfig) -> Self {
        let sets = cfg.sets();
        let ways_per_set = cfg.ways;
        assert!(
            cfg.line_size.is_power_of_two(),
            "line size must be a power of two"
        );
        SetAssocCache {
            cfg,
            sets,
            ways_per_set,
            line_shift: cfg.line_size.trailing_zeros(),
            ways: vec![Way::empty(); sets * ways_per_set],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The geometry this cache was built with.
    pub fn config(&self) -> CacheLevelConfig {
        self.cfg
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics without touching cache contents (used between benchmark
    /// warm-up and measurement phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Drop all lines and statistics.
    pub fn clear(&mut self) {
        for w in &mut self.ways {
            *w = Way::empty();
        }
        self.tick = 0;
        self.stats = CacheStats::default();
    }

    #[inline]
    fn line_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line as usize) % self.sets
    }

    #[inline]
    fn set_slice(&mut self, set: usize) -> &mut [Way] {
        let start = set * self.ways_per_set;
        &mut self.ways[start..start + self.ways_per_set]
    }

    /// The way a fill of this set replaces: an invalid way first, otherwise the
    /// LRU one.
    #[inline]
    fn victim_index(ways: &[Way]) -> usize {
        match ways.iter().position(|w| !w.valid) {
            Some(i) => i,
            None => ways
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("set has at least one way"),
        }
    }

    /// Probe for the line containing `addr` without changing LRU state or stats.
    pub fn contains(&self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let start = set * self.ways_per_set;
        self.ways[start..start + self.ways_per_set]
            .iter()
            .any(|w| w.valid && w.tag == line)
    }

    /// Access the line containing `addr`. On a miss the line is filled (allocate on
    /// read and write); the outcome reports whether a dirty victim was evicted so the
    /// caller can charge a write-back.
    pub fn access(&mut self, addr: u64, kind: AccessKind) -> FillOutcome {
        let line = self.line_of(addr);
        self.access_line(line, kind)
    }

    /// Access by pre-computed line index (byte address / line size).
    pub fn access_line(&mut self, line: u64, kind: AccessKind) -> FillOutcome {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let ways = self.set_slice(set);

        // Hit path.
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == line) {
            w.stamp = tick;
            if kind.is_write() {
                w.dirty = true;
            }
            self.stats.hits += 1;
            return FillOutcome {
                hit: true,
                dirty_victim: None,
            };
        }

        // Miss: fill, choosing an invalid way first, otherwise the LRU victim.
        let victim_idx = Self::victim_index(ways);
        let victim = ways[victim_idx];
        let dirty_victim = if victim.valid && victim.dirty {
            Some(victim.tag)
        } else {
            None
        };
        ways[victim_idx] = Way {
            tag: line,
            valid: true,
            dirty: kind.is_write(),
            prefetched: false,
            stamp: tick,
        };
        self.stats.misses += 1;
        if dirty_victim.is_some() {
            self.stats.writebacks += 1;
        }
        FillOutcome {
            hit: false,
            dirty_victim,
        }
    }

    /// Install a line without it being a demand access — the *stash port*. The line is
    /// installed clean-from-the-core's-perspective but marked dirty, because stashed
    /// data arrived from the device and has not been written back to DRAM yet (the
    /// paper notes stashed traffic is "eventually written back to the main memory").
    /// Device data is not prefetched data, so a stash clears the line's prefetched
    /// mark.
    ///
    /// Returns the dirty victim line if one had to be evicted.
    pub fn stash_line(&mut self, line: u64) -> Option<u64> {
        self.install(line, false)
    }

    /// Install a line on behalf of the hardware prefetcher: the same port and
    /// write-back accounting as [`SetAssocCache::stash_line`], but the line is
    /// marked prefetched until a demand hit consumes the mark
    /// ([`SetAssocCache::take_prefetched`]) or the line leaves the cache.
    ///
    /// Returns the dirty victim line if one had to be evicted.
    pub fn prefetch_line(&mut self, line: u64) -> Option<u64> {
        self.install(line, true)
    }

    /// Consume the prefetched mark of line `line`: true when the line is resident
    /// and was installed by [`SetAssocCache::prefetch_line`] since its last
    /// consumed mark. Touches neither LRU state nor statistics.
    pub fn take_prefetched(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        self.set_slice(set)
            .iter_mut()
            .find(|w| w.valid && w.tag == line)
            .is_some_and(|w| std::mem::replace(&mut w.prefetched, false))
    }

    fn install(&mut self, line: u64, prefetched: bool) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        self.stats.stashed_lines += 1;
        let set = self.set_of(line);
        let ways = self.set_slice(set);
        if let Some(w) = ways.iter_mut().find(|w| w.valid && w.tag == line) {
            // The line is already tracked: refresh it.
            w.stamp = tick;
            w.dirty = true;
            w.prefetched = prefetched;
            return None;
        }
        let victim_idx = Self::victim_index(ways);
        let victim = ways[victim_idx];
        let dirty_victim = if victim.valid && victim.dirty {
            Some(victim.tag)
        } else {
            None
        };
        ways[victim_idx] = Way {
            tag: line,
            valid: true,
            dirty: true,
            prefetched,
            stamp: tick,
        };
        if dirty_victim.is_some() {
            self.stats.writebacks += 1;
        }
        dirty_victim
    }

    /// Invalidate the line containing `addr` if present; returns true if a line was
    /// dropped. A dirty line is dropped without a write-back: invalidation is how a
    /// DMA overwrite makes every cached copy stale.
    pub fn invalidate(&mut self, addr: u64) -> bool {
        let line = self.line_of(addr);
        let set = self.set_of(line);
        let ways = self.set_slice(set);
        match ways.iter_mut().find(|w| w.valid && w.tag == line) {
            Some(w) => {
                *w = Way::empty();
                true
            }
            None => false,
        }
    }

    /// Number of valid lines currently resident (for tests and introspection).
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.cfg.line_size
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheLevelConfig;

    fn small_cache() -> SetAssocCache {
        // 4 sets x 2 ways x 64B lines = 512B
        SetAssocCache::new(CacheLevelConfig::new(512, 2, 64))
    }

    #[test]
    fn first_access_misses_second_hits() {
        let mut c = small_cache();
        assert!(!c.access(0x1000, AccessKind::Read).hit);
        assert!(c.access(0x1000, AccessKind::Read).hit);
        assert!(
            c.access(0x103F, AccessKind::Read).hit,
            "same line, different byte"
        );
        assert!(!c.access(0x1040, AccessKind::Read).hit, "next line");
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = small_cache();
        // Three lines mapping to the same set (set count = 4, so stride of 4 lines).
        let a = 0u64;
        let b = 4 * 64u64;
        let d = 8 * 64u64;
        c.access(a, AccessKind::Read);
        c.access(b, AccessKind::Read);
        // Touch `a` so `b` becomes LRU.
        c.access(a, AccessKind::Read);
        c.access(d, AccessKind::Read); // evicts b
        assert!(c.contains(a));
        assert!(!c.contains(b));
        assert!(c.contains(d));
    }

    #[test]
    fn dirty_eviction_reports_victim() {
        let mut c = small_cache();
        let a = 0u64;
        let b = 4 * 64u64;
        let d = 8 * 64u64;
        c.access(a, AccessKind::Write);
        c.access(b, AccessKind::Read);
        let out = c.access(d, AccessKind::Read); // evicts a (dirty)
        assert_eq!(out.dirty_victim, Some(0));
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn stash_installs_dirty_lines() {
        let mut c = small_cache();
        assert_eq!(c.stash_line(7), None);
        assert!(c.contains(7 * 64));
        assert_eq!(c.stats().stashed_lines, 1);
        // A later demand read of a stashed line is a hit.
        assert!(c.access(7 * 64, AccessKind::Read).hit);
        // Evicting it produces a write-back because stashed lines are dirty.
        let set_stride = 4u64;
        c.stash_line(7 + set_stride);
        let victim = c.stash_line(7 + 2 * set_stride);
        assert_eq!(victim, Some(7));
    }

    #[test]
    fn prefetched_mark_is_consumed_once_and_cleared_by_a_stash() {
        let mut c = small_cache();
        assert_eq!(c.prefetch_line(3), None);
        assert!(c.contains(3 * 64));
        assert!(c.access_line(3, AccessKind::Read).hit);
        assert!(c.take_prefetched(3), "first demand hit consumes the mark");
        assert!(!c.take_prefetched(3), "the mark is consumed once");
        c.prefetch_line(5);
        c.stash_line(5);
        assert!(!c.take_prefetched(5), "device data is not prefetched data");
        assert!(!c.take_prefetched(9), "absent lines carry no mark");
    }

    #[test]
    fn prefetched_mark_leaves_with_its_way() {
        let mut c = small_cache();
        let set_stride = 4u64;
        // Evicted by two later installs into the same set, then demand-refilled.
        c.prefetch_line(2);
        c.prefetch_line(2 + set_stride);
        c.stash_line(2 + 2 * set_stride);
        assert!(!c.contains(2 * 64));
        assert!(!c.access_line(2, AccessKind::Read).hit);
        assert!(!c.take_prefetched(2), "a demand refill carries no mark");
        // Invalidated, then demand-refilled.
        c.prefetch_line(7);
        assert!(c.invalidate(7 * 64));
        c.access_line(7, AccessKind::Read);
        assert!(!c.take_prefetched(7));
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small_cache();
        c.access(0x80, AccessKind::Write);
        c.access(0x100, AccessKind::Read);
        assert!(c.contains(0x80));
        assert!(
            c.invalidate(0x80),
            "dirty line invalidation reports presence"
        );
        assert!(
            c.invalidate(0x100),
            "clean line invalidation reports presence"
        );
        assert!(!c.contains(0x80));
        assert!(!c.invalidate(0x80), "second invalidation is a no-op");
    }

    #[test]
    fn stats_reset_keeps_contents() {
        let mut c = small_cache();
        c.access(0, AccessKind::Read);
        c.reset_stats();
        assert_eq!(c.stats().accesses(), 0);
        assert!(c.contains(0));
        c.clear();
        assert!(!c.contains(0));
    }

    #[test]
    fn hit_rate_math() {
        let mut c = small_cache();
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(0, AccessKind::Read);
        c.access(64, AccessKind::Read);
        let s = c.stats();
        assert_eq!(s.accesses(), 4);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bound_respected() {
        let mut c = small_cache(); // 8 lines total
        for i in 0..32u64 {
            c.access(i * 64, AccessKind::Read);
        }
        assert!(c.resident_lines() <= 8);
        assert_eq!(c.resident_lines(), 8);
    }
}
