//! Hardware stride prefetcher model.
//!
//! The paper's servers expose firmware/kernel controls to toggle the CPU prefetching
//! mechanisms, and the evaluation leans on the prefetcher to explain why the
//! stash/non-stash latency gap narrows at large message sizes: "once the message size
//! is large enough to trigger the prefetcher to start pulling the message data on
//! arrival, the difference in latency for messages going to DRAM versus LLC starts
//! narrowing, as prefetches are issued ahead enough to mask the larger DRAM access
//! latency" (§VII-B).
//!
//! [`StridePrefetcher`] is a classic per-stream, next-N-lines prefetcher: it observes
//! demand misses, detects unit-stride streams after a configurable training
//! threshold, and then keeps a **bounded** lookahead of `degree` lines ahead of
//! demand, as real stride prefetchers do. Each observation of a trained stream
//! issues only the lines between what the stream already issued and
//! `line + direction · degree`: the first trained observation issues `degree`
//! lines, a stream advancing one line at a time issues one more line per
//! observation, and the lookahead never runs further than `degree` lines ahead
//! of demand. A descending stream stops at line 0.
//!
//! The hierarchy asks it one question per demand miss (or prefetch hit):
//! *which lines should be prefetched next?* The answer is always one contiguous
//! [`PrefetchRun`]. Whether a demand hit was covered by a prefetch is not
//! tracked here: the hierarchies keep that mark on the LLC way itself
//! ([`SetAssocCache::prefetch_line`](crate::cache::SetAssocCache::prefetch_line)
//! sets it, [`SetAssocCache::take_prefetched`](crate::cache::SetAssocCache::take_prefetched)
//! consumes it), so it leaves the cache together with the line.

use crate::config::PrefetchConfig;
use std::collections::VecDeque;

/// A single detected access stream.
#[derive(Debug, Clone, Copy)]
struct Stream {
    /// Last line observed for this stream.
    last_line: u64,
    /// Detected stride in lines (only +1/-1 unit strides are trained; larger strides
    /// are tracked but never trigger, matching conservative real prefetchers).
    stride: i64,
    /// Consecutive confirmations of the stride.
    confidence: usize,
    /// Furthest line issued as a prefetch for this stream under its current
    /// stride. Reset to the demand line whenever the stride changes, so a value
    /// at or behind demand means nothing is outstanding.
    issued_until: u64,
}

/// The lines one [`StridePrefetcher::observe_miss`] call issues: a contiguous run
/// in one direction, iterated in issue order (nearest to demand first).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetchRun {
    next: u64,
    remaining: usize,
    descending: bool,
}

impl PrefetchRun {
    /// Whether the run issues nothing.
    pub fn is_empty(&self) -> bool {
        self.remaining == 0
    }
}

impl Iterator for PrefetchRun {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.remaining == 0 {
            return None;
        }
        let line = self.next;
        self.remaining -= 1;
        if self.remaining > 0 {
            self.next = if self.descending { line - 1 } else { line + 1 };
        }
        Some(line)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for PrefetchRun {}

/// Per-core stride prefetcher.
#[derive(Debug, Clone)]
pub struct StridePrefetcher {
    cfg: PrefetchConfig,
    streams: VecDeque<Stream>,
    issued: u64,
    useful: u64,
}

impl StridePrefetcher {
    /// Build a prefetcher from configuration; if `cfg.enabled` is false the
    /// prefetcher never issues anything.
    pub fn new(cfg: PrefetchConfig) -> Self {
        StridePrefetcher {
            cfg,
            streams: VecDeque::new(),
            issued: 0,
            useful: 0,
        }
    }

    /// Whether the prefetcher is enabled at all.
    pub fn enabled(&self) -> bool {
        self.cfg.enabled
    }

    /// Total prefetches issued.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Prefetches that were later hit by a demand access (usefulness accounting is
    /// done by the hierarchy calling [`StridePrefetcher::record_useful`]).
    pub fn useful(&self) -> u64 {
        self.useful
    }

    /// Record that a demand access hit a line that was brought in by a prefetch.
    pub fn record_useful(&mut self) {
        self.useful += 1;
    }

    /// Observe a demand access to `line` (line index, not byte address) that missed
    /// in the private caches. Returns the run of lines that should be prefetched as
    /// a consequence (possibly empty, never more than `degree` lines).
    pub fn observe_miss(&mut self, line: u64) -> PrefetchRun {
        if !self.cfg.enabled {
            return PrefetchRun::default();
        }

        // Find a stream whose next expected line matches (within a small window).
        let matched = self.streams.iter().position(|s| {
            let delta = line as i64 - s.last_line as i64;
            delta != 0 && delta.abs() <= 4
        });

        let Some(i) = matched else {
            // New stream.
            if self.streams.len() >= self.cfg.streams {
                self.streams.pop_front();
            }
            self.streams.push_back(Stream {
                last_line: line,
                stride: 0,
                confidence: 0,
                issued_until: line,
            });
            return PrefetchRun::default();
        };

        let s = &mut self.streams[i];
        let delta = line as i64 - s.last_line as i64;
        if delta == s.stride {
            s.confidence += 1;
        } else {
            s.stride = delta;
            s.confidence = 1;
            s.issued_until = line;
        }
        s.last_line = line;
        if s.confidence < self.cfg.train_threshold || s.stride.abs() != 1 {
            return PrefetchRun::default();
        }

        // Trained: top the lookahead up to `degree` lines ahead of demand,
        // resuming after the last issued line unless demand caught up with it.
        let degree = self.cfg.degree as u64;
        let descending = s.stride < 0;
        let (from, target) = if descending {
            (s.issued_until.min(line), line.saturating_sub(degree))
        } else {
            (s.issued_until.max(line), line.saturating_add(degree))
        };
        let count = from.abs_diff(target) as usize;
        s.issued_until = target;
        self.issued += count as u64;
        PrefetchRun {
            next: if descending {
                from.wrapping_sub(1)
            } else {
                from.wrapping_add(1)
            },
            remaining: count,
            descending,
        }
    }

    /// Forget all trained streams (e.g. between benchmark iterations that should not
    /// benefit from each other's training).
    pub fn reset(&mut self) {
        self.streams.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(enabled: bool) -> PrefetchConfig {
        PrefetchConfig {
            enabled,
            train_threshold: 2,
            degree: 4,
            streams: 4,
        }
    }

    #[test]
    fn disabled_prefetcher_never_issues() {
        let mut p = StridePrefetcher::new(cfg(false));
        for i in 0..64 {
            assert!(p.observe_miss(i).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn sequential_stream_trains_and_issues() {
        let mut p = StridePrefetcher::new(cfg(true));
        let mut issued = Vec::new();
        for i in 100..120u64 {
            issued.extend(p.observe_miss(i));
        }
        assert!(
            p.issued() > 0,
            "sequential misses must train the prefetcher"
        );
        // Issued lines should be ahead of the access stream.
        assert!(issued.iter().all(|&l| l > 100));
        assert!(
            issued.iter().any(|&l| l >= 110),
            "lookahead should run ahead of demand"
        );
    }

    /// Drive `lines` through a fresh prefetcher with `degree` 8 and check the
    /// lookahead bound: nothing issued further than `degree` lines past the
    /// demand that issued it, and no more issues than demand lines + `degree`.
    fn assert_lookahead_bounded(lines: impl Iterator<Item = u64>, descending: bool) {
        let degree = 8;
        let mut p = StridePrefetcher::new(PrefetchConfig {
            enabled: true,
            train_threshold: 3,
            degree,
            streams: 4,
        });
        let mut demand = 0u64;
        for line in lines {
            demand += 1;
            let run = p.observe_miss(line);
            assert!(run.len() <= degree, "one observation issues at most degree");
            for pline in run {
                if descending {
                    assert!(pline < line && line - pline <= degree as u64);
                } else {
                    assert!(pline > line && pline - line <= degree as u64);
                }
            }
        }
        assert!(p.issued() > 0);
        assert!(
            p.issued() <= demand + degree as u64,
            "{} issued for {demand} demand lines",
            p.issued()
        );
    }

    #[test]
    fn ascending_lookahead_stays_within_degree_of_demand() {
        assert_lookahead_bounded(5_000..6_000u64, false);
        // The whole stream's furthest issue is bounded by its last demand line.
        let mut p = StridePrefetcher::new(PrefetchConfig {
            enabled: true,
            train_threshold: 3,
            degree: 8,
            streams: 4,
        });
        let max = (5_000..6_000u64).flat_map(|l| p.observe_miss(l)).max();
        assert_eq!(max, Some(5_999 + 8));
    }

    #[test]
    fn descending_lookahead_stays_within_degree_of_demand() {
        assert_lookahead_bounded((5_000..6_000u64).rev(), true);
    }

    #[test]
    fn a_trained_stream_issues_one_line_per_demand_line() {
        let mut p = StridePrefetcher::new(cfg(true));
        let runs: Vec<Vec<u64>> = (100..110u64).map(|l| p.observe_miss(l).collect()).collect();
        assert!(runs[0].is_empty(), "first miss opens the stream");
        assert!(
            runs[1].is_empty(),
            "one confirmation is below the threshold"
        );
        assert_eq!(runs[2], vec![103, 104, 105, 106], "training issues degree");
        for (i, run) in runs.iter().enumerate().skip(3) {
            assert_eq!(run, &vec![100 + i as u64 + 4], "steady state tops up one");
        }
    }

    #[test]
    fn issuing_restarts_at_the_new_line_after_a_stream_jump() {
        let mut p = StridePrefetcher::new(cfg(true));
        for l in 100..110u64 {
            p.observe_miss(l);
        }
        // A jump inside the match window retrains the stream at its new
        // position instead of resuming after the old lookahead.
        assert!(p.observe_miss(112).is_empty(), "stride 3 does not issue");
        assert!(
            p.observe_miss(113).is_empty(),
            "one confirmation retrains nothing"
        );
        let run: Vec<u64> = p.observe_miss(114).collect();
        assert_eq!(run, vec![115, 116, 117, 118]);
        // A jump far away opens a new stream, which issues from its own lines.
        for l in 9_000..9_002u64 {
            p.observe_miss(l);
        }
        let run: Vec<u64> = p.observe_miss(9_002).collect();
        assert_eq!(run, vec![9_003, 9_004, 9_005, 9_006]);
    }

    #[test]
    fn descending_stream_near_line_zero_stops_at_zero() {
        let mut p = StridePrefetcher::new(PrefetchConfig {
            enabled: true,
            train_threshold: 2,
            degree: 8,
            streams: 4,
        });
        let mut issued = Vec::new();
        for line in (0..=5u64).rev() {
            issued.extend(p.observe_miss(line));
        }
        assert!(!issued.is_empty(), "the stream trains");
        assert!(
            issued.iter().all(|&l| l < 5),
            "no line above the stream's start: {issued:?}"
        );
        let mut sorted = issued.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), issued.len(), "no line issued twice");
    }

    #[test]
    fn random_accesses_do_not_train() {
        let mut p = StridePrefetcher::new(cfg(true));
        // Widely scattered lines never form a unit-stride stream.
        for &l in &[10u64, 5000, 23, 9000, 77, 40000, 123, 60000] {
            assert!(p.observe_miss(l).is_empty());
        }
        assert_eq!(p.issued(), 0);
    }

    #[test]
    fn short_streams_below_threshold_do_not_issue() {
        let mut p = StridePrefetcher::new(PrefetchConfig {
            enabled: true,
            train_threshold: 4,
            degree: 4,
            streams: 4,
        });
        let mut total = 0;
        for i in 0..4u64 {
            total += p.observe_miss(i).len();
        }
        assert_eq!(
            total, 0,
            "threshold 4 needs more confirmations than 4 misses provide"
        );
    }

    #[test]
    fn descending_streams_train_too() {
        let mut p = StridePrefetcher::new(cfg(true));
        let mut issued = Vec::new();
        for i in (0..20u64).rev().map(|i| i + 1000) {
            issued.extend(p.observe_miss(i));
        }
        assert!(!issued.is_empty());
        assert!(issued.iter().all(|&l| l < 1020));
    }

    #[test]
    fn stream_table_capacity_is_bounded() {
        let mut p = StridePrefetcher::new(cfg(true));
        // Open more streams than the table can hold; should not panic or grow unboundedly.
        for base in 0..100u64 {
            p.observe_miss(base * 10_000);
        }
        assert!(p.streams.len() <= 4);
    }

    #[test]
    fn usefulness_counter() {
        let mut p = StridePrefetcher::new(cfg(true));
        p.record_useful();
        p.record_useful();
        assert_eq!(p.useful(), 2);
    }

    #[test]
    fn reset_clears_training() {
        let mut p = StridePrefetcher::new(cfg(true));
        for i in 0..10u64 {
            p.observe_miss(i);
        }
        p.reset();
        // After reset the next miss opens a brand new stream and issues nothing.
        assert!(p.observe_miss(11).is_empty());
    }
}
