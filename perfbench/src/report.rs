//! What a measured run produced, and the summary statistics drawn from it.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use twochains::jamvm::ExecStats;
use twochains::memsim::HierarchyStats;
use twochains::RuntimeStats;

use crate::calib::{Calibration, NOMINAL};

/// How a workload run is sized: set-up repetitions, then a fixed warm-up and
/// a fixed model window, counted in messages (closed loops) or fill+drain
/// rounds (stream).
pub struct Shape {
    pub setups: usize,
    pub warmup: u64,
    pub model: u64,
}

/// Raw results of one run of a workload (set-up repetitions, a warm-up and the
/// measured phase), before they are turned into metrics.
#[derive(Default)]
pub struct Phase {
    /// Wall seconds of each set-up repetition, in reference-machine time.
    pub setup_s: Vec<f64>,
    /// Wall seconds of the package install inside each set-up.
    pub install_s: Vec<f64>,
    /// Wall seconds of the sender connect / GOT export inside each set-up.
    pub connect_s: Vec<f64>,
    /// Messages offered over the whole run, warm-up included.
    pub offered: u64,
    /// Messages that executed exactly once with the result the oracle expects.
    pub ok: u64,
    /// Messages executed in the measured phase (the rates' numerator).
    pub measured: u64,
    /// Wall seconds of the measured phase.
    pub wall_s: f64,
    /// Wall time of the measured phase: one sample per message (closed
    /// loops) or per fill+drain round divided by its frames (stream).
    pub wall: WallClock,
    /// Modelled seconds the measured messages took.
    pub model_s: f64,
    /// Modelled latency per measured message, in picoseconds.
    pub model_latency_ps: Vec<u64>,
    /// Messages whose virtual splits did not sum to their modelled latency.
    pub split_violations: u64,
    /// Per-layer metric values; names missing here report 0 (layer not
    /// exercised by the workload).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Phase {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.layers
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }
}

/// Wall-clock length of one rate block.
const BLOCK: Duration = Duration::from_millis(100);

/// Wall-clock measurement of the measured phase, in reference-machine time.
///
/// The phase is cut into consecutive ~100 ms blocks. After each block the
/// calibration kernel runs once, outside any block; its duration over
/// [`NOMINAL`] is the block's slowdown. A block's message rate is multiplied
/// by its slowdown and its median per-message time divided by it, so each
/// block is reported as if it had run on the reference machine. The reported
/// values are medians over blocks, which a short stall of the machine does
/// not move; only per-block values are kept, so memory does not grow with
/// the message rate.
#[derive(Default)]
pub struct WallClock {
    block_start: Option<Instant>,
    block_msgs: u64,
    block_samples: Vec<f64>,
    raw_rates: Vec<f64>,
    slowdowns: Vec<f64>,
    p50s: Vec<f64>,
    calib: Option<Calibration>,
}

impl WallClock {
    /// Run the calibration kernel once (building and warming it on first
    /// use) and return the machine's current slowdown against the reference.
    pub fn calibrate(&mut self) -> f64 {
        let calib = self.calib.get_or_insert_with(|| {
            let mut calib = Calibration::new();
            calib.warm_up();
            calib
        });
        calib.run().as_secs_f64() / NOMINAL.as_secs_f64()
    }

    /// Open the first block of the measured phase.
    pub fn start(&mut self) {
        self.calibrate();
        self.block_start = Some(Instant::now());
        self.block_msgs = 0;
        self.block_samples.clear();
    }

    /// Record `msgs` messages completed at `at`, which took `ns_per_msg`
    /// wall nanoseconds each.
    pub fn record(&mut self, at: Instant, msgs: u64, ns_per_msg: f64) {
        self.block_samples.push(ns_per_msg);
        let start = *self.block_start.get_or_insert(at);
        self.block_msgs += msgs;
        let elapsed = at.duration_since(start);
        if elapsed < BLOCK {
            return;
        }
        let slowdown = self.calibrate();
        self.raw_rates
            .push(self.block_msgs as f64 / elapsed.as_secs_f64());
        self.slowdowns.push(slowdown);
        let p50 = percentile(&mut self.block_samples, 0.50).unwrap_or(0.0);
        self.p50s.push(p50 / slowdown);
        self.block_samples.clear();
        self.block_start = Some(Instant::now());
        self.block_msgs = 0;
    }

    /// Blocks closed so far.
    pub fn blocks(&self) -> usize {
        self.slowdowns.len()
    }

    /// Median slowdown over the phase's blocks (1 before any block closed).
    pub fn slowdown(&self) -> f64 {
        if self.slowdowns.is_empty() {
            1.0
        } else {
            median(&self.slowdowns)
        }
    }

    /// Median block rate as measured, before calibration.
    pub fn raw_rate(&self) -> f64 {
        median(&self.raw_rates)
    }

    /// Median calibrated block rate.
    pub fn rate(&self) -> f64 {
        let rates: Vec<f64> = self
            .raw_rates
            .iter()
            .zip(&self.slowdowns)
            .map(|(r, s)| r * s)
            .collect();
        median(&rates)
    }

    /// Median over blocks of the calibrated median per-message time; before
    /// any block closed, the uncalibrated median so far.
    pub fn p50_ns(&mut self) -> f64 {
        if self.p50s.is_empty() {
            percentile(&mut self.block_samples, 0.50).unwrap_or(0.0)
        } else {
            median(&self.p50s)
        }
    }
}

/// Running sum for a mean.
#[derive(Debug, Default, Clone, Copy)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    pub fn add(&mut self, v: f64) {
        self.sum += v;
        self.n += 1;
    }

    pub fn get(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

/// Modelled execution of each message's primary jam (`ExecStats`).
#[derive(Debug, Default)]
pub struct ExecAcc {
    total: Mean,
    compute: Mean,
    memory: Mean,
    fetch: Mean,
    instructions: Mean,
    superinstructions: Mean,
}

impl ExecAcc {
    pub fn add(&mut self, x: &ExecStats) {
        self.total.add(x.total_time().as_ns());
        self.compute.add(x.compute_time.as_ns());
        self.memory.add(x.memory_time.as_ns());
        self.fetch.add(x.fetch_time.as_ns());
        self.instructions.add(x.instructions as f64);
        self.superinstructions.add(x.superinstructions as f64);
    }

    pub fn report(&self, phase: &mut Phase) {
        phase.set("jamvm.exec_ns", self.total.get());
        phase.set("jamvm.compute_ns", self.compute.get());
        phase.set("jamvm.memory_ns", self.memory.get());
        phase.set("jamvm.fetch_ns", self.fetch.get());
        phase.set("jamvm.instructions_per_msg", self.instructions.get());
        phase.set(
            "jamvm.superinstruction_share",
            self.superinstructions.get() / self.instructions.get(),
        );
    }
}

/// The per-layer metrics every workload reads from the receiver's counters
/// after `msgs` messages: rejections, injection caches and the simulated
/// memory hierarchy.
pub fn report_counters(phase: &mut Phase, s: &RuntimeStats, h: &HierarchyStats, msgs: u64) {
    phase.set("host.frames_rejected", s.frames_rejected as f64);
    let hit = |hits: u64, misses: u64| ratio(hits, hits + misses);
    phase.set(
        "injection_cache.code_hit_ratio",
        hit(s.injected_code_cache_hits, s.injected_code_cache_misses),
    );
    phase.set(
        "injection_cache.got_hit_ratio",
        hit(s.got_cache_hits, s.got_cache_misses),
    );
    phase.set(
        "injection_cache.resolved_hit_ratio",
        hit(s.resolved_cache_hits, s.resolved_cache_misses),
    );
    phase.set(
        "injection_cache.code_evictions_per_msg",
        ratio(s.injected_code_cache_evictions, msgs),
    );
    phase.set(
        "injection_cache.got_evictions_per_msg",
        ratio(s.got_cache_evictions, msgs),
    );
    let accesses = h.l1_hits + h.l2_hits + h.l3_hits + h.llc_hits + h.dram_accesses;
    phase.set("memsim.l1_hit_ratio", ratio(h.l1_hits, accesses));
    phase.set("memsim.llc_hit_ratio", hit(h.llc_hits, h.dram_accesses));
    phase.set(
        "memsim.prefetch_hit_ratio",
        ratio(h.prefetch_hits, h.prefetches_issued),
    );
    phase.set("memsim.dram_per_msg", ratio(h.dram_accesses, msgs));
    phase.set("memsim.stashed_lines_per_msg", ratio(h.stashed_lines, msgs));
    phase.set(
        "memsim.dma_dram_lines_per_msg",
        ratio(h.dma_dram_lines, msgs),
    );
}

/// `part / whole`, 0 when nothing was attempted.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Nearest-rank percentile `q` (0..=1) of `v`, which is sorted in place.
pub fn percentile<T: Copy + PartialOrd>(v: &mut [T], q: f64) -> Option<T> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are comparable"));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// Median of a small sample set (set-up repetitions).
pub fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}
