//! A fixed reference computation timed alongside the measurement, so wall
//! times can be reported in reference-machine time.
//!
//! The shared host this benchmark runs on changes speed by up to 2x over
//! minutes (a plain CPU loop shows the same drift), which would swamp any
//! change to the simulator. The kernel below does the same kinds of work the
//! simulator does — set-associative tag lookups with LRU update over a
//! multi-MiB table, hash-map updates, byte copies and integer mixing — but
//! none of the program's code, so a change to the program cannot move it.
//! Its duration over [`NOMINAL`] measures how much slower than the reference
//! the machine ran at that moment (see `report::WallClock`).

use std::collections::HashMap;
use std::time::{Duration, Instant};

use crate::rng::mix;

/// Tag table: 4 Mi entries (32 MiB) in 8-way sets. Larger than a core's L2
/// and a fair share of the shared L3, so the kernel feels the memory-system
/// contention that dominates the simulator's own speed changes (a 4 MiB
/// table tracked them only half as well).
const TAGS: usize = 4 * 1024 * 1024;
/// Resident bytes the kernel's table adds to the process.
pub const TABLE_BYTES: usize = TAGS * std::mem::size_of::<u64>();
const WAYS: usize = 8;
/// Lookups per kernel run.
const STEPS: u64 = 20_000;
/// The kernel's duration on the reference machine: its median on the
/// 2-vCPU Xeon runner the benchmark was defined on.
pub const NOMINAL: Duration = Duration::from_micros(2_200);

pub struct Calibration {
    tags: Vec<u64>,
    map: HashMap<u64, u64>,
    src: Vec<u8>,
    dst: Vec<u8>,
    state: u64,
}

impl Calibration {
    pub fn new() -> Self {
        Calibration {
            tags: (0..TAGS as u64).map(mix).collect(),
            map: HashMap::new(),
            src: (0..4096u32).map(|i| i as u8).collect(),
            dst: vec![0; 4096],
            state: 1,
        }
    }

    /// Run the kernel once; returns its duration.
    pub fn run(&mut self) -> Duration {
        let start = Instant::now();
        let sets = (TAGS / WAYS) as u64;
        let mut x = self.state;
        for i in 0..STEPS {
            x = mix(x.wrapping_add(i));
            let set = (x % sets) as usize * WAYS;
            let tag = x >> 44;
            let ways = &mut self.tags[set..set + WAYS];
            match ways.iter().position(|&t| t == tag) {
                Some(w) => ways[..=w].rotate_right(1),
                None => {
                    ways.rotate_right(1);
                    ways[0] = tag;
                }
            }
            if i % 4 == 0 {
                *self.map.entry(x & 0xFFF).or_insert(0) += 1;
            }
            if i % 64 == 0 {
                self.dst.copy_from_slice(&self.src);
                self.src[(x % 4096) as usize] ^= x as u8;
            }
        }
        self.state = std::hint::black_box(x ^ self.dst[(x % 4096) as usize] as u64);
        start.elapsed()
    }

    /// A few untimed runs, so the first timed one does not start cold.
    pub fn warm_up(&mut self) {
        for _ in 0..3 {
            self.run();
        }
    }
}
