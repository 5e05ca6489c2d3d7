//! The three closed-loop workloads: one client, one thread, each message sent
//! only after the previous one executed.
//!
//! * `small_injected` — warm injected Indirect Put, 8 ints to seeded keys;
//!   every fourth message is a lookup -> filter -> aggregate graph chain.
//! * `large_payload` — injected Server-Side Sum of 256..=4096 seeded ints on a
//!   receiver loaded by the seeded memory stressor, stashing on.
//! * `many_functions` — 2048 Indirect Put variants picked Zipf(0.9), so the
//!   code working set exceeds the receiver's injection caches.
//!
//! Each run sets the testbed up several times (the median is `setup_s`),
//! warms it with a fixed number of messages, then measures. The modelled
//! metrics and counters cover a fixed window of the first `Shape::model`
//! measured messages, so they repeat exactly for a seed; the wall metrics
//! cover every message sent until the run's time is up.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use twochains::builtin::{
    benchmark_package, graph_args, indirect_put_args, ried_table, ssum_args, BuiltinJam, ARGS_SIZE,
    INDIRECT_PUT_SHIPPED_BYTES,
};
use twochains::fabric::{HostId, LinkModel, SimFabric};
use twochains::jamvm::isa::Width;
use twochains::jamvm::{decode_program, hash64, resolve, verify, Assembler, Instr, Reg};
use twochains::linker::{JamDefinition, Package, PackageBuilder, SymbolRef};
use twochains::mailbox::MailboxTarget;
use twochains::memsim::{MemoryStressor, SimTime, TestbedConfig};
use twochains::{
    spec, AmResult, ElementId, InvocationMode, MessageSpec, RuntimeConfig, TwoChainsHost,
    TwoChainsSender,
};

use crate::report::{ratio, report_counters, ExecAcc, Mean, Phase, Shape};
use crate::rng::{Rng, Zipf};
use crate::trace::{Tracer, NO_MSG};

/// Ints per Indirect Put message (the paper's §VII-A configuration).
pub const PUT_INTS: usize = 8;
/// Bytes the table ried allocates per key: `count * elem_size`.
const PUT_SLOT_BYTES: u64 = (PUT_INTS * 4) as u64;
/// Distinct Indirect Put keys; well under the table ried's 4096 buckets.
pub const PUT_KEYS: u64 = 256;
/// Graph chain keys in `small_injected`.
const CHAIN_KEYS: usize = 256;
/// Chain keys re-sent as three separate messages after the measured phase.
const CHAIN_RECHECKS: usize = 16;
/// Indirect Put variants in `many_functions` (twice the injection cache).
const VARIANTS: usize = 2048;
/// Distinct Server-Side Sum payloads in `large_payload`, 256..=4096 ints.
const LARGE_POOL: usize = 256;
/// Zipf exponent of the variant choice.
const ZIPF_S: f64 = 0.9;

/// One connected testbed: a receiver host and a single sender.
struct Bed {
    host: TwoChainsHost,
    sender: TwoChainsSender,
    target: MailboxTarget,
    link: LinkModel,
}

/// Build and time one testbed: fabric, host, package install (then `prep`
/// on the host), and `connect` for the sending side. Pushes the set-up time
/// (calibrated by a kernel run just before it, see `report::WallClock`) and
/// the raw install and connect wall times into `phase`.
pub fn set_up<T>(
    pkg: &Package,
    cfg: &RuntimeConfig,
    prep: &dyn Fn(&TwoChainsHost),
    connect: &dyn Fn(&SimFabric, HostId, HostId, &mut TwoChainsHost) -> AmResult<T>,
    tr: &mut Tracer,
    phase: &mut Phase,
) -> AmResult<(TwoChainsHost, T)> {
    let slowdown = phase.wall.calibrate();
    let start = Instant::now();
    tr.open("bench.setup", NO_MSG);
    let (fabric, a, b) = tr.span("fabric.create", NO_MSG, || {
        SimFabric::back_to_back(TestbedConfig::cluster2021())
    });
    let mut host = tr.span("host.new", NO_MSG, || {
        TwoChainsHost::new(&fabric, b, cfg.clone())
    })?;
    let install = Instant::now();
    tr.span("linker.install_package", NO_MSG, || {
        host.install_package(pkg.clone())
    })?;
    phase.install_s.push(install.elapsed().as_secs_f64());
    prep(&host);
    let started = Instant::now();
    let sending = tr.span("linker.connect", NO_MSG, || {
        connect(&fabric, a, b, &mut host)
    })?;
    phase.connect_s.push(started.elapsed().as_secs_f64());
    tr.close();
    phase.setup_s.push(start.elapsed().as_secs_f64() / slowdown);
    Ok((host, sending))
}

/// [`set_up`] with a single sender, to which the receiver exports the GOT of
/// every jam of the package.
fn setup(
    pkg: &Package,
    cfg: &RuntimeConfig,
    prep: &dyn Fn(&TwoChainsHost),
    tr: &mut Tracer,
    phase: &mut Phase,
) -> AmResult<Bed> {
    let connect = |fabric: &SimFabric, a, b, host: &mut TwoChainsHost| {
        let mut sender = TwoChainsSender::new(fabric.endpoint(a, b)?, pkg.clone());
        for (id, _) in pkg.jams() {
            sender.set_remote_got(id, &host.export_got(id)?);
        }
        Ok(sender)
    };
    let (host, mut sender) = set_up(pkg, cfg, prep, &connect, tr, phase)?;
    let target = host.mailbox_target(0, 0)?;
    let link = sender.endpoint_mut().link().clone();
    Ok(Bed {
        host,
        sender,
        target,
        link,
    })
}

/// A workload's message stream and its sequential oracle.
trait Source {
    /// The `n`-th message of the run.
    fn next(&mut self, n: u64) -> &MessageSpec;
    /// Whether the message `next` returned last is a chain.
    fn chained(&self) -> bool;
    /// Whether `result` is what the oracle expects for that message.
    fn check(&mut self, result: u64) -> bool;
    /// Read the receiver's state back after the run; returns mismatches.
    fn read_back(&self, bed: &mut Bed, now: &mut SimTime) -> AmResult<u64>;
}

/// Modelled per-layer sums over the model window.
#[derive(Default)]
struct Acc {
    pack: Mean,
    post: Mean,
    wire: Mean,
    dma: Mean,
    wait: Mean,
    dispatch: Mean,
    chain_stage_dispatch: Mean,
    exec: ExecAcc,
    bytes: Mean,
    miss_wall: Mean,
}

/// Longest client think time between a completion and the next send, in ps:
/// two of the receiver's 4 ns poll intervals, so arrivals land at seeded
/// phases of its poll grid while the think time stays a rounding error of
/// the message rate.
const THINK_PS: u64 = 8_000;

/// Where the run is: the loop counters the warm-up and measured phases share.
/// `now` is when the receiver went idle after the last message.
struct Cursor {
    n: u64,
    now: SimTime,
    think: Rng,
}

/// Send and execute messages until `stop` says so; `record` is `Some` in the
/// model window, whose modelled values it accumulates.
#[allow(clippy::too_many_arguments)]
fn drive(
    bed: &mut Bed,
    src: &mut dyn Source,
    tr: &mut Tracer,
    cur: &mut Cursor,
    phase: &mut Phase,
    mut acc: Option<&mut Acc>,
    wall: bool,
    stop: &mut dyn FnMut(u64) -> bool,
) -> AmResult<()> {
    let mut i = 0u64;
    while !stop(i) {
        let n = cur.n;
        let spec = src.next(n);
        let misses_before = tr.enabled().then(|| code_misses(&bed.host));
        let idle = cur.now;
        let now = idle + SimTime::from_ps(cur.think.below(THINK_PS));
        let t0 = Instant::now();
        let sent = tr.span("sender.send_spec", n, || {
            bed.sender.send_spec(now, spec, &bed.target)
        })?;
        let recv_start = Instant::now();
        let out = tr.span("host.receive", n, || {
            bed.host
                .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), idle)
        })?;
        let t1 = Instant::now();
        let chained = src.chained();
        phase.offered += 1;
        if tr.span("bench.oracle", n, || src.check(out.result)) {
            phase.ok += 1;
        }
        if wall {
            phase
                .wall
                .record(t1, 1, t1.duration_since(t0).as_nanos() as f64);
            phase.measured += 1;
        }
        if let Some(acc) = acc.as_deref_mut() {
            // The virtual splits of one message, each read from its own
            // field; they must add up to the send-to-handler-done latency.
            let latency = out.handler_done - now;
            let pack = sent.pack_cost;
            let post = sent.put.sender_free - (now + pack);
            let wire = bed.link.put_timing(sent.wire_bytes).network;
            let dma_tail = sent.put.dma_cost.min(SimTime::from_ns(12));
            let wait = out.detected_at - sent.delivered();
            let exec = out.handler_time - out.dispatch_time;
            let sum = pack + post + wire + dma_tail + wait + out.dispatch_time + exec;
            if sum != latency {
                phase.split_violations += 1;
            }
            phase.model_latency_ps.push(latency.as_ps());
            acc.pack.add(pack.as_ns());
            acc.post.add(post.as_ns());
            acc.wire.add(wire.as_ns());
            acc.dma.add(sent.put.dma_cost.as_ns());
            acc.wait.add(wait.as_ns());
            acc.bytes.add(sent.wire_bytes as f64);
            if chained {
                acc.chain_stage_dispatch
                    .add(out.dispatch_time.as_ns() / CHAIN_STAGES as f64);
            } else {
                acc.dispatch.add(out.dispatch_time.as_ns());
                if let Some(x) = &out.exec {
                    acc.exec.add(x);
                }
            }
            if let Some(before) = misses_before {
                if code_misses(&bed.host) > before {
                    acc.miss_wall
                        .add(t1.duration_since(recv_start).as_nanos() as f64);
                }
            }
        }
        cur.now = out.handler_done;
        cur.n += 1;
        i += 1;
    }
    Ok(())
}

/// Stages of the graph chain.
const CHAIN_STAGES: usize = 3;

/// Injected-code cache misses so far (the closed loops use one shard).
fn code_misses(host: &TwoChainsHost) -> u64 {
    host.shard_stats(0)
        .map_or(0, |s| s.injected_code_cache_misses)
}

/// Run one closed-loop workload for `seconds` of measurement.
#[allow(clippy::too_many_arguments)]
fn run(
    seed: u64,
    pkg: &Package,
    cfg: &RuntimeConfig,
    prep: &dyn Fn(&TwoChainsHost),
    src: &mut dyn Source,
    shape: &Shape,
    seconds: f64,
    tr: &mut Tracer,
) -> AmResult<Phase> {
    let mut phase = Phase::default();
    let mut bed = setup(pkg, cfg, prep, tr, &mut phase)?;
    for _ in 1..shape.setups {
        bed = setup(pkg, cfg, prep, tr, &mut phase)?;
    }

    let mut cur = Cursor {
        n: 0,
        now: SimTime::ZERO,
        think: Rng::new(seed ^ 0x0074_6869_6E6B),
    };
    let mut quiet = Tracer::new(false);
    let warm = shape.warmup;
    drive(
        &mut bed,
        src,
        &mut quiet,
        &mut cur,
        &mut phase,
        None,
        false,
        &mut |i| i >= warm,
    )?;
    bed.host.reset_stats();
    let sender_before = bed.sender.stats().clone();

    // Measured phase: the model window first, then wall-only messages until
    // the time is up.
    let mut acc = Acc::default();
    let model = shape.model;
    let deadline = Duration::from_secs_f64(seconds);
    phase.wall.start();
    let start = Instant::now();
    let model_start = cur.now;
    tr.open("bench.loop", NO_MSG);
    drive(
        &mut bed,
        src,
        tr,
        &mut cur,
        &mut phase,
        Some(&mut acc),
        true,
        &mut |i| i >= model,
    )?;
    phase.model_s = (cur.now - model_start).as_secs();
    let host_stats = bed.host.stats();
    let hier = bed.host.hierarchy_stats();
    let sender_stats = bed.sender.stats().clone();
    drive(
        &mut bed,
        src,
        tr,
        &mut cur,
        &mut phase,
        None,
        true,
        &mut |_| start.elapsed() >= deadline,
    )?;
    tr.close();
    phase.wall_s = start.elapsed().as_secs_f64();

    let mismatches = src.read_back(&mut bed, &mut cur.now)?;
    phase.ok = phase.ok.saturating_sub(mismatches);

    // Per-layer values over the model window.
    phase.set("sender.pack_ns", acc.pack.get());
    phase.set(
        "sender.template_hit_ratio",
        ratio(
            sender_stats.template_hits - sender_before.template_hits,
            (sender_stats.template_hits + sender_stats.template_misses)
                - (sender_before.template_hits + sender_before.template_misses),
        ),
    );
    phase.set("fabric.post_ns", acc.post.get());
    phase.set("fabric.wire_ns", acc.wire.get());
    phase.set("fabric.dma_ns", acc.dma.get());
    phase.set("fabric.bytes_per_msg", acc.bytes.get());
    phase.set("mailbox.wait_ns", acc.wait.get());
    phase.set("host.dispatch_ns", acc.dispatch.get());
    phase.set("chain.stage_dispatch_ns", acc.chain_stage_dispatch.get());
    phase.set("injection_cache.miss_wall_ns", acc.miss_wall.get());
    acc.exec.report(&mut phase);
    report_counters(&mut phase, &host_stats, &hier, model);
    if tr.enabled() {
        phase.set("jamvm.lower_wall_ns", lower_wall_ns(pkg, &bed.host, tr)?);
    }
    Ok(phase)
}

/// Mean wall time to lower one of the package's programs through the public
/// `decode_program` / `verify` / `resolve`, as a cache miss does.
fn lower_wall_ns(pkg: &Package, host: &TwoChainsHost, tr: &mut Tracer) -> AmResult<f64> {
    let mut mean = Mean::default();
    for (id, jam) in pkg.jams() {
        let got = host.export_got(id)?;
        let start = Instant::now();
        let lowered = tr.span("jamvm.lower", NO_MSG, || {
            let program = decode_program(&jam.text).ok()?;
            verify(&program, jam.got.len()).ok()?;
            Some(resolve(&program, &got))
        });
        let ns = start.elapsed().as_nanos() as f64;
        if std::hint::black_box(lowered).is_none() {
            return Err(twochains::AmError::Exec(format!(
                "{} does not lower",
                jam.name
            )));
        }
        mean.add(ns);
    }
    Ok(mean.get())
}

/// The Indirect Put oracle: the table ried gives each new key the next slot
/// of its data heap (bump allocation from offset 16) and a known key its old
/// slot, and the jam returns the slot's address; the slot then holds the
/// last payload sent with that key.
#[derive(Default)]
pub struct PutOracle {
    heap_base: Option<u64>,
    next: u64,
    slots: HashMap<u64, (u64, [u8; PUT_SLOT_BYTES as usize])>,
}

impl PutOracle {
    pub fn check(&mut self, key: u64, payload: &[u8], result: u64) -> bool {
        if self.next == 0 {
            self.next = 16;
        }
        let next = &mut self.next;
        let slot = self.slots.entry(key).or_insert_with(|| {
            let off = *next;
            *next += PUT_SLOT_BYTES;
            (off, [0; PUT_SLOT_BYTES as usize])
        });
        slot.1.copy_from_slice(payload);
        let base = *self.heap_base.get_or_insert(result.wrapping_sub(slot.0));
        result == base + slot.0
    }

    /// Compare every key's slot, read with `read(offset, len)`, with the
    /// last payload sent to it; returns the mismatches.
    pub fn read_back(&self, read: impl Fn(usize, usize) -> AmResult<Vec<u8>>) -> AmResult<u64> {
        let mut bad = 0;
        for (off, payload) in self.slots.values() {
            let got = read(*off as usize, PUT_SLOT_BYTES as usize)?;
            bad += u64::from(got != payload);
        }
        Ok(bad)
    }
}

/// `entries` seeded Indirect Put inputs: entry `i` sends payload `i` to key
/// `i` (keys repeat; they are drawn from `PUT_KEYS` seeded values).
fn put_inputs(rng: &mut Rng, entries: usize) -> (Vec<u64>, Vec<Vec<u8>>) {
    let keys: Vec<u64> = (0..PUT_KEYS).map(|_| rng.next_u64()).collect();
    let payloads: Vec<Vec<u8>> = (0..entries).map(|_| rng.payload(PUT_INTS)).collect();
    let entry_keys = (0..entries)
        .map(|_| keys[rng.below(PUT_KEYS) as usize])
        .collect();
    (entry_keys, payloads)
}

fn put_spec(elem: ElementId, key: u64, payload: &[u8]) -> MessageSpec {
    spec(elem)
        .mode(InvocationMode::Injected)
        .args(indirect_put_args(key, PUT_INTS as u32, 4))
        .usr(payload.to_vec())
}

/// The graph chain's result for `key`: lookup hashes, filter keeps evens.
fn chain_expect(key: u64) -> u64 {
    let v = hash64(key);
    if v.is_multiple_of(2) {
        v
    } else {
        0
    }
}

/// Send one message outside the measured loop and return its result.
fn send_one(bed: &mut Bed, msg: &MessageSpec, now: &mut SimTime) -> AmResult<u64> {
    let sent = bed.sender.send_spec(*now, msg, &bed.target)?;
    let out = bed
        .host
        .receive(0, 0, Some(sent.wire_bytes), sent.delivered(), *now)?;
    *now = out.handler_done;
    Ok(out.result)
}

struct SmallInjected {
    rng: Rng,
    put_keys: Vec<u64>,
    put_specs: Vec<MessageSpec>,
    payloads: Vec<Vec<u8>>,
    chains: Vec<(u64, MessageSpec)>,
    stages: [ElementId; 3],
    current: (bool, usize),
    oracle: PutOracle,
    chain_count: u64,
    chain_sum: u64,
}

impl Source for SmallInjected {
    fn next(&mut self, n: u64) -> &MessageSpec {
        if n % 4 == 3 {
            let i = self.rng.below(self.chains.len() as u64) as usize;
            self.current = (true, i);
            &self.chains[i].1
        } else {
            let i = self.rng.below(self.put_keys.len() as u64) as usize;
            self.current = (false, i);
            &self.put_specs[i]
        }
    }

    fn chained(&self) -> bool {
        self.current.0
    }

    fn check(&mut self, result: u64) -> bool {
        let (chained, i) = self.current;
        if chained {
            let expect = chain_expect(self.chains[i].0);
            self.chain_count += 1;
            self.chain_sum = self.chain_sum.wrapping_add(expect);
            result == expect
        } else {
            self.oracle
                .check(self.put_keys[i], &self.payloads[i], result)
        }
    }

    fn read_back(&self, bed: &mut Bed, now: &mut SimTime) -> AmResult<u64> {
        let host = &bed.host;
        let mut bad = self
            .oracle
            .read_back(|off, len| host.read_data("table.data", off, len))?;
        let accum = bed.host.read_data("graph.accum", 0, 16)?;
        let count = u64::from_le_bytes(accum[0..8].try_into().expect("8 bytes"));
        let sum = u64::from_le_bytes(accum[8..16].try_into().expect("8 bytes"));
        bad += u64::from(count != self.chain_count) + u64::from(sum != self.chain_sum);
        // The same stages sent as three separate messages must give the
        // chain's result.
        for (key, _) in self.chains.iter().take(CHAIN_RECHECKS) {
            let mut carried = *key;
            for elem in self.stages {
                let msg = spec(elem)
                    .mode(InvocationMode::Injected)
                    .args(graph_args(carried));
                carried = send_one(bed, &msg, now)?;
            }
            bad += u64::from(carried != chain_expect(*key));
        }
        Ok(bad)
    }
}

pub fn small_injected(seed: u64, seconds: f64, shape: &Shape, tr: &mut Tracer) -> AmResult<Phase> {
    let pkg = benchmark_package()?;
    let id = |jam: BuiltinJam| {
        pkg.id_of(jam.element_name())
            .expect("benchmark package holds every builtin jam")
    };
    let iput = id(BuiltinJam::IndirectPut);
    let stages = [
        id(BuiltinJam::GraphLookup),
        id(BuiltinJam::GraphFilter),
        id(BuiltinJam::GraphAggregate),
    ];
    let mut rng = Rng::new(seed);
    let (put_keys, payloads) = put_inputs(&mut rng, 1024);
    let put_specs = put_keys
        .iter()
        .zip(&payloads)
        .map(|(&key, payload)| put_spec(iput, key, payload))
        .collect();
    let chains = (0..CHAIN_KEYS)
        .map(|_| {
            let key = rng.next_u64();
            let msg = spec(stages[0])
                .mode(InvocationMode::Injected)
                .args(graph_args(key))
                .then(stages[1])
                .then(stages[2]);
            (key, msg)
        })
        .collect();
    let mut src = SmallInjected {
        rng,
        put_keys,
        put_specs,
        payloads,
        chains,
        stages,
        current: (false, 0),
        oracle: PutOracle::default(),
        chain_count: 0,
        chain_sum: 0,
    };
    let cfg = RuntimeConfig::paper_default();
    run(seed, &pkg, &cfg, &|_| {}, &mut src, shape, seconds, tr)
}

struct LargePayload {
    rng: Rng,
    pool: Vec<(u64, MessageSpec)>,
    current: usize,
    sums: Vec<u64>,
}

impl Source for LargePayload {
    fn next(&mut self, _n: u64) -> &MessageSpec {
        self.current = self.rng.below(self.pool.len() as u64) as usize;
        &self.pool[self.current].1
    }

    fn chained(&self) -> bool {
        false
    }

    fn check(&mut self, result: u64) -> bool {
        let expect = self.pool[self.current].0;
        self.sums.push(expect);
        result == expect
    }

    fn read_back(&self, bed: &mut Bed, _now: &mut SimTime) -> AmResult<u64> {
        // The array ried appends every sum at slot `counter % ARRAY_SLOTS`.
        let slots = twochains::builtin::ARRAY_SLOTS;
        let array = bed.host.read_data("array.base", 0, 8 + slots * 8)?;
        let word = |i: usize| u64::from_le_bytes(array[i * 8..i * 8 + 8].try_into().expect("8"));
        let mut bad = u64::from(word(0) != self.sums.len() as u64);
        let first = self.sums.len().saturating_sub(slots);
        for (i, &sum) in self.sums.iter().enumerate().skip(first) {
            bad += u64::from(word(1 + i % slots) != sum);
        }
        Ok(bad)
    }
}

pub fn large_payload(seed: u64, seconds: f64, shape: &Shape, tr: &mut Tracer) -> AmResult<Phase> {
    let pkg = benchmark_package()?;
    let ssum = pkg
        .id_of(BuiltinJam::ServerSideSum.element_name())
        .expect("benchmark package holds Server-Side Sum");
    let mut rng = Rng::new(seed);
    // Every seed draws from the same evenly spaced sizes; the seed picks the
    // contents and the order.
    let pool = (0..LARGE_POOL)
        .map(|i| {
            let ints = 256 + i * (4096 - 256) / (LARGE_POOL - 1);
            let payload = rng.payload(ints);
            let sum = payload
                .chunks_exact(4)
                .map(|c| u64::from(u32::from_le_bytes(c.try_into().expect("4 bytes"))))
                .sum();
            let msg = spec(ssum)
                .mode(InvocationMode::Injected)
                .args(ssum_args(ints as u32))
                .usr(payload);
            (sum, msg)
        })
        .collect();
    let mut src = LargePayload {
        rng,
        pool,
        current: 0,
        sums: Vec::new(),
    };
    let cfg = RuntimeConfig::paper_default();
    let stressor_seed = seed ^ 0x5354_5245_5353;
    let prep = move |host: &TwoChainsHost| {
        host.set_stashing(true);
        host.set_stressor(Some(MemoryStressor::fully_loaded(stressor_seed)));
    };
    run(seed, &pkg, &cfg, &prep, &mut src, shape, seconds, tr)
}

/// An Indirect Put variant: the builtin program behind a distinct, dead
/// immediate load, so every variant ships different code bytes with the
/// same semantics.
fn iput_variant(tag: u64) -> Vec<Instr> {
    let mut a = Assembler::new();
    a.load_imm(Reg(10), tag)
        .mov(Reg(7), Reg(1))
        .mov(Reg(8), Reg(2))
        .load(Width::B8, Reg(3), Reg(0), 0)
        .load(Width::B4, Reg(4), Reg(0), 8)
        .load(Width::B4, Reg(5), Reg(0), 12)
        .mov(Reg(0), Reg(3))
        .mov(Reg(1), Reg(4))
        .mov(Reg(2), Reg(5))
        .call_extern(0, 3)
        .mov(Reg(9), Reg(0))
        .memcpy(Reg(9), Reg(7), Reg(8))
        .mov(Reg(0), Reg(9))
        .ret();
    a.finish().expect("indirect put variant assembles")
}

fn many_package() -> AmResult<Package> {
    let mut builder = PackageBuilder::new("perfbench_many_functions").ried(ried_table());
    for v in 0..VARIANTS {
        builder = builder.jam(
            JamDefinition::new(&format!("jam_indirect_put_v{v}"), iput_variant(v as u64))
                .with_got(vec![SymbolRef::func("table.probe")])
                .with_args_size(ARGS_SIZE)
                .padded_to(INDIRECT_PUT_SHIPPED_BYTES - 8),
        );
    }
    builder.build().map_err(Into::into)
}

struct ManyFunctions {
    rng: Rng,
    zipf: Zipf,
    variants: Vec<ElementId>,
    keys: Vec<u64>,
    payloads: Vec<Vec<u8>>,
    current: (usize, MessageSpec),
    oracle: PutOracle,
}

impl Source for ManyFunctions {
    fn next(&mut self, _n: u64) -> &MessageSpec {
        let variant = self.variants[self.zipf.sample(&mut self.rng)];
        let i = self.rng.below(self.keys.len() as u64) as usize;
        self.current = (i, put_spec(variant, self.keys[i], &self.payloads[i]));
        &self.current.1
    }

    fn chained(&self) -> bool {
        false
    }

    fn check(&mut self, result: u64) -> bool {
        let i = self.current.0;
        self.oracle.check(self.keys[i], &self.payloads[i], result)
    }

    fn read_back(&self, bed: &mut Bed, _now: &mut SimTime) -> AmResult<u64> {
        let host = &bed.host;
        self.oracle
            .read_back(|off, len| host.read_data("table.data", off, len))
    }
}

pub fn many_functions(seed: u64, seconds: f64, shape: &Shape, tr: &mut Tracer) -> AmResult<Phase> {
    let pkg = many_package()?;
    let mut rng = Rng::new(seed);
    // Which variants are hot depends on the seed.
    let mut variants: Vec<ElementId> = pkg.jams().map(|(id, _)| id).collect();
    rng.shuffle(&mut variants);
    let (keys, payloads) = put_inputs(&mut rng, 1024);
    let mut src = ManyFunctions {
        rng,
        zipf: Zipf::new(VARIANTS, ZIPF_S),
        current: (0, spec(variants[0])),
        variants,
        keys,
        payloads,
        oracle: PutOracle::default(),
    };
    let cfg = RuntimeConfig::paper_default();
    run(seed, &pkg, &cfg, &|_| {}, &mut src, shape, seconds, tr)
}
