//! `stream_burst`: the injection-rate shape (§VI-A2). One thread drives a
//! 2-lane `SenderFleet` that fills every mailbox of a 2-shard host under the
//! default adaptive aggregation, then drains each shard with one
//! `receive_burst` starting at its lane's delivery horizon (shards drain
//! concurrently in virtual time), and harvests completions. Lanes are
//! flow-controlled by the receiver's one-sided credit returns.
//!
//! A round's modelled span runs from the earliest lane clock before the fill
//! to the last shard's drain end; a frame's modelled latency runs from its
//! lane's clock before the fill to its handler finishing. As in the closed
//! loops, modelled values cover a fixed window of rounds.

use std::time::{Duration, Instant};

use twochains::builtin::{benchmark_package, indirect_put_args, BuiltinJam};
use twochains::fabric::{LinkModel, SimFabric};
use twochains::memsim::SimTime;
use twochains::{
    AmError, AmResult, ElementId, InvocationMode, RuntimeConfig, SenderFleet, SlotCtx,
    TwoChainsHost,
};

use crate::closed::{set_up, PutOracle, PUT_INTS, PUT_KEYS};
use crate::report::{ratio, report_counters, ExecAcc, Mean, Phase, Shape};
use crate::rng::mix;
use crate::trace::{Tracer, NO_MSG};

pub const SHARDS: usize = 2;

/// The sweep geometry of the repository's burst benchmark at two shards:
/// 4 banks x 16 mailboxes, carrier mailboxes large enough for a full
/// container of Indirect Put frames, and a completion window of one fill.
fn config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(SHARDS)
        .with_shard_local_space()
        .with_sender_streams(SHARDS);
    cfg.banks = 4;
    cfg.mailboxes_per_bank = 16;
    cfg.frame_capacity = 16384;
    cfg.completion_window = cfg.total_mailboxes();
    cfg
}

/// The seeded input of mailbox (`bank`, `slot`) in round `round`: a key out
/// of `PUT_KEYS` and 8 ints, derived statelessly so the oracle can rebuild it.
fn input(seed: u64, ctx: SlotCtx) -> (u64, Vec<u8>) {
    let at = mix(seed ^ mix(ctx.round ^ mix(((ctx.bank as u64) << 32) | ctx.slot as u64)));
    let key = mix(seed ^ (at % PUT_KEYS));
    let payload = (0..PUT_INTS as u64)
        .flat_map(|j| (mix(at ^ j) as u32).to_le_bytes())
        .collect();
    (key, payload)
}

pub fn stream_burst(seed: u64, seconds: f64, shape: &Shape, tr: &mut Tracer) -> AmResult<Phase> {
    let pkg = benchmark_package()?;
    let elem = pkg
        .id_of(BuiltinJam::IndirectPut.element_name())
        .expect("benchmark package holds Indirect Put");
    let cfg = config();
    let mut phase = Phase::default();
    let connect = |fabric: &SimFabric, a, _b, host: &mut TwoChainsHost| {
        SenderFleet::connect_fleet(fabric, a, host, pkg.clone())
    };
    let mut bed = set_up(&pkg, &cfg, &|_| {}, &connect, tr, &mut phase)?;
    for _ in 1..shape.setups {
        bed = set_up(&pkg, &cfg, &|_| {}, &connect, tr, &mut phase)?;
    }
    let (host, fleet) = bed;
    let mut st = Stream {
        host,
        fleet,
        elem,
        seed,
        oracles: (0..SHARDS).map(|_| PutOracle::default()).collect(),
    };

    let mut round = 0u64;
    let mut quiet = Tracer::new(false);
    for _ in 0..shape.warmup {
        st.round(round, &mut quiet, &mut phase, None)?;
        round += 1;
    }
    st.host.reset_stats();
    st.fleet.reset_stats();

    let deadline = Duration::from_secs_f64(seconds);
    phase.wall.start();
    let start = Instant::now();
    let mut acc = Acc::default();
    tr.open("bench.loop", NO_MSG);
    for i in 0.. {
        let model = i < shape.model;
        if !model && start.elapsed() >= deadline {
            break;
        }
        let t0 = Instant::now();
        let frames = st.round(round, tr, &mut phase, model.then_some(&mut acc))?;
        let t1 = Instant::now();
        let wall = t1.duration_since(t0).as_nanos() as f64;
        phase.wall.record(t1, frames as u64, wall / frames as f64);
        phase.measured += frames as u64;
        round += 1;
        if i + 1 == shape.model {
            acc.host = st.host.stats();
            acc.hier = st.host.hierarchy_stats();
            acc.sender = st.fleet.stats();
        }
    }
    tr.close();
    phase.wall_s = start.elapsed().as_secs_f64();

    // One credit token per retired frame over the whole measured phase.
    let credits = st.host.stats().credits_returned;
    if credits != phase.measured {
        phase.ok = phase.ok.saturating_sub(phase.measured.abs_diff(credits));
    }
    let mut bad = 0;
    for (shard, oracle) in st.oracles.iter().enumerate() {
        let host = &st.host;
        bad += oracle.read_back(|off, len| host.read_shard_data(shard, "table.data", off, len))?;
    }
    phase.ok = phase.ok.saturating_sub(bad);

    let frames = acc.frames as u64;
    let s = &acc.host;
    let sender = &acc.sender;
    let puts = (sender.messages_sent - sender.batched_frames) + sender.batch_puts;
    let link = LinkModel::connectx6_back_to_back();
    let posting = link.put_timing(1).sender_cpu.as_ns();
    let mean_put_bytes = (sender.bytes_sent as f64 / puts.max(1) as f64).round() as usize;
    phase.model_s = acc.model_span.as_secs();
    phase.set(
        "sender.template_hit_ratio",
        ratio(
            sender.template_hits,
            sender.template_hits + sender.template_misses,
        ),
    );
    phase.set("fleet.fill_wall_ns_per_frame", acc.fill_wall.get());
    phase.set("fleet.frames_per_put", ratio(sender.messages_sent, puts));
    phase.set(
        "fleet.credit_stall_events",
        sender.credit_stall_events as f64,
    );
    phase.set("fabric.post_ns", posting * ratio(puts, frames));
    phase.set(
        "fabric.wire_ns",
        link.put_timing(mean_put_bytes).network.as_ns(),
    );
    phase.set("fabric.bytes_per_msg", ratio(sender.bytes_sent, frames));
    phase.set("mailbox.wait_ns", acc.wait.get());
    phase.set("bank.frames_per_burst", ratio(frames, acc.bursts));
    phase.set("host.dispatch_ns", acc.dispatch.get());
    acc.exec.report(&mut phase);
    report_counters(&mut phase, s, &acc.hier, frames);
    phase.set("credit.puts_per_frame", ratio(s.credit_flushes, frames));
    let busy = (s.wait_time + s.exec_time + s.credit_put_time).as_ns();
    phase.set("credit.time_share", s.credit_put_time.as_ns() / busy);
    Ok(phase)
}

/// Modelled sums over the model window of rounds.
#[derive(Default)]
struct Acc {
    frames: usize,
    bursts: u64,
    model_span: SimTime,
    wait: Mean,
    dispatch: Mean,
    exec: ExecAcc,
    fill_wall: Mean,
    host: twochains::RuntimeStats,
    sender: twochains::RuntimeStats,
    hier: twochains::memsim::HierarchyStats,
}

/// A connected 2-shard testbed, the workload's seed and its oracles.
struct Stream {
    host: TwoChainsHost,
    fleet: SenderFleet,
    elem: ElementId,
    seed: u64,
    oracles: Vec<PutOracle>,
}

impl Stream {
    /// Fill every mailbox once, drain both shards, harvest completions and check
    /// every frame against the oracle. Returns the frames drained.
    fn round(
        &mut self,
        round: u64,
        tr: &mut Tracer,
        phase: &mut Phase,
        mut acc: Option<&mut Acc>,
    ) -> AmResult<usize> {
        let Stream {
            host,
            fleet,
            elem,
            seed,
            oracles,
        } = self;
        let (elem, seed) = (*elem, *seed);
        let make = move |ctx: SlotCtx| {
            let (key, payload) = input(seed, ctx);
            (indirect_put_args(key, PUT_INTS as u32, 4), payload)
        };
        let slots = host.config().total_mailboxes();
        let starts: Vec<SimTime> = (0..SHARDS)
            .map(|s| fleet.lane(s).map(|l| l.clock()).unwrap_or_default())
            .collect();
        let fill_start = Instant::now();
        let horizons = tr.span("fleet.fill_all", round, || {
            fleet.fill_all(elem, InvocationMode::Injected, round, &make)
        })?;
        let fill_wall = fill_start.elapsed().as_nanos() as f64;
        let mut drained = 0usize;
        let mut span_end = SimTime::ZERO;
        for shard in 0..SHARDS {
            let before = acc
                .is_some()
                .then(|| host.shard_stats(shard).cloned().unwrap_or_default());
            // The shard's scan notices the landed burst at a seeded phase of
            // its 4 ns poll interval.
            let phase_ps = mix(seed ^ mix(round ^ ((shard as u64) << 40))) % 4_000;
            let start = horizons[shard] + SimTime::from_ps(phase_ps);
            let out = tr.span("host.receive_burst", round, || {
                host.receive_burst(shard, usize::MAX, start)
            })?;
            phase.offered += (out.frames.len() + out.rejected.len()) as u64;
            drained += out.frames.len();
            let checked = tr.span("bench.oracle", round, || {
                out.frames
                    .iter()
                    .filter(|f| {
                        let ctx = SlotCtx {
                            stream: shard,
                            bank: f.bank,
                            slot: f.slot,
                            round,
                        };
                        let (key, payload) = input(seed, ctx);
                        oracles[shard].check(key, &payload, f.outcome.result)
                    })
                    .count()
            });
            phase.ok += checked as u64;
            span_end = span_end.max(out.drained_at);
            if let (Some(acc), Some(before)) = (acc.as_deref_mut(), before) {
                // The burst's clock advances by exactly its scan wait, the
                // handlers it ran and the credit puts it posted.
                let after = host.shard_stats(shard).cloned().unwrap_or_default();
                let charged = (after.wait_time - before.wait_time)
                    + (after.exec_time - before.exec_time)
                    + (after.credit_put_time - before.credit_put_time);
                if out.drained_at - start != charged {
                    phase.split_violations += 1;
                }
                acc.frames += out.frames.len();
                acc.bursts += u64::from(!out.frames.is_empty());
                for f in &out.frames {
                    let o = &f.outcome;
                    phase
                        .model_latency_ps
                        .push((o.handler_done - starts[shard]).as_ps());
                    acc.wait.add((o.detected_at - start).as_ns());
                    acc.dispatch.add(o.dispatch_time.as_ns());
                    if let Some(x) = &o.exec {
                        acc.exec.add(x);
                    }
                }
            }
        }
        tr.span("fleet.harvest_completions", round, || {
            fleet.harvest_completions()
        });
        if drained != slots {
            return Err(AmError::InvalidConfig(format!(
                "round {round} drained {drained} of {slots} frames"
            )));
        }
        if let Some(acc) = acc {
            let first = starts.iter().copied().min().unwrap_or_default();
            acc.model_span += span_end - first;
            acc.fill_wall.add(fill_wall / drained as f64);
        }
        Ok(drained)
    }
}
