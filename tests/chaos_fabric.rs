//! Chaos fabric survival: the fleet pipeline must be observationally equal to
//! its own lossless run when the sender→receiver link drops, duplicates and
//! reorders puts under a seeded [`FaultPlan`].
//!
//! The oracle is the same one `fleet_pipeline.rs` uses between schedules, here
//! applied between fault schedules: same per-message results (as multisets —
//! recovery legitimately perturbs drain order), same order-independent runtime
//! counters, zero rejected frames. On top of that the reliability layer has to
//! account for itself:
//!
//! * every dropped put was compensated by at least one retransmit
//!   (`frames_retransmitted >= dropped` — each drop consumes one delivery
//!   attempt, and attempts beyond `messages_sent` are retransmits by
//!   definition);
//! * `executions` matches the lossless run exactly, so no duplicate delivery
//!   or stale retransmit was ever executed twice (idempotent replay
//!   suppression);
//! * a pristine link pays nothing: with no plan installed the fault counters
//!   don't exist and `frames_retransmitted`, `replays_suppressed` and
//!   `nacks_posted` are all exactly zero.
//!
//! The workload is Server-Side Sum, deliberately not Indirect Put: its result
//! is the sum of the payload — a pure function of `(seed, bank, slot, round)` —
//! whereas Indirect Put returns a bump-allocated address that depends on
//! first-probe order, which fault recovery legitimately reshuffles.
//!
//! Both runs prime *through the pipeline* (not the phased fill/drain, which
//! has no retransmit machinery and would wedge on a dropped prime frame), then
//! reset statistics, so the measured rounds hit warm caches identically on
//! both sides regardless of recovery order.

use proptest::prelude::*;

use two_chains_suite::fabric::{FaultPlan, SimFabric};
use two_chains_suite::memsim::TestbedConfig;
use twochains::builtin::{benchmark_package, ssum_args, BuiltinJam};
use twochains::{
    drive_pipeline, InvocationMode, RuntimeConfig, SenderFleet, SlotCtx, TwoChainsHost,
};

const SHARDS: usize = 4;
const ROUNDS: usize = 3;

fn config() -> RuntimeConfig {
    let mut cfg = RuntimeConfig::paper_default()
        .with_shards(SHARDS)
        .with_sender_streams(SHARDS)
        .with_shard_local_space();
    cfg.frame_capacity = 4096;
    cfg.completion_window = cfg.total_mailboxes();
    cfg
}

/// SplitMix64, keying each (bank, slot, round) payload off the proptest seed.
fn mix(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn payload_for(seed: u64, ctx: SlotCtx) -> (Vec<u8>, Vec<u8>) {
    let r = mix(seed
        ^ ((ctx.bank as u64) << 24)
        ^ ((ctx.slot as u64) << 12)
        ^ ctx.round.wrapping_mul(7919));
    let usr: Vec<u8> = (0..16u8)
        .map(|b| b.wrapping_mul((r % 250) as u8 + 1))
        .collect();
    (ssum_args(4), usr)
}

struct Run {
    results: Vec<u64>,
    host: TwoChainsHost,
    fleet: SenderFleet,
    /// Puts lost on the faulted link during the measured rounds only (prime
    /// recovery is its own business and is excluded by a pre-measure snapshot).
    dropped: u64,
}

fn run(seed: u64, plan: Option<FaultPlan>) -> Run {
    run_with(seed, plan, false)
}

fn run_with(seed: u64, plan: Option<FaultPlan>, per_frame: bool) -> Run {
    let cfg = if per_frame {
        config().with_per_frame_aggregation()
    } else {
        config()
    };
    let (fabric, a, b) = SimFabric::back_to_back(TestbedConfig::cluster2021());
    let mut host = TwoChainsHost::new(&fabric, b, cfg).unwrap();
    host.install_package(benchmark_package().unwrap()).unwrap();
    // The plan must be installed before `connect_fleet` creates the lane
    // endpoints: each endpoint captures the link's fault hook at creation time.
    if let Some(plan) = plan {
        fabric.install_fault_plan(a, b, plan).unwrap();
    }
    let mut fleet =
        SenderFleet::connect_fleet(&fabric, a, &mut host, benchmark_package().unwrap()).unwrap();
    let elem = host.builtin_id(BuiltinJam::ServerSideSum).unwrap();
    let total = host.config().total_mailboxes();

    // Prime through the armed pipeline so dropped prime frames are recovered.
    let out = drive_pipeline(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        1,
        &|ctx| payload_for(seed ^ 0xA5A5_5A5A_A5A5_5A5A, ctx),
    )
    .unwrap();
    assert_eq!(out.drained, total);
    assert_eq!(out.rejected, 0);
    host.reset_stats();
    fleet.reset_stats();
    let primed = fabric.fault_counters(a, b).map_or(0, |s| s.dropped);

    let out = drive_pipeline(
        &mut host,
        &mut fleet,
        elem,
        InvocationMode::Injected,
        ROUNDS,
        &|ctx| payload_for(seed, ctx),
    )
    .unwrap();
    assert_eq!(out.drained, ROUNDS * total);
    assert_eq!(out.rejected, 0);
    let dropped = fabric.fault_counters(a, b).map_or(0, |s| s.dropped) - primed;
    Run {
        results: out.results.iter().map(|f| f.result).collect(),
        host,
        fleet,
        dropped,
    }
}

fn assert_survives(seed: u64, plan: FaultPlan) {
    let base = run(seed, None);
    let chaos = run(seed, Some(plan));

    // The pristine link pays literally nothing for the reliability layer.
    assert_eq!(base.dropped, 0);
    assert_eq!(base.fleet.stats().frames_retransmitted, 0);
    assert_eq!(base.host.stats().replays_suppressed, 0);
    assert_eq!(base.host.stats().nacks_posted, 0);

    // Same messages executed with the same outcomes, as multisets.
    let mut br = base.results;
    let mut cr = chaos.results;
    br.sort_unstable();
    cr.sort_unstable();
    assert_eq!(br, cr);

    // Receiver-side order-independent counters match exactly. Not compared:
    // `credit_put_bytes` (idempotent replay re-credits and NACK posts ride the
    // credit accounting) and all virtual-time/cycle counters.
    let (a, b) = (base.host.stats(), chaos.host.stats());
    assert_eq!(a.messages_received, b.messages_received);
    assert_eq!(a.executions, b.executions);
    assert_eq!(a.injected_executions, b.injected_executions);
    assert_eq!(a.local_executions, b.local_executions);
    assert_eq!(a.injected_code_cache_hits, b.injected_code_cache_hits);
    assert_eq!(a.injected_code_cache_misses, b.injected_code_cache_misses);
    assert_eq!(a.got_cache_hits, b.got_cache_hits);
    assert_eq!(a.got_cache_misses, b.got_cache_misses);
    assert_eq!(a.frames_rejected, 0);
    assert_eq!(b.frames_rejected, 0);
    assert_eq!(a.poisoned_quarantined, b.poisoned_quarantined);
    // One real credit per received message on both schedules: suppressed
    // replays re-publish an existing token, they never mint a new credit.
    assert_eq!(a.credits_returned, a.messages_received);
    assert_eq!(b.credits_returned, b.messages_received);

    // Sender-side: retransmits are not sends, so the steady counters agree.
    let (sa, sb) = (base.fleet.stats(), chaos.fleet.stats());
    assert_eq!(sa.messages_sent, sb.messages_sent);
    assert_eq!(sa.bytes_sent, sb.bytes_sent);
    assert_eq!(sa.template_hits, sb.template_hits);
    assert_eq!(sa.template_misses, sb.template_misses);
    assert_eq!(sa.sends_backpressured, 0);
    assert_eq!(sb.sends_backpressured, 0);
    for stream in 0..SHARDS {
        assert_eq!(
            base.fleet.lane(stream).unwrap().stats().messages_sent,
            chaos.fleet.lane(stream).unwrap().stats().messages_sent,
            "stream {stream} sent the same count under both fault schedules"
        );
    }

    // Recovery accounting: every lost put consumed one delivery attempt, and
    // every attempt beyond `messages_sent` is a retransmit — so a completed
    // run must have retransmitted at least as many frames as the link dropped.
    assert!(
        sb.frames_retransmitted >= chaos.dropped,
        "retransmits ({}) must cover drops ({})",
        sb.frames_retransmitted,
        chaos.dropped
    );
}

#[test]
fn pipeline_survives_a_dropping_link() {
    assert_survives(0xC4A0_5C4A, FaultPlan::drop_only(0.05, 0xD20B));
}

/// Whole-container fault schedules: under the default adaptive aggregation a
/// multi-frame container is one put, so the faulted link drops, duplicates
/// and reorders *entire batches* — and the run must still be observationally
/// equal to the per-frame lossless schedule: same result multiset, same
/// execution count (no inner frame ever double-executes, however many times
/// its container was delivered), retransmits covering every dropped put.
#[test]
fn batched_pipeline_under_faults_matches_the_per_frame_lossless_run() {
    let seed = 0xBA7C_4ED5;
    let base = run_with(seed, None, true);
    let chaos = run_with(seed, Some(FaultPlan::mixed(0.12, 0x0C0F_FEE5)), false);

    // The baseline really ran the old wire behaviour, the chaos run really
    // aggregated — whole containers were at stake on every fault.
    assert_eq!(base.fleet.stats().batch_puts, 0);
    let cs = chaos.fleet.stats();
    assert!(
        cs.batch_puts > 0,
        "adaptive pipeline never built a container"
    );
    assert!(
        cs.batched_frames > cs.batch_puts,
        "containers must be multi-frame"
    );

    // Observational equality across both the policy and the fault schedule.
    let mut br = base.results;
    let mut cr = chaos.results;
    br.sort_unstable();
    cr.sort_unstable();
    assert_eq!(br, cr, "result multisets diverge");
    let (a, b) = (base.host.stats(), chaos.host.stats());
    assert_eq!(a.messages_received, b.messages_received);
    assert_eq!(
        a.executions, b.executions,
        "a replayed container double-executed"
    );
    assert_eq!(a.injected_executions, b.injected_executions);
    assert_eq!(a.frames_rejected, 0);
    assert_eq!(b.frames_rejected, 0);
    // One real credit per received message on both sides: a replayed or
    // retransmitted container re-publishes tokens, it never mints extras.
    assert_eq!(a.credits_returned, a.messages_received);
    assert_eq!(b.credits_returned, b.messages_received);
    // The payload ledger matches across policies too: `bytes_sent` counts
    // inner-frame bytes only, the container envelope is accounting-invisible.
    let bs = base.fleet.stats();
    assert_eq!(bs.messages_sent, cs.messages_sent);
    assert_eq!(bs.bytes_sent, cs.bytes_sent);

    // Recovery accounting: a dropped container consumed one delivery attempt
    // covering all its inner frames; the retransmit counter tracks frames, so
    // covering every dropped put takes at least one frame each.
    assert!(
        cs.frames_retransmitted >= chaos.dropped,
        "retransmits ({}) must cover dropped puts ({})",
        cs.frames_retransmitted,
        chaos.dropped
    );
}

#[test]
fn pipeline_survives_a_dropping_duplicating_reordering_link() {
    assert_survives(0x2C2C_2C2C, FaultPlan::mixed(0.12, 0xFA_B71C));
}

proptest! {
    // Each case runs the full pipeline four times (two primed runs); keep the
    // count modest so the property stays a fast tier-1 test.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Survival holds over arbitrary payload interleaves and fault seeds, for
    /// both the pure-loss and the mixed drop/duplicate/reorder schedules.
    #[test]
    fn pipeline_survives_arbitrary_fault_seeds(seed in any::<u64>()) {
        assert_survives(seed, FaultPlan::drop_only(0.04, mix(seed)));
        assert_survives(seed ^ 0xFEED, FaultPlan::mixed(0.09, mix(seed ^ 0xFEED)));
    }
}
