//! The initiator-side multi-sender runtime: a [`SenderFleet`] of per-stream
//! [`TwoChainsSender`]s that fills mailbox banks concurrently with shard
//! draining.
//!
//! # Why a fleet
//!
//! The receiver has been sharded since PR 2 (`bank % num_shards` ownership,
//! per-shard scratch/stats, parallel [`ShardDrain`](super::ShardDrain)s), but
//! the initiator stayed a single [`TwoChainsSender`] filling every bank from
//! one thread — so end-to-end wall measurements serialized the whole send phase
//! in front of the parallel drain. The fleet gives the sender the same
//! per-shard treatment: **stream `s` of `S` owns exactly the banks with
//! `bank % S == s`**, the same deterministic map the receiver shards drain by,
//! so pairing `sender_streams == num_shards` gives every drain shard one
//! dedicated initiator and no stream ever crosses another.
//!
//! Each [`SenderLane`] is a complete, independently movable sender context:
//!
//! * its **own [`Endpoint`](twochains_fabric::Endpoint)** over the shared
//!   fabric (endpoints are `Send`; puts issued concurrently from different
//!   lanes still serialize honestly on the source host's NIC transmit pipeline
//!   in virtual time),
//! * its **own sequence space** and reusable encode buffer,
//! * its **own frame-template cache** (per-lane warm fast path),
//! * its **own [`RuntimeStats`]**, folded into a fleet-wide view by
//!   [`SenderFleet::stats`] via [`RuntimeStats::merge`].
//!
//! # The session handshake
//!
//! Connection setup is one explicit, by-value exchange that cannot be
//! partially wired:
//! [`TwoChainsHost::session_handshake`](super::TwoChainsHost::session_handshake)
//! exports a [`SessionHandshake`] — one [`StreamHandshake`] per receiver
//! shard, each carrying
//!
//! 1. the [`StreamTarget`]s (bank, slot, [`MailboxTarget`]) of every mailbox
//!    the stream owns (plus the bank geometry the credit table mirrors), and
//! 2. the receiver-resolved GOT image of every element in the installed
//!    package (the paper's "GOT redirect ... set by the sender after an
//!    exchange with the receiver").
//!
//! [`SenderFleet::connect_fleet`] consumes the session: one endpoint + sender
//! per stream, GOT images registered, template caches cold until first use —
//! and answers with the *reverse* half in the same call: each lane registers a
//! [`BankFlags`](crate::bank::BankFlags) credit table and a
//! [`NackFlags`](crate::bank::NackFlags) table in its own (sender-side)
//! address space and ships the descriptors back as
//! [`CreditHandshake`](super::CreditHandshake)s, which the host turns into one
//! reverse-direction endpoint per receiver shard. The closed `stream == shard`
//! pairing is a construction invariant of the session: a host whose
//! configuration cannot support it refuses to export the handshake with one
//! error listing everything that is missing, so there is no connected-but-
//! creditless state to discover later.
//!
//! # The credit wire format (§VI-A2: flow control as fabric traffic)
//!
//! Mailbox credits do not travel over a host-side side channel; the receiver
//! *puts* them back into the sender's registered memory, so flow control
//! contends for the NIC and is charged in virtual time like every other byte
//! on the wire.
//!
//! * **Word layout.** Each lane's flag region holds one row per owned bank
//!   (bank `b` of stream `s` of `S` is row `b / S`), each row a word-aligned
//!   run of `per_bank` one-byte slot *tokens*
//!   ([`BankFlags::row_stride`](crate::bank::BankFlags::row_stride) pads rows
//!   to 8-byte words). The token of (`row`, `slot`) lives at byte
//!   `row * row_stride(per_bank) + slot`.
//! * **Token sequence.** The k-th retire of a slot (drained,
//!   dispatch-rejected or quarantined — k counted from 0 on the receiver)
//!   writes token `(k % 255) + 1`: never the fresh-region 0, and adjacent
//!   tokens always differ, so *token ≠ last-consumed* means exactly one new
//!   credit. The sender never writes the region — single-writer bytes cannot
//!   tear or race.
//! * **Release/acquire pairing.** Credits travel as row-span
//!   [`Endpoint::put`](twochains_fabric::Endpoint::put)s — the receiver
//!   batches retired slots per row and flushes one put covering the dirty
//!   span (1..=`per_bank` bytes), issued strictly *after* every covered
//!   slot's mailbox was cleared. `put` publishes its *final* byte with
//!   release ordering and a flushed span always ends on a freshly minted
//!   token, so a lane whose acquire load
//!   ([`BankFlags::try_acquire`](crate::bank::BankFlags::try_acquire))
//!   observes any token in the span also sees its cleared slot before the
//!   refill put. Gap slots inside a span are rewritten byte-identically;
//!   tokens are value-compared, so an idempotent rewrite can never mint a
//!   credit. The span put is still its own signal: on an unordered fabric it
//!   *is* the conservative `put_unordered` + fence + signal-put protocol
//!   collapsed into one transfer, so ordered and unordered links behave
//!   identically here. One flush can refill several of a lane's slots at
//!   once — the wakeup harvests them all and counts the extras in
//!   [`RuntimeStats::credit_refills_coalesced`].
//! * **Ordering vs frame puts.** Credit puts ride the receiver→sender
//!   direction while frame puts ride sender→receiver; the two directions
//!   share no ordering and need none — the only edge that matters is
//!   clear → credit-put (drain thread program order + release) →
//!   credit-acquire → refill-put (lane program order), which the pairing
//!   above provides. On the simulated testbed the credit put's DMA delivery
//!   installs the token on the sender host and posts invalidations to the
//!   sender cores' inboxes (`memsim::sharded`) exactly like inbound frames do
//!   on the receiver, so the lane's next poll of its flag word re-fetches the
//!   freshly stashed line and is charged accordingly.
//!
//! # The flow-control contract
//!
//! Every lane's send posts the put's delivery into that stream's
//! [`CompletionQueue`] — one queue per stream, bundled as a
//! [`ShardedCompletions`] whose `bank % streams` routing mirrors the bank
//! ownership map. The queue depth ([`RuntimeConfig::completion_window`]) is
//! the transmit window: a lane that fills it harvests **its own** completions
//! (charged the per-entry software cost, counted in
//! [`RuntimeStats::sends_backpressured`] /
//! [`RuntimeStats::completions_harvested`]) before posting more. Back-pressure
//! therefore pauses only the affected stream; sibling lanes never observe it.
//!
//! # Pipelined fill + drain
//!
//! [`SenderFleet::fill_parallel`] runs one OS thread per lane (a barrier-style
//! parallel fill), and [`drive_pipeline`] goes further: sender threads and
//! shard-drain threads run *concurrently*, coupled only by the one-sided
//! credit path — no channels, no shared queues. As each frame retires, the
//! drain thread puts the slot's next credit token into the paired lane's flag
//! region; the lane spins/parks on acquire loads of its own region and
//! refills a slot the moment its token changes — fill and drain genuinely
//! overlap in wall clock, bounded by the per-slot credit loop instead of a
//! phase barrier. Results and order-independent runtime counters are
//! observationally equal to the sequential fill-then-drain schedule (pinned
//! by `tests/fleet_pipeline.rs`); *time* counters are not comparable, because
//! the pipelined drain polls its banks repeatedly (each scan charges one
//! poll) where the phased schedule scans once per round.
//!
//! [`RuntimeConfig::completion_window`]: crate::config::RuntimeConfig::completion_window
//! [`RuntimeStats::sends_backpressured`]: crate::stats::RuntimeStats::sends_backpressured
//! [`RuntimeStats::completions_harvested`]: crate::stats::RuntimeStats::completions_harvested

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use twochains_fabric::{AccessFlags, CompletionQueue, HostId, ShardedCompletions, SimFabric};
use twochains_jamvm::GotImage;
use twochains_linker::{ElementId, Package};
use twochains_memsim::{AccessKind, CoreBus, MemoryBus, SimTime};

use super::credit::CreditHandshake;
use super::retry::ClampedFibonacci;
use super::spec::MessageSpec;
use super::{AmSendOutcome, TwoChainsHost, TwoChainsSender};
use crate::bank::{BankFlags, NackFlags};
use crate::config::{AggregationPolicy, InvocationMode, RuntimeConfig};
use crate::error::{AmError, AmResult};
use crate::frame::FrameBatch;
use crate::mailbox::MailboxTarget;
use crate::stats::RuntimeStats;

/// First watchdog delay after a stall with frames in flight begins; the
/// schedule then follows [`ClampedFibonacci`]. Credit round-trips complete in
/// microseconds of wall clock on a healthy link, so a stall this long with no
/// credit and no NACK means the frame (or its NACK) is probably gone.
const WATCHDOG_BASE: Duration = Duration::from_micros(400);
/// Backoff clamp: a persistently lossy link keeps being probed at this rate
/// instead of backing off into effective silence.
const WATCHDOG_CLAMP: Duration = Duration::from_millis(10);
/// Watchdog firings a single stall episode may consume before the lane fails
/// loudly. At the clamp this bounds a wedged episode to a few hundred
/// milliseconds of retries — a link that eats 32 consecutive retransmits of
/// the same frames is broken, not lossy, and spinning forever would just
/// deadlock the pipeline with no diagnosis.
const RETRY_BUDGET: u32 = 32;

/// One mailbox a sender stream owns: its coordinates on the receiver and the
/// target descriptor to aim the one-sided put at.
#[derive(Debug, Clone)]
pub struct StreamTarget {
    /// Bank index on the receiver.
    pub bank: usize,
    /// Slot within the bank.
    pub slot: usize,
    /// The put target (region descriptor + offset + capacity).
    pub target: MailboxTarget,
}

/// The receiver's half of the multi-sender connection setup for one stream:
/// everything an initiator needs to start injecting, by value.
#[derive(Debug, Clone)]
pub struct StreamHandshake {
    /// The stream this handshake is for (`0..streams`).
    pub stream: usize,
    /// Total number of streams the receiver partitioned its banks over.
    pub streams: usize,
    /// Mailboxes per bank on the receiver — the geometry the stream's credit
    /// table ([`BankFlags`]) mirrors row for row.
    pub per_bank: usize,
    /// The mailboxes this stream owns (`bank % streams == stream`).
    pub targets: Vec<StreamTarget>,
    /// Receiver-resolved GOT image per installed package element.
    pub gots: Vec<(ElementId, GotImage)>,
}

/// The receiver's complete half of a fleet session, exported by
/// [`TwoChainsHost::session_handshake`] and consumed whole by
/// [`SenderFleet::connect_fleet`]: every stream's targets and GOT images plus
/// the shard count the credit and NACK tables must pair with. Bundling the
/// pieces makes partial wiring unrepresentable — a session either connects
/// with its one-sided credit returns and NACK arming installed, or it does not
/// connect at all.
#[derive(Debug, Clone)]
pub struct SessionHandshake {
    /// One forward handshake per stream (`streams.len() == shards` — the
    /// closed pairing is a construction invariant).
    pub streams: Vec<StreamHandshake>,
    /// The receiver's shard count, which the sender's credit/NACK geometry
    /// mirrors row for row.
    pub shards: usize,
}

/// Coordinates of one fill: which stream is packing, which mailbox it aims at,
/// and the per-slot round number — everything a payload generator needs to
/// produce a deterministic message for that slot.
#[derive(Debug, Clone, Copy)]
pub struct SlotCtx {
    /// The sending stream.
    pub stream: usize,
    /// Destination bank.
    pub bank: usize,
    /// Destination slot within the bank.
    pub slot: usize,
    /// How many times this slot has been filled before (0 for the first fill).
    pub round: u64,
}

/// One posted batch container an armed lane keeps for retransmission: the
/// exact container wire bytes, the inner sequence numbers it carries (NACK
/// lookup key), and the covered target indices (the entry is dead — and
/// garbage-collected at the next flush — once every member's credit came
/// back). The container is the retransmit unit: re-putting it re-delivers
/// every inner frame, and the receiver's per-slot replay filters retire the
/// already-executed ones silently.
#[derive(Debug, Default)]
struct CachedBatch {
    bytes: Vec<u8>,
    sns: Vec<u32>,
    members: Vec<usize>,
    /// Target index of the carrier mailbox the container was put into.
    carrier: usize,
}

/// One stream's complete sender context: its own [`TwoChainsSender`] (endpoint,
/// sequence space, template cache, statistics), the mailbox targets it owns,
/// its [`BankFlags`] credit table (the flag region the receiver's credit puts
/// land in, registered in this sender's address space), the core bus its
/// credit polls are charged through, and its private virtual clock. `Send`, so
/// a fleet can park one lane per OS thread.
#[derive(Debug)]
pub struct SenderLane {
    stream: usize,
    streams: usize,
    sender: TwoChainsSender,
    targets: Vec<StreamTarget>,
    /// `(bank, slot)` → index into `targets` (single-slot sends and credit
    /// probes arrive as coordinates).
    index: HashMap<(usize, usize), usize>,
    /// The lane's credit table: per-bank rows of per-slot tokens the receiver
    /// writes with one-sided puts (see the module docs for the wire format).
    flags: BankFlags,
    /// The lane's NACK table: one row per owned bank, written by the
    /// receiver's sequence-gap reports ([`NackFlags`]). Registered alongside
    /// the credit table and handed over in the same [`CreditHandshake`].
    nacks: NackFlags,
    /// Exact wire bytes of the most recent send per owned slot, kept so a
    /// NACK or watchdog timeout can retransmit byte-identically. Filled only
    /// while the reliability layer is armed (the lane's endpoint has a fault
    /// plan); lossless runs never copy a byte here.
    wire_cache: Vec<Vec<u8>>,
    /// Whether the most recent frame sent to each owned slot is still
    /// awaiting its credit (armed runs only).
    in_flight: Vec<bool>,
    /// The sender-host core this lane runs on; its private L1/L2 cache the
    /// flag words between credit puts (each put's DMA invalidates the line
    /// through the core's inbox, so the next poll re-fetches honestly).
    bus: CoreBus,
    core: usize,
    clock: SimTime,
    /// Aggregation knobs copied from the host's [`RuntimeConfig`] at connect
    /// time (the lane has no config access afterwards).
    agg_policy: AggregationPolicy,
    batch_max_frames: usize,
    batch_latency_ns: f64,
    /// The open (not yet posted) batch container, its inner sequence numbers
    /// and covered target indices. Frames destined for one bank accumulate
    /// here until a flush trigger posts the whole container with one put.
    batch: FrameBatch,
    batch_sns: Vec<u32>,
    batch_members: Vec<usize>,
    /// Target index of the open container's carrier mailbox (its first
    /// frame's slot); `None` while no container is open.
    batch_carrier: Option<usize>,
    /// Bank the open container's frames are destined for — a frame for a
    /// different bank closes the container first (inner slots are declared
    /// relative to the carrier's bank).
    batch_bank: Option<usize>,
    /// Lane-virtual time the open container's first frame was encoded; the
    /// latency watermark bounds how long the container may stay open.
    batch_opened: SimTime,
    /// Scratch buffers (one encoded inner frame / one finished container),
    /// parked here so steady-state batching never allocates.
    frame_buf: Vec<u8>,
    batch_buf: Vec<u8>,
    /// Posted containers awaiting their members' credits (armed runs only).
    batch_cache: Vec<CachedBatch>,
}

impl SenderLane {
    fn new(
        handshake: StreamHandshake,
        mut sender: TwoChainsSender,
        flags: BankFlags,
        nacks: NackFlags,
        bus: CoreBus,
        core: usize,
        config: &RuntimeConfig,
    ) -> Self {
        for (id, got) in &handshake.gots {
            sender.set_remote_got(*id, got);
        }
        let index = handshake
            .targets
            .iter()
            .enumerate()
            .map(|(i, t)| ((t.bank, t.slot), i))
            .collect();
        let slots = handshake.targets.len();
        SenderLane {
            stream: handshake.stream,
            streams: handshake.streams,
            sender,
            targets: handshake.targets,
            index,
            flags,
            nacks,
            wire_cache: vec![Vec::new(); slots],
            in_flight: vec![false; slots],
            bus,
            core,
            clock: SimTime::ZERO,
            agg_policy: config.aggregation_policy,
            batch_max_frames: config.batch_max_frames,
            batch_latency_ns: config.batch_latency_watermark_ns,
            batch: FrameBatch::new(),
            batch_sns: Vec::new(),
            batch_members: Vec::new(),
            batch_carrier: None,
            batch_bank: None,
            batch_opened: SimTime::ZERO,
            frame_buf: Vec::new(),
            batch_buf: Vec::new(),
            batch_cache: Vec::new(),
        }
    }

    /// Whether this lane aggregates frames into batch containers. `PerFrame`
    /// lanes run the pre-aggregation send paths untouched — byte-identical
    /// wire behaviour, pinned by test.
    fn aggregating(&self) -> bool {
        matches!(self.agg_policy, AggregationPolicy::Adaptive)
    }

    /// The credit-table row of one of this lane's banks (`bank / streams` —
    /// the inverse of the `bank % streams` ownership map).
    fn credit_row(&self, bank: usize) -> usize {
        bank / self.streams.max(1)
    }

    /// Consume one pending credit for the `idx`-th owned slot: an acquire
    /// load of the slot's token byte, charged through this lane's core bus
    /// when a fresh token is observed (after the credit put's DMA invalidated
    /// the cached line, the observing poll is the one that re-fetches it).
    fn try_acquire_slot(&mut self, idx: usize) -> AmResult<bool> {
        let t = &self.targets[idx];
        let row = self.credit_row(t.bank);
        if self.flags.try_acquire(row, t.slot)? {
            let addr = self.flags.slot_addr(row, t.slot)?;
            self.clock += self.bus.access(self.core, addr, 1, AccessKind::Read);
            Ok(true)
        } else {
            Ok(false)
        }
    }

    /// Whether a credit is pending for owned mailbox (`bank`, `slot`), without
    /// consuming it. Rejected when the mailbox is not one of this stream's
    /// targets.
    pub fn credit_pending(&self, bank: usize, slot: usize) -> AmResult<bool> {
        let idx = *self.index.get(&(bank, slot)).ok_or_else(|| {
            AmError::InvalidConfig(format!(
                "mailbox ({bank}, {slot}) is not owned by stream {}",
                self.stream
            ))
        })?;
        let t = &self.targets[idx];
        self.flags.credit_pending(self.credit_row(t.bank), t.slot)
    }

    /// Snapshot the credit table, discarding stale credits ([`BankFlags::sync`]),
    /// and likewise the NACK table (a gap report aimed at an earlier run's
    /// frames must not trigger a retransmit now). A pipeline run starts with
    /// this: credits earned by earlier phased schedules (which consume none)
    /// must not leak in as phantom refill permissions.
    pub fn sync_credits(&mut self) -> AmResult<()> {
        self.flags.sync()?;
        self.nacks.sync()
    }

    /// Whether this lane's endpoint carries an installed fault plan — the
    /// switch that arms the sender half of the reliability layer. On a
    /// pristine link the wire cache, the NACK polls and the watchdog are all
    /// skipped, so the lossless fast path pays nothing for the machinery.
    fn faults_enabled(&mut self) -> bool {
        self.sender.endpoint_mut().faults_enabled()
    }

    /// Snapshot the wire bytes of the send that just completed into the
    /// `idx`-th slot's retransmit cache and mark the frame in flight. The
    /// per-slot buffer is reused, so steady state copies without allocating.
    fn cache_wire(&mut self, idx: usize) {
        let wire = self.sender.last_wire();
        let cached = &mut self.wire_cache[idx];
        cached.clear();
        cached.extend_from_slice(wire);
        self.in_flight[idx] = true;
    }

    /// Append the next message for owned slot `idx` to the open batch
    /// container, posting the container first whenever a flush trigger fires:
    /// bank boundary (inner slots are declared within the carrier's bank),
    /// batch-fill (`batch_max_frames`), the latency watermark (an open
    /// container older than `batch_latency_ns` of lane-virtual time), or
    /// carrier capacity (the container plus this frame would overrun the
    /// carrier mailbox). A frame too large to batch even alone is posted
    /// standalone from the already-encoded bytes — byte-identical to a
    /// per-frame send. Returns the outcome of whichever put this append
    /// performed, `None` when the frame only accumulated.
    fn append_to_batch(
        &mut self,
        cq: &mut CompletionQueue,
        idx: usize,
        spec: &MessageSpec,
    ) -> AmResult<Option<AmSendOutcome>> {
        let bank = self.targets[idx].bank;
        let mut flushed = None;
        if self.batch_carrier.is_some()
            && (self.batch_bank != Some(bank)
                || self.batch.len() >= self.batch_max_frames
                || (self.clock - self.batch_opened).as_ns() >= self.batch_latency_ns)
        {
            flushed = self.flush_batch(cq)?;
        }
        let mut buf = std::mem::take(&mut self.frame_buf);
        buf.clear();
        let encoded = self.sender.encode_next(spec, &mut buf);
        let sn = match encoded {
            Ok(sn) => sn,
            Err(e) => {
                self.frame_buf = buf;
                return Err(e);
            }
        };
        if let Some(carrier) = self.batch_carrier {
            if self.batch.wire_size_with(buf.len()) > self.targets[carrier].target.capacity {
                flushed = self.flush_batch(cq)?;
            }
        }
        if self.batch_carrier.is_none() {
            if FrameBatch::new().wire_size_with(buf.len()) > self.targets[idx].target.capacity {
                // Too large for any container over this carrier: send it
                // standalone (the wire bytes are exactly a per-frame send's).
                self.harvest_if_full(cq);
                let sent =
                    self.sender
                        .put_frame(self.clock, &buf, &self.targets[idx].target, Some(cq));
                let sent = match sent {
                    Ok(sent) => sent,
                    Err(e) => {
                        self.frame_buf = buf;
                        return Err(e);
                    }
                };
                self.clock = sent.sender_free();
                if self.faults_enabled() {
                    let cached = &mut self.wire_cache[idx];
                    cached.clear();
                    cached.extend_from_slice(&buf);
                    self.in_flight[idx] = true;
                }
                self.frame_buf = buf;
                // Keep the later horizon: both puts rode this append.
                return Ok(match flushed {
                    Some(f) if f.delivered() > sent.delivered() => Some(f),
                    _ => Some(sent),
                });
            }
            self.batch_carrier = Some(idx);
            self.batch_bank = Some(bank);
            self.batch_opened = self.clock;
        }
        let pushed = self.batch.push(self.targets[idx].slot as u16, &buf);
        self.frame_buf = buf;
        pushed?;
        self.batch_sns.push(sn);
        self.batch_members.push(idx);
        Ok(flushed)
    }

    /// Post the open batch container with one put into its carrier mailbox
    /// (no-op when no container is open). Armed lanes snapshot the container
    /// bytes, its inner sequence numbers and its covered slots into the
    /// retransmit cache — the container is the retransmit unit — after
    /// garbage-collecting entries whose members have all been credited.
    fn flush_batch(&mut self, cq: &mut CompletionQueue) -> AmResult<Option<AmSendOutcome>> {
        let Some(carrier) = self.batch_carrier.take() else {
            return Ok(None);
        };
        self.batch_bank = None;
        let frames = self.batch.len();
        let mut buf = std::mem::take(&mut self.batch_buf);
        let finished = self.batch.finish_into(&mut buf);
        self.batch.clear();
        if let Err(e) = finished {
            self.batch_sns.clear();
            self.batch_members.clear();
            self.batch_buf = buf;
            return Err(e);
        }
        self.harvest_if_full(cq);
        let sent = self.sender.put_batch(
            self.clock,
            &buf,
            frames,
            &self.targets[carrier].target,
            Some(cq),
        );
        let sent = match sent {
            Ok(sent) => sent,
            Err(e) => {
                self.batch_sns.clear();
                self.batch_members.clear();
                self.batch_buf = buf;
                return Err(e);
            }
        };
        self.clock = sent.sender_free();
        let sns = std::mem::take(&mut self.batch_sns);
        let members = std::mem::take(&mut self.batch_members);
        if self.faults_enabled() {
            let in_flight = &self.in_flight;
            self.batch_cache
                .retain(|e| e.members.iter().any(|&m| in_flight[m]));
            for &m in &members {
                self.in_flight[m] = true;
                // The frame now in flight on this slot lives in the container
                // cache; a stale standalone snapshot must not ride a watchdog.
                self.wire_cache[m].clear();
            }
            self.batch_cache.push(CachedBatch {
                bytes: buf.clone(),
                sns,
                members,
                carrier,
            });
        }
        self.batch_buf = buf;
        Ok(Some(sent))
    }

    /// Drain this lane's NACK table and retransmit every reported frame that
    /// is still in flight, byte-identically from the wire cache. Returns how
    /// many puts were re-posted. A report whose sequence number matches no
    /// in-flight slot is ignored: its frame's credit already arrived (the NACK
    /// raced the recovery), so there is nothing left to repair. A sequence
    /// number that travelled inside a batch container retransmits the whole
    /// cached container — the receiver's replay filters retire the inner
    /// frames that did land.
    fn poll_nacks(&mut self) -> AmResult<usize> {
        let mut retransmitted = 0usize;
        for row in 0..self.nacks.rows() {
            while let Some(missing) = self.nacks.poll(row)? {
                // The observing poll pays the read of the freshly DMA'd row,
                // mirroring the credit-acquire charge.
                let addr = self.nacks.row_addr(row)?;
                self.clock += self.bus.access(self.core, addr, 8, AccessKind::Read);
                let needle = missing.to_le_bytes();
                let hit = (0..self.targets.len()).find(|&i| {
                    self.in_flight[i] && self.wire_cache[i].get(4..8) == Some(&needle[..])
                });
                if let Some(idx) = hit {
                    self.clock = self.sender.retransmit_frame(
                        self.clock,
                        &self.wire_cache[idx],
                        &self.targets[idx].target,
                    )?;
                    retransmitted += 1;
                    continue;
                }
                let batch_hit = self.batch_cache.iter().position(|e| {
                    e.sns.contains(&missing) && e.members.iter().any(|&m| self.in_flight[m])
                });
                if let Some(k) = batch_hit {
                    let entry = &self.batch_cache[k];
                    self.clock = self.sender.retransmit_frame(
                        self.clock,
                        &entry.bytes,
                        &self.targets[entry.carrier].target,
                    )?;
                    retransmitted += 1;
                }
            }
        }
        Ok(retransmitted)
    }

    /// Watchdog action: retransmit every in-flight frame from the wire cache
    /// — standalone frames from their slot's cache, batched frames as their
    /// whole cached container (each container once, however many of its
    /// members are outstanding). Retransmits are byte-identical, so the
    /// receiver's replay filter makes a spuriously early firing harmless (the
    /// duplicate is suppressed and its credit re-published idempotently).
    fn retransmit_in_flight(&mut self) -> AmResult<usize> {
        let mut retransmitted = 0usize;
        for idx in 0..self.targets.len() {
            if self.in_flight[idx] && !self.wire_cache[idx].is_empty() {
                self.clock = self.sender.retransmit_frame(
                    self.clock,
                    &self.wire_cache[idx],
                    &self.targets[idx].target,
                )?;
                retransmitted += 1;
            }
        }
        for k in 0..self.batch_cache.len() {
            let alive = self.batch_cache[k]
                .members
                .iter()
                .any(|&m| self.in_flight[m]);
            if alive && !self.batch_cache[k].bytes.is_empty() {
                let entry = &self.batch_cache[k];
                self.clock = self.sender.retransmit_frame(
                    self.clock,
                    &entry.bytes,
                    &self.targets[entry.carrier].target,
                )?;
                retransmitted += 1;
            }
        }
        Ok(retransmitted)
    }

    /// The stream this lane fills (`bank % streams == stream`).
    pub fn stream_id(&self) -> usize {
        self.stream
    }

    /// Number of mailboxes this lane owns.
    pub fn slots(&self) -> usize {
        self.targets.len()
    }

    /// This lane's virtual clock (advanced by every send's `sender_free`).
    pub fn clock(&self) -> SimTime {
        self.clock
    }

    /// This lane's sender-side counters (template hits, back-pressure stalls,
    /// bytes sent, ...).
    pub fn stats(&self) -> &RuntimeStats {
        self.sender.stats()
    }

    /// Per-stream flow control shared by every lane send: a full completion
    /// window first harvests this lane's own queue (never a sibling's) at the
    /// earliest completion horizon, charging the harvest cost to this lane's
    /// clock and counting the stall.
    fn harvest_if_full(&mut self, cq: &mut CompletionQueue) {
        if cq.outstanding() >= cq.capacity() {
            let ready_at = cq.earliest_ready(self.clock);
            let (done, cost) = cq.poll(ready_at);
            let stats = self.sender.stats_mut();
            stats.sends_backpressured += 1;
            stats.completions_harvested += done.len() as u64;
            self.clock = ready_at + cost;
        }
    }

    /// Send one message to the `idx`-th owned slot, under the lane's
    /// flow-control window.
    fn send_slot<F>(
        &mut self,
        cq: &mut CompletionQueue,
        elem: ElementId,
        mode: InvocationMode,
        idx: usize,
        round: u64,
        make: &F,
    ) -> AmResult<AmSendOutcome>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        self.harvest_if_full(cq);
        let t = &self.targets[idx];
        debug_assert_eq!(
            t.bank % self.streams,
            self.stream,
            "lane {} holds a target in bank {} it does not own",
            self.stream,
            t.bank
        );
        let ctx = SlotCtx {
            stream: self.stream,
            bank: t.bank,
            slot: t.slot,
            round,
        };
        let (args, usr) = make(ctx);
        let sent = self.sender.send_raw(
            self.clock,
            elem,
            mode,
            None,
            &args,
            &usr,
            &t.target,
            Some(cq),
        )?;
        self.clock = sent.sender_free();
        Ok(sent)
    }

    /// Send one [`MessageSpec`] — single-element or chained — to a specific
    /// owned mailbox, under the same per-stream flow control as a fill.
    /// Rejected when (`bank`, `slot`) is not one of this stream's targets.
    /// Every fleet send is completion-tracked by the lane's own window, so the
    /// spec's [`tracked`](MessageSpec::tracked) marker is satisfied either way.
    pub fn send_spec(
        &mut self,
        cq: &mut CompletionQueue,
        bank: usize,
        slot: usize,
        spec: &MessageSpec,
    ) -> AmResult<AmSendOutcome> {
        let idx = *self.index.get(&(bank, slot)).ok_or_else(|| {
            AmError::InvalidConfig(format!(
                "mailbox ({bank}, {slot}) is not owned by stream {}",
                self.stream
            ))
        })?;
        self.harvest_if_full(cq);
        let chain = spec.chain_descriptor()?;
        let t = &self.targets[idx];
        let sent = self.sender.send_raw(
            self.clock,
            spec.elem(),
            spec.invocation(),
            chain.as_ref(),
            spec.args_bytes(),
            spec.usr_bytes(),
            &t.target,
            Some(cq),
        )?;
        self.clock = sent.sender_free();
        Ok(sent)
    }

    /// Fill every owned slot once (round `round`), returning this stream's
    /// delivery horizon — when its last frame became visible at the receiver.
    ///
    /// Under the `Adaptive` aggregation policy the fill accumulates the
    /// bank-major target walk into batch containers — contiguous same-bank
    /// slots share one put, closed on bank boundary, batch-fill, capacity or
    /// the latency watermark, and unconditionally at the end of the round
    /// (the burst boundary). `PerFrame` runs the per-slot sends untouched.
    pub fn fill<F>(
        &mut self,
        cq: &mut CompletionQueue,
        elem: ElementId,
        mode: InvocationMode,
        round: u64,
        make: &F,
    ) -> AmResult<SimTime>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        let mut horizon = SimTime::ZERO;
        if !self.aggregating() {
            for idx in 0..self.targets.len() {
                let sent = self.send_slot(cq, elem, mode, idx, round, make)?;
                horizon = horizon.max(sent.delivered());
            }
            return Ok(horizon);
        }
        for idx in 0..self.targets.len() {
            let t = &self.targets[idx];
            let ctx = SlotCtx {
                stream: self.stream,
                bank: t.bank,
                slot: t.slot,
                round,
            };
            let (args, usr) = make(ctx);
            let spec = super::spec::spec(elem).mode(mode).args(args).usr(usr);
            if let Some(sent) = self.append_to_batch(cq, idx, &spec)? {
                horizon = horizon.max(sent.delivered());
            }
        }
        if let Some(sent) = self.flush_batch(cq)? {
            horizon = horizon.max(sent.delivered());
        }
        Ok(horizon)
    }
}

/// A borrowed per-stream handle pairing one lane with the `&mut` of its own
/// completion queue — the unit a sender thread owns. Handed out by
/// [`SenderFleet::handles`]; the borrows are disjoint per stream, so the
/// handles can be moved to OS threads.
#[derive(Debug)]
pub struct FleetLane<'a> {
    lane: &'a mut SenderLane,
    completions: &'a mut CompletionQueue,
}

impl FleetLane<'_> {
    /// The stream this handle fills.
    pub fn stream_id(&self) -> usize {
        self.lane.stream
    }

    /// Send one [`MessageSpec`] to a specific owned mailbox; see
    /// [`SenderLane::send_spec`].
    pub fn send_spec(
        &mut self,
        bank: usize,
        slot: usize,
        spec: &MessageSpec,
    ) -> AmResult<AmSendOutcome> {
        self.lane.send_spec(self.completions, bank, slot, spec)
    }

    /// Fill every owned slot once; see [`SenderLane::fill`].
    pub fn fill<F>(
        &mut self,
        elem: ElementId,
        mode: InvocationMode,
        round: u64,
        make: &F,
    ) -> AmResult<SimTime>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        self.lane.fill(self.completions, elem, mode, round, make)
    }

    /// This stream's sender-side counters.
    pub fn stats(&self) -> &RuntimeStats {
        self.lane.sender.stats()
    }
}

/// The first-class multi-sender runtime object: one [`SenderLane`] per stream
/// plus the [`ShardedCompletions`] bundle providing per-stream transmit
/// windows. See the module docs for the handshake and flow-control contract.
#[derive(Debug)]
pub struct SenderFleet {
    lanes: Vec<SenderLane>,
    completions: ShardedCompletions,
}

impl SenderFleet {
    /// Connect a fleet to `host` from fabric host `src` in **one session
    /// exchange**: the host exports its [`SessionHandshake`] (stream targets
    /// and GOT images, refused outright with one error listing everything
    /// missing if the session cannot be fully wired), the fleet builds one
    /// lane per stream and registers each lane's [`BankFlags`] credit table
    /// and [`NackFlags`](crate::bank::NackFlags) table sender-side, and the
    /// host installs the reverse-direction credit-return endpoints — all
    /// before this returns. There is no partially wired state: a connected
    /// fleet always has the one-sided credit path and NACK arming installed,
    /// ready for [`drive_pipeline`].
    ///
    /// `package` is the sender-side copy of the package the fleet injects
    /// from (same source the receiver installed). The stream count and
    /// per-stream window come from the host configuration's
    /// [`sender_streams`](crate::config::RuntimeConfig::sender_streams) and
    /// [`completion_window`](crate::config::RuntimeConfig::completion_window)
    /// knobs; `sender_streams` must equal the shard count (the session's
    /// construction invariant).
    pub fn connect_fleet(
        fabric: &SimFabric,
        src: HostId,
        host: &mut TwoChainsHost,
        package: Package,
    ) -> AmResult<Self> {
        let session = host.session_handshake()?;
        let window = host.config().completion_window;
        let (lanes, credit_handshakes) =
            Self::connect_inner(fabric, src, host, package, session.streams, window)?;
        host.install_credit_returns_inner(fabric, credit_handshakes)?;
        // Per-entry harvest cost: the same software bookkeeping constant the
        // UCX-like baseline pays, taken from its single definition so a
        // retuned baseline can never silently diverge from the fleet.
        let harvest_cost = CompletionQueue::ucx_default().harvest_cost();
        Ok(SenderFleet {
            completions: ShardedCompletions::new(lanes.len(), window, harvest_cost),
            lanes,
        })
    }

    /// The lane-construction half of a connect: one endpoint + sender per
    /// forward handshake, each lane's credit and NACK tables registered in the
    /// sender's address space, their descriptors collected for the reverse
    /// half of the exchange.
    fn connect_inner(
        fabric: &SimFabric,
        src: HostId,
        host: &TwoChainsHost,
        package: Package,
        handshakes: Vec<StreamHandshake>,
        window: usize,
    ) -> AmResult<(Vec<SenderLane>, Vec<CreditHandshake>)> {
        if window == 0 {
            return Err(AmError::InvalidConfig(
                "completion window needs at least one entry".into(),
            ));
        }
        let sender_host = fabric.host(src)?;
        let num_cores = sender_host.hierarchy().num_cores();
        let mut credit_handshakes = Vec::with_capacity(handshakes.len());
        let lanes = handshakes
            .into_iter()
            .map(|handshake| {
                let endpoint = fabric.endpoint(src, host.host_id())?;
                // The lane's credit table: one row per owned bank, registered
                // in *this sender's* address space so the receiver can credit
                // it with one-sided puts (the reverse handshake below hands
                // the descriptor over).
                let rows = super::credit::banks_owned(
                    handshake.stream,
                    handshake.streams,
                    host.config().banks,
                );
                let region = sender_host.register(
                    BankFlags::table_len(rows, handshake.per_bank),
                    AccessFlags::rw(),
                )?;
                let flags = BankFlags::new(region, rows, handshake.per_bank)?;
                // The lane's NACK table rides the same reverse handshake: the
                // receiver posts sequence-gap reports here with one-sided
                // puts, arming the reliability layer for this stream.
                let nack_region =
                    sender_host.register(NackFlags::table_len(rows), AccessFlags::rw())?;
                let nacks = NackFlags::new(nack_region, rows)?;
                credit_handshakes.push(CreditHandshake {
                    stream: handshake.stream,
                    streams: handshake.streams,
                    per_bank: handshake.per_bank,
                    descriptor: flags.descriptor(),
                    nack: Some(nacks.descriptor()),
                });
                // Lane `s` polls its flag region on sender core `s % cores`,
                // through that core's own private L1/L2 (with more lanes than
                // cores the surplus lanes alias cores — a cost-model
                // approximation only; credit *values* always come from the
                // region's real atomics).
                let core = handshake.stream % num_cores;
                let bus = sender_host.core_bus(core);
                Ok(SenderLane::new(
                    handshake,
                    TwoChainsSender::new(endpoint, package.clone()),
                    flags,
                    nacks,
                    bus,
                    core,
                    host.config(),
                ))
            })
            .collect::<AmResult<Vec<_>>>()?;
        Ok((lanes, credit_handshakes))
    }

    /// Number of sender lanes (streams).
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// One lane, by stream index.
    pub fn lane(&self, stream: usize) -> Option<&SenderLane> {
        self.lanes.get(stream)
    }

    /// Element id of a builtin benchmark jam (delegates to lane 0's package
    /// copy — every lane injects from the same package source).
    pub fn builtin_id(&self, jam: crate::builtin::BuiltinJam) -> AmResult<ElementId> {
        self.lanes
            .first()
            .ok_or_else(|| AmError::InvalidConfig("fleet has no lanes".into()))?
            .sender
            .builtin_id(jam)
    }

    /// Fleet-wide sender statistics: every lane's counters folded through
    /// [`RuntimeStats::merge`] (per-lane views stay available via
    /// [`SenderFleet::lane`]).
    pub fn stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats::new();
        for lane in &self.lanes {
            total.merge(lane.sender.stats());
        }
        total
    }

    /// Zero every lane's counters (template caches and clocks are preserved).
    pub fn reset_stats(&mut self) {
        for lane in &mut self.lanes {
            lane.sender.stats_mut().reset();
        }
    }

    /// Puts posted but not yet harvested, across all streams.
    pub fn outstanding_completions(&self) -> usize {
        self.completions.outstanding_total()
    }

    /// Harvest every completion on every stream's queue (bench housekeeping
    /// between phases). Each lane's clock waits to each entry's own readiness
    /// horizon and pays the per-entry harvest cost, same as a back-pressure
    /// harvest; the counts land in
    /// [`RuntimeStats::completions_harvested`](crate::stats::RuntimeStats::completions_harvested).
    /// Returns the number harvested across the fleet.
    pub fn harvest_completions(&mut self) -> usize {
        let mut harvested = 0usize;
        for (lane, cq) in self.lanes.iter_mut().zip(self.completions.queues_mut()) {
            while cq.outstanding() > 0 {
                let horizon = cq.earliest_ready(lane.clock);
                let (done, cost) = cq.poll(horizon);
                lane.sender.stats_mut().completions_harvested += done.len() as u64;
                lane.clock = lane.clock.max(horizon) + cost;
                harvested += done.len();
            }
        }
        harvested
    }

    /// Split the fleet into one independently movable [`FleetLane`] per stream
    /// (lane + its own completion queue), for caller-managed threading.
    pub fn handles(&mut self) -> Vec<FleetLane<'_>> {
        self.lanes
            .iter_mut()
            .zip(self.completions.queues_mut())
            .map(|(lane, completions)| FleetLane { lane, completions })
            .collect()
    }

    /// Fill every stream's slots once, lane after lane on the calling thread
    /// (the deterministic schedule the modelled benchmarks use). Returns each
    /// stream's delivery horizon.
    pub fn fill_all<F>(
        &mut self,
        elem: ElementId,
        mode: InvocationMode,
        round: u64,
        make: &F,
    ) -> AmResult<Vec<SimTime>>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>),
    {
        self.lanes
            .iter_mut()
            .zip(self.completions.queues_mut())
            .map(|(lane, cq)| lane.fill(cq, elem, mode, round, make))
            .collect()
    }

    /// Fill every stream's slots once, one OS thread per lane. Same wire
    /// content and results as [`SenderFleet::fill_all`]; the virtual delivery
    /// horizons may differ (the shared NIC serializes whichever lane reaches
    /// it first), which is why the deterministic benchmarks use the sequential
    /// schedule and the wall-clock ones use this.
    pub fn fill_parallel<F>(
        &mut self,
        elem: ElementId,
        mode: InvocationMode,
        round: u64,
        make: &F,
    ) -> AmResult<Vec<SimTime>>
    where
        F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>) + Sync,
    {
        let results: Vec<AmResult<SimTime>> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .zip(self.completions.queues_mut())
                .map(|(lane, cq)| s.spawn(move || lane.fill(cq, elem, mode, round, make)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("sender lane thread panicked"))
                .collect()
        });
        results.into_iter().collect()
    }
}

/// One frame drained by [`drive_pipeline`], with the mailbox it came from so
/// callers can attribute results (e.g. map a slot back to the key that was
/// written there).
#[derive(Debug, Clone, Copy)]
pub struct PipelineFrame {
    /// Bank the frame was drained from.
    pub bank: usize,
    /// Slot within the bank.
    pub slot: usize,
    /// The value the jam returned.
    pub result: u64,
}

/// Outcome of one [`drive_pipeline`] run.
#[derive(Debug, Clone)]
pub struct PipelineOutcome {
    /// Per-message outcomes, in per-shard drain order (shard-major). Order
    /// within a shard depends on the fill/drain interleave; compare results as
    /// a multiset against a sequential schedule.
    pub results: Vec<PipelineFrame>,
    /// Frames successfully drained (equals `results.len()`).
    pub drained: usize,
    /// Frames the dispatch rejected (their slots were credited back, so the
    /// pipeline completes regardless). A rejected frame the NACK path later
    /// redelivers also appears in `results`, so on a faulted link
    /// `drained..=drained + rejected` brackets the offered frame count from
    /// both sides rather than summing to it exactly.
    pub rejected: usize,
}

/// Run `rounds` full fill+drain cycles with fill and drain overlapping in wall
/// clock: one sender thread per lane, one drain thread per receiver shard,
/// coupled *only* by the one-sided credit path — as each frame retires, the
/// drain's burst engine puts the slot's next credit token into the paired
/// lane's flag region ([`BankFlags`]), and the lane spins/parks on acquire
/// loads of its own region until a refillable slot's token changes. No
/// channels, no shared queues: flow control is fabric traffic, charged in
/// virtual time on both the drain core (posting) and the wire/DMA models.
///
/// Requires `fleet.lane_count() == host.num_shards()` *and* the credit path
/// installed — both guaranteed by construction for a fleet connected with
/// [`SenderFleet::connect_fleet`] — so stream `s` and shard `s` form a closed
/// pipeline over the same banks. `make` generates each
/// message's (ARGS, USR) from its [`SlotCtx`]; each slot is filled exactly
/// `rounds` times with rounds `0..rounds`, so a sequential schedule filling
/// with the same generator produces the identical message multiset.
pub fn drive_pipeline<F>(
    host: &mut TwoChainsHost,
    fleet: &mut SenderFleet,
    elem: ElementId,
    mode: InvocationMode,
    rounds: usize,
    make: &F,
) -> AmResult<PipelineOutcome>
where
    F: Fn(SlotCtx) -> (Vec<u8>, Vec<u8>) + Sync,
{
    let shards = host.num_shards();
    if fleet.lane_count() != shards {
        return Err(AmError::InvalidConfig(format!(
            "pipeline needs one sender lane per shard ({} lanes, {shards} shards)",
            fleet.lane_count()
        )));
    }
    if !host.credit_path_installed() {
        return Err(AmError::InvalidConfig(
            "pipeline needs the one-sided credit path: connect the fleet with \
             SenderFleet::connect_fleet so the credit tables are installed"
                .into(),
        ));
    }
    // The installed credit returns must target *this* fleet's tables: a later
    // connect replaces them, and driving an earlier fleet would put every
    // token into the newer fleet's regions while these lanes spin forever.
    for lane in &fleet.lanes {
        if host.credit_descriptor(lane.stream) != Some(lane.flags.descriptor()) {
            return Err(AmError::InvalidConfig(format!(
                "the host's credit path targets another fleet's tables (stream {}): \
                 a later connect replaced the credit returns — drive the most \
                 recently connected fleet, or re-connect this one",
                lane.stream
            )));
        }
    }
    if rounds == 0 {
        return Ok(PipelineOutcome {
            results: Vec::new(),
            drained: 0,
            rejected: 0,
        });
    }
    let lane_slots: Vec<usize> = fleet.lanes.iter().map(|l| l.targets.len()).collect();
    // Raised when either side fails: a dead sender leaves the drains with an
    // unreachable frame quota, a dead drain leaves the lanes spinning on
    // credits that will never be put — whichever side is still alive bails
    // out instead of spinning forever.
    let abort = AtomicBool::new(false);
    let abort = &abort;
    // Arms the abort flag against *unwinding* too: a panic in the payload
    // generator (or anywhere in either loop) must release the other side, or
    // `thread::scope` would block on it forever instead of propagating the
    // panic. Defused with `mem::forget` on clean completion.
    struct AbortOnDrop<'a>(&'a AtomicBool);
    impl Drop for AbortOnDrop<'_> {
        fn drop(&mut self) {
            self.0.store(true, Ordering::Relaxed);
        }
    }

    std::thread::scope(|scope| -> AmResult<PipelineOutcome> {
        let drain_handles: Vec<_> = host
            .shard_drains()
            .into_iter()
            .map(|mut drain| {
                let want = rounds * lane_slots[drain.shard_id()];
                scope.spawn(move || -> AmResult<(Vec<PipelineFrame>, usize)> {
                    let guard = AbortOnDrop(abort);
                    let result = (|| -> AmResult<(Vec<PipelineFrame>, usize)> {
                        let mut results = Vec::with_capacity(want);
                        let mut rejected = 0usize;
                        let mut clock = SimTime::ZERO;
                        // The quota counts *executed* frames only. A frame
                        // torn by an in-flight fault is rejected (its credit
                        // returns immediately), then usually comes back: its
                        // sequence gap ages out of the scan-jumble watcher,
                        // the coalesced NACK reaches the paired lane, and the
                        // retransmit drains like any other frame. Counting
                        // the rejection against the quota would end the drain
                        // one retirement early when that recovery lands,
                        // stranding the final round's credits and starving
                        // the lane. When the tear hits the run's tail the
                        // lane may already have exited (no credit is owed),
                        // so once every outstanding frame is accounted for
                        // by a rejection, a bounded run of empty scans
                        // retires the gap as lost instead of spinning.
                        const GIVE_UP_SCANS: usize = 512;
                        let mut idle_scans = 0usize;
                        while results.len() < want {
                            // Credits for everything this burst retires are
                            // put back inside the burst engine itself, the
                            // moment each slot is clear.
                            let out = drain.receive_burst(usize::MAX, clock)?;
                            if out.is_empty() {
                                if abort.load(Ordering::Relaxed) {
                                    return Err(AmError::Exec(
                                        "pipeline aborted: a sender lane failed".into(),
                                    ));
                                }
                                if results.len() + rejected >= want {
                                    idle_scans += 1;
                                    if idle_scans >= GIVE_UP_SCANS {
                                        break;
                                    }
                                }
                                std::thread::yield_now();
                                continue;
                            }
                            idle_scans = 0;
                            clock = out.drained_at;
                            for f in &out.frames {
                                results.push(PipelineFrame {
                                    bank: f.bank,
                                    slot: f.slot,
                                    result: f.outcome.result,
                                });
                            }
                            rejected += out.rejected.len();
                        }
                        Ok((results, rejected))
                    })();
                    if result.is_ok() {
                        // Clean completion: every credit this shard owed is in
                        // the lane's table, so the paired lane can finish on
                        // its own — don't trip the abort.
                        std::mem::forget(guard);
                    }
                    result
                })
            })
            .collect();

        let sender_handles: Vec<_> = fleet
            .lanes
            .iter_mut()
            .zip(fleet.completions.queues_mut())
            .map(|(lane, cq)| {
                scope.spawn(move || -> AmResult<()> {
                    let guard = AbortOnDrop(abort);
                    let result = (|| -> AmResult<()> {
                        let slots = lane.targets.len();
                        let total = rounds * slots;
                        // Discard credits (and NACK records) left over from
                        // earlier phased schedules (they consume none): every
                        // slot starts empty, so round 0 needs no credit and
                        // anything pending in the tables is stale.
                        lane.sync_credits()?;
                        // The sender half of the reliability layer is armed
                        // only when this lane's endpoint carries a fault
                        // plan: on a pristine link no wire bytes are cached,
                        // no NACK row is polled and no watchdog ever fires.
                        let armed = lane.faults_enabled();
                        lane.in_flight.iter_mut().for_each(|f| *f = false);
                        let mut rounds_sent = vec![0u64; slots];
                        let mut free: VecDeque<usize> = (0..slots).collect();
                        let mut sent = 0usize;
                        let mut cursor = 0usize;
                        while sent < total {
                            let idx = match free.pop_front() {
                                Some(idx) => idx,
                                None => {
                                    // Spin, then park, on acquire loads of
                                    // this lane's own flag region:
                                    // round-robin over the slots that still
                                    // owe rounds until one's token changes.
                                    // The first SPIN_SCANS fruitless passes
                                    // only yield (credits normally arrive
                                    // within a burst); after that the lane
                                    // parks briefly between polls so a
                                    // stalled lane on an oversubscribed host
                                    // stops stealing quanta from the very
                                    // drain threads it is waiting on.
                                    const SPIN_SCANS: u32 = 128;
                                    const PARK: std::time::Duration =
                                        std::time::Duration::from_micros(20);
                                    let mut fruitless = 0u32;
                                    // Watchdog state for this stall episode
                                    // (armed lanes only): if neither a credit
                                    // nor a NACK shows up for a clamped-
                                    // Fibonacci backoff interval, every
                                    // in-flight frame is retransmitted from
                                    // the wire cache, on a bounded budget.
                                    let mut backoff =
                                        ClampedFibonacci::new(WATCHDOG_BASE, WATCHDOG_CLAMP);
                                    let mut deadline = Instant::now() + backoff.next_delay();
                                    let mut budget = RETRY_BUDGET;
                                    'wait: loop {
                                        // One coalesced credit flush can
                                        // refill several of this lane's slots
                                        // at once: harvest *every* token the
                                        // scan finds, send on the first and
                                        // queue the rest, so one wakeup never
                                        // costs more spin episodes than the
                                        // flush that caused it.
                                        let mut first: Option<usize> = None;
                                        for step in 0..slots {
                                            let i = (cursor + step) % slots;
                                            if (rounds_sent[i] as usize) < rounds
                                                && lane.try_acquire_slot(i)?
                                            {
                                                // The credit retires the
                                                // frame in flight on this
                                                // slot: the wire cache entry
                                                // is now dead weight, not a
                                                // retransmit candidate.
                                                lane.in_flight[i] = false;
                                                if first.is_none() {
                                                    first = Some(i);
                                                    cursor = (i + 1) % slots;
                                                } else {
                                                    free.push_back(i);
                                                    lane.sender
                                                        .stats_mut()
                                                        .credit_refills_coalesced += 1;
                                                }
                                            }
                                        }
                                        if let Some(i) = first {
                                            break 'wait i;
                                        }
                                        if abort.load(Ordering::Relaxed) {
                                            return Err(AmError::Exec(
                                                "pipeline aborted: a drain shard failed \
                                                 before returning all credits"
                                                    .into(),
                                            ));
                                        }
                                        if armed {
                                            // A NACK names a lost frame
                                            // precisely — retransmit it now
                                            // and push the (coarser) timeout
                                            // watchdog back.
                                            if lane.poll_nacks()? > 0 {
                                                deadline = Instant::now() + backoff.next_delay();
                                            }
                                            if Instant::now() >= deadline {
                                                if budget == 0 {
                                                    return Err(AmError::Exec(format!(
                                                        "lane {} exhausted its {RETRY_BUDGET}\
                                                         -retry reliability budget: frames \
                                                         are being lost faster than the \
                                                         retransmit path can recover them",
                                                        lane.stream
                                                    )));
                                                }
                                                budget -= 1;
                                                lane.retransmit_in_flight()?;
                                                deadline = Instant::now() + backoff.next_delay();
                                            }
                                        }
                                        if fruitless == 0 {
                                            // One stall *episode*, however many
                                            // fruitless polls it takes.
                                            lane.sender.stats_mut().credit_stall_events += 1;
                                        }
                                        fruitless = fruitless.saturating_add(1);
                                        if fruitless < SPIN_SCANS {
                                            std::thread::yield_now();
                                        } else {
                                            std::thread::sleep(PARK);
                                        }
                                    }
                                }
                            };
                            if lane.aggregating() {
                                // Opportunistic grouping: every already-free
                                // slot of the same bank rides this container
                                // (their credits are in hand), up to the
                                // batch-fill bound — one coalesced credit
                                // span refilling a row turns into one put.
                                let bank = lane.targets[idx].bank;
                                let mut group = vec![idx];
                                let mut rest = VecDeque::with_capacity(free.len());
                                while let Some(j) = free.pop_front() {
                                    if group.len() < lane.batch_max_frames
                                        && lane.targets[j].bank == bank
                                    {
                                        group.push(j);
                                    } else {
                                        rest.push_back(j);
                                    }
                                }
                                free = rest;
                                for j in group {
                                    let t = &lane.targets[j];
                                    let ctx = SlotCtx {
                                        stream: lane.stream,
                                        bank: t.bank,
                                        slot: t.slot,
                                        round: rounds_sent[j],
                                    };
                                    let (args, usr) = make(ctx);
                                    let spec =
                                        super::spec::spec(elem).mode(mode).args(args).usr(usr);
                                    lane.append_to_batch(cq, j, &spec)?;
                                    rounds_sent[j] += 1;
                                    sent += 1;
                                }
                                // Burst boundary: the lane goes back to
                                // waiting on credits next — frames must not
                                // sit unpublished across a wait.
                                lane.flush_batch(cq)?;
                            } else {
                                lane.send_slot(cq, elem, mode, idx, rounds_sent[idx], make)?;
                                if armed {
                                    lane.cache_wire(idx);
                                }
                                rounds_sent[idx] += 1;
                                sent += 1;
                            }
                        }
                        if armed {
                            // Every frame is sent, but the last one per slot
                            // may still be in flight — and on a lossy link
                            // "in flight" can mean "gone". A lossless lane
                            // exits after its last put (the drain side owes
                            // it nothing it will act on), but an armed lane
                            // must hold the retransmit machinery open until
                            // every final credit lands, or a dropped final
                            // frame would deadlock the drain with no sender
                            // left to repair it.
                            const PARK: std::time::Duration = std::time::Duration::from_micros(20);
                            let mut fruitless = 0u32;
                            let mut backoff = ClampedFibonacci::new(WATCHDOG_BASE, WATCHDOG_CLAMP);
                            let mut deadline = Instant::now() + backoff.next_delay();
                            let mut budget = RETRY_BUDGET;
                            while lane.in_flight.iter().any(|&f| f) {
                                let mut progressed = false;
                                for i in 0..slots {
                                    if lane.in_flight[i] && lane.try_acquire_slot(i)? {
                                        lane.in_flight[i] = false;
                                        progressed = true;
                                    }
                                }
                                if progressed {
                                    backoff.reset();
                                    deadline = Instant::now() + backoff.next_delay();
                                    budget = RETRY_BUDGET;
                                    fruitless = 0;
                                    continue;
                                }
                                if abort.load(Ordering::Relaxed) {
                                    return Err(AmError::Exec(
                                        "pipeline aborted: a drain shard failed \
                                         before returning all credits"
                                            .into(),
                                    ));
                                }
                                if lane.poll_nacks()? > 0 {
                                    deadline = Instant::now() + backoff.next_delay();
                                }
                                if Instant::now() >= deadline {
                                    if budget == 0 {
                                        return Err(AmError::Exec(format!(
                                            "lane {} exhausted its {RETRY_BUDGET}-retry \
                                             reliability budget waiting for its final \
                                             credits",
                                            lane.stream
                                        )));
                                    }
                                    budget -= 1;
                                    lane.retransmit_in_flight()?;
                                    deadline = Instant::now() + backoff.next_delay();
                                }
                                fruitless = fruitless.saturating_add(1);
                                if fruitless < 128 {
                                    std::thread::yield_now();
                                } else {
                                    std::thread::sleep(PARK);
                                }
                            }
                        }
                        Ok(())
                    })();
                    if result.is_ok() {
                        // Clean completion: every frame this lane owed is in
                        // its mailbox, so the paired drain can finish on its
                        // own — don't trip the abort.
                        std::mem::forget(guard);
                    }
                    result
                })
            })
            .collect();

        // Join *both* sides before reporting: after an abort, one side holds
        // the root-cause error and the other holds only the secondary
        // "pipeline aborted: ..." it raised when released, and either side
        // may be the one that actually failed (a lane's send, or a drain's
        // dispatch/credit put).
        let mut errors: Vec<AmError> = Vec::new();
        for h in sender_handles {
            if let Err(e) = h.join().expect("sender lane thread panicked") {
                errors.push(e);
            }
        }
        let mut results = Vec::new();
        let mut rejected = 0usize;
        for h in drain_handles {
            match h.join().expect("drain thread panicked") {
                Ok((r, rej)) => {
                    results.extend(r);
                    rejected += rej;
                }
                Err(e) => errors.push(e),
            }
        }
        if !errors.is_empty() {
            // Surface the root cause, not a released thread's abort notice
            // (the only errors prefixed "pipeline aborted" are the ones this
            // function itself raises on the released side).
            let root = errors
                .iter()
                .position(|e| !matches!(e, AmError::Exec(m) if m.starts_with("pipeline aborted")))
                .unwrap_or(0);
            return Err(errors.swap_remove(root));
        }
        Ok(PipelineOutcome {
            drained: results.len(),
            results,
            rejected,
        })
    })
}
