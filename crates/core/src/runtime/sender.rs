//! The initiator-side runtime: frame packing, template caching and one-sided puts.
//!
//! A [`TwoChainsSender`] packs frames (patching in the GOT image the receiver
//! exported during setup), pushes them with one one-sided put, and tracks
//! statistics. Its steady-state fast path mirrors the receiver's caches: a
//! per-element frame template (pre-patched GOT + encoded code as `Arc<[u8]>`) and
//! one reusable wire-encode buffer make a warm send a pure memcpy.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::sync::Arc;

use twochains_fabric::{CompletionQueue, Endpoint};
use twochains_jamvm::GotImage;
use twochains_linker::{ElementId, Package};
use twochains_memsim::SimTime;

use super::spec::MessageSpec;
use super::AmSendOutcome;
use crate::builtin::BuiltinJam;
use crate::config::InvocationMode;
use crate::error::{AmError, AmResult};
use crate::frame::{encode_wire_into, ChainDescriptor, Frame, BATCH_OVERHEAD, BATCH_PREFIX_SIZE};
use crate::mailbox::MailboxTarget;
use crate::stats::RuntimeStats;

/// A sender-side cached frame template for one element: the receiver-patched GOT
/// image and the encoded code, captured once and memcpy'd into every later frame.
#[derive(Debug, Clone)]
struct FrameTemplate {
    got: Arc<[u8]>,
    code: Arc<[u8]>,
}

/// The sender-side runtime object.
pub struct TwoChainsSender {
    endpoint: Endpoint,
    package: Package,
    /// GOT images exported by the receiver, keyed by element id.
    remote_gots: HashMap<u32, Arc<[u8]>>,
    /// Per-element frame templates (pre-patched GOT + encoded code).
    templates: HashMap<u32, FrameTemplate>,
    /// Reusable wire-encode buffer; steady-state sends do not allocate.
    encode_buf: Vec<u8>,
    sn: u32,
    /// Per-byte frame packing cost (the message packing routines of §III-A).
    pack_ns_per_byte: f64,
    /// Fixed packing overhead.
    pack_fixed: SimTime,
    stats: RuntimeStats,
}

impl std::fmt::Debug for TwoChainsSender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoChainsSender")
            .field("package", &self.package.name())
            .field("sn", &self.sn)
            .field("templates", &self.templates.len())
            .finish()
    }
}

impl TwoChainsSender {
    /// Create a sender over an existing endpoint, with the package it will inject from.
    pub fn new(endpoint: Endpoint, package: Package) -> Self {
        TwoChainsSender {
            endpoint,
            package,
            remote_gots: HashMap::new(),
            templates: HashMap::new(),
            encode_buf: Vec::new(),
            sn: 0,
            pack_ns_per_byte: 0.002,
            pack_fixed: SimTime::from_ns(35),
            stats: RuntimeStats::new(),
        }
    }

    /// Record the GOT image the receiver exported for `elem` (out-of-band exchange
    /// during setup). Replacing an element's GOT drops its frame template; the next
    /// send re-patches once and re-caches.
    pub fn set_remote_got(&mut self, elem: ElementId, got: &GotImage) {
        self.remote_gots.insert(elem.0, got.to_bytes().into());
        self.templates.remove(&elem.0);
    }

    /// Sender statistics.
    pub fn stats(&self) -> &RuntimeStats {
        &self.stats
    }

    /// The underlying endpoint (for flushes and resets between benchmark phases).
    pub fn endpoint_mut(&mut self) -> &mut Endpoint {
        &mut self.endpoint
    }

    /// The frame template for `elem`, building (and counting) it on first use.
    /// One hash lookup either way: a hit returns the occupied entry directly, a
    /// miss fills the vacant slot it already holds.
    fn template(&mut self, elem: ElementId) -> AmResult<&FrameTemplate> {
        match self.templates.entry(elem.0) {
            Entry::Occupied(entry) => {
                self.stats.template_hits += 1;
                Ok(entry.into_mut())
            }
            Entry::Vacant(slot) => {
                self.stats.template_misses += 1;
                let jam = self.package.jam(elem)?;
                let got = self.remote_gots.get(&elem.0).cloned().ok_or_else(|| {
                    AmError::Link(format!("no remote GOT for element {}", elem.0))
                })?;
                let code: Arc<[u8]> = jam.text.clone().into();
                Ok(slot.insert(FrameTemplate { got, code }))
            }
        }
    }

    /// Pack a frame for element `elem` with the given invocation mode, argument block
    /// and payload. Injected frames require the receiver's GOT image to have been set
    /// with [`TwoChainsSender::set_remote_got`].
    ///
    /// This materialises an owned [`Frame`] (useful for inspection and tests); the
    /// allocation-free path is [`TwoChainsSender::send_spec`].
    pub fn pack(
        &mut self,
        elem: ElementId,
        mode: InvocationMode,
        args: Vec<u8>,
        usr: Vec<u8>,
    ) -> AmResult<Frame> {
        crate::frame::validate_section_lens(&[], &[], &args, &usr)?;
        self.sn = self.sn.wrapping_add(1);
        let sn = self.sn;
        let frame = match mode {
            InvocationMode::Local => Frame::local(sn, elem.0, args, usr),
            InvocationMode::Injected => {
                let tpl = self.template(elem)?;
                crate::frame::validate_section_lens(&tpl.got, &tpl.code, &args, &usr)?;
                Frame::injected(sn, elem.0, tpl.got.to_vec(), tpl.code.to_vec(), args, usr)
            }
        };
        Ok(frame)
    }

    /// Cost of packing `frame` on the sending CPU.
    pub fn pack_cost(&self, frame: &Frame) -> SimTime {
        self.pack_cost_for_len(frame.wire_size())
    }

    /// The §III-A packing cost model for a frame of `len` wire bytes — the single
    /// definition both [`TwoChainsSender::pack_cost`] and the send paths charge.
    fn pack_cost_for_len(&self, len: usize) -> SimTime {
        self.pack_fixed + SimTime::from_ns_f64(len as f64 * self.pack_ns_per_byte)
    }

    /// Send an already-packed frame: encode into the reusable scratch buffer and put.
    pub fn send(
        &mut self,
        now: SimTime,
        frame: &Frame,
        target: &MailboxTarget,
    ) -> AmResult<AmSendOutcome> {
        let mut buf = std::mem::take(&mut self.encode_buf);
        frame.encode_into(&mut buf);
        let result = self.put_frame(now, &buf, target, None);
        self.encode_buf = buf;
        result
    }

    /// The allocation-free send path for a [`MessageSpec`]: encode the spec's
    /// frame (single-element or chained) directly from the template cache and
    /// the spec's borrowed sections into the reusable scratch buffer, then
    /// put. A spec marked [`tracked`](MessageSpec::tracked) is refused —
    /// completion tracking needs a queue, so it must go through
    /// [`TwoChainsSender::send_spec_tracked`].
    ///
    /// The spec is borrowed, not consumed: build it once, send it every
    /// iteration — steady-state sends perform zero heap allocations.
    pub fn send_spec(
        &mut self,
        now: SimTime,
        spec: &MessageSpec,
        target: &MailboxTarget,
    ) -> AmResult<AmSendOutcome> {
        if spec.is_tracked() {
            return Err(AmError::InvalidConfig(
                "spec requests completion tracking: use send_spec_tracked with a \
                 completion queue"
                    .into(),
            ));
        }
        let chain = spec.chain_descriptor()?;
        self.send_raw(
            now,
            spec.elem(),
            spec.invocation(),
            chain.as_ref(),
            spec.args_bytes(),
            spec.usr_bytes(),
            target,
            None,
        )
    }

    /// [`TwoChainsSender::send_spec`] with software completion tracking: the
    /// put's delivery is posted into `cq` ([`Endpoint::put_tracked`]), so the
    /// caller gets transmit-window flow control — a full queue refuses the send
    /// with `CompletionBackpressure` *before* any bytes move, and the caller
    /// must harvest completions (its own queue only) to free the window. This
    /// is the per-stream back-pressure the [`SenderFleet`](super::SenderFleet)
    /// lanes run on.
    pub fn send_spec_tracked(
        &mut self,
        now: SimTime,
        spec: &MessageSpec,
        target: &MailboxTarget,
        cq: &mut CompletionQueue,
    ) -> AmResult<AmSendOutcome> {
        let chain = spec.chain_descriptor()?;
        self.send_raw(
            now,
            spec.elem(),
            spec.invocation(),
            chain.as_ref(),
            spec.args_bytes(),
            spec.usr_bytes(),
            target,
            Some(cq),
        )
    }

    /// The single allocation-free send core every path funnels through:
    /// validate, stamp the next sequence number, encode into the parked
    /// scratch buffer, put (completion-tracked through `cq` when given).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn send_raw(
        &mut self,
        now: SimTime,
        elem: ElementId,
        mode: InvocationMode,
        chain: Option<&ChainDescriptor>,
        args: &[u8],
        usr: &[u8],
        target: &MailboxTarget,
        cq: Option<&mut CompletionQueue>,
    ) -> AmResult<AmSendOutcome> {
        crate::frame::validate_section_lens(&[], &[], args, usr)?;
        self.sn = self.sn.wrapping_add(1);
        let sn = self.sn;
        let mut buf = std::mem::take(&mut self.encode_buf);
        let result = self
            .encode_message(sn, elem, mode, chain, args, usr, &mut buf)
            .and_then(|()| self.put_frame(now, &buf, target, cq));
        self.encode_buf = buf;
        result
    }

    /// Encode one message into `buf` (the fallible half of
    /// [`TwoChainsSender::send_raw`], factored out so `?` can unwind it
    /// while the scratch buffer is parked outside `self`).
    #[allow(clippy::too_many_arguments)]
    fn encode_message(
        &mut self,
        sn: u32,
        elem: ElementId,
        mode: InvocationMode,
        chain: Option<&ChainDescriptor>,
        args: &[u8],
        usr: &[u8],
        buf: &mut Vec<u8>,
    ) -> AmResult<()> {
        match mode {
            InvocationMode::Local => {
                encode_wire_into(sn, elem.0, false, chain, &[], &[], args, usr, buf);
            }
            InvocationMode::Injected => {
                let tpl = self.template(elem)?;
                crate::frame::validate_section_lens(&tpl.got, &tpl.code, args, usr)?;
                encode_wire_into(sn, elem.0, true, chain, &tpl.got, &tpl.code, args, usr, buf);
            }
        }
        Ok(())
    }

    /// Common tail of every send path: capacity check, pack-cost model, one put
    /// (completion-tracked through `cq` when given). `pub(crate)` for the
    /// fleet's aggregation path, which posts an already-encoded frame
    /// standalone when it is too large to share a container.
    pub(crate) fn put_frame(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        target: &MailboxTarget,
        cq: Option<&mut CompletionQueue>,
    ) -> AmResult<AmSendOutcome> {
        if bytes.len() > target.capacity {
            return Err(AmError::FrameTooLarge {
                needed: bytes.len(),
                capacity: target.capacity,
            });
        }
        let pack_cost = self.pack_cost_for_len(bytes.len());
        let issue_at = now + pack_cost;
        let put = match cq {
            Some(cq) => {
                self.endpoint
                    .put_tracked(issue_at, bytes, &target.region, target.offset, cq)?
                    .1
            }
            None => self
                .endpoint
                .put(issue_at, bytes, &target.region, target.offset)?,
        };
        self.stats.messages_sent += 1;
        self.stats.bytes_sent += bytes.len() as u64;
        Ok(AmSendOutcome {
            pack_cost,
            put,
            wire_bytes: bytes.len(),
        })
    }

    /// Encode the next message for `spec` into `buf` without sending it:
    /// validate, stamp the next sequence number, encode. This is the first
    /// half of the aggregation path — the fleet accumulates several encoded
    /// frames into one batch container and posts it with a single
    /// [`TwoChainsSender::put_batch`]. Returns the stamped sequence number
    /// (the container inherits its first frame's).
    pub(crate) fn encode_next(&mut self, spec: &MessageSpec, buf: &mut Vec<u8>) -> AmResult<u32> {
        crate::frame::validate_section_lens(&[], &[], spec.args_bytes(), spec.usr_bytes())?;
        let chain = spec.chain_descriptor()?;
        self.sn = self.sn.wrapping_add(1);
        let sn = self.sn;
        self.encode_message(
            sn,
            spec.elem(),
            spec.invocation(),
            chain.as_ref(),
            spec.args_bytes(),
            spec.usr_bytes(),
            buf,
        )?;
        Ok(sn)
    }

    /// Post one multi-frame batch container (built by the fleet from frames
    /// encoded via [`TwoChainsSender::encode_next`]) with a single put into
    /// the carrier mailbox. The software packing cost stays per message
    /// (`frames` × fixed + container bytes × per-byte — marshalling every
    /// frame is real work the batch cannot skip); what the batch amortizes is
    /// the *posting*: one NIC doorbell, one tx-pipeline serialization, one
    /// completion-queue entry for the whole container. Counters: every inner
    /// frame lands in `messages_sent` exactly as a standalone send would, and
    /// the container shape is recorded in `batch_puts`/`batched_frames`.
    pub(crate) fn put_batch(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        frames: usize,
        target: &MailboxTarget,
        cq: Option<&mut CompletionQueue>,
    ) -> AmResult<AmSendOutcome> {
        if bytes.len() > target.capacity {
            return Err(AmError::FrameTooLarge {
                needed: bytes.len(),
                capacity: target.capacity,
            });
        }
        let pack_cost = SimTime::from_ns_f64(
            self.pack_fixed.as_ns() * frames as f64 + bytes.len() as f64 * self.pack_ns_per_byte,
        );
        let issue_at = now + pack_cost;
        let put = match cq {
            Some(cq) => {
                self.endpoint
                    .put_tracked(issue_at, bytes, &target.region, target.offset, cq)?
                    .1
            }
            None => self
                .endpoint
                .put(issue_at, bytes, &target.region, target.offset)?,
        };
        // `bytes_sent` counts the *frame* bytes (what a per-frame schedule
        // would have counted), so the counter stays schedule-invariant — how
        // frames grouped into containers depends on credit arrival timing.
        // The container envelope (fixed header/trailer + one prefix per
        // frame) is recoverable from `batch_puts`/`batched_frames`.
        let envelope = BATCH_OVERHEAD + frames * BATCH_PREFIX_SIZE;
        self.stats.messages_sent += frames as u64;
        self.stats.bytes_sent += bytes.len().saturating_sub(envelope) as u64;
        self.stats.batch_puts += 1;
        self.stats.batched_frames += frames as u64;
        Ok(AmSendOutcome {
            pack_cost,
            put,
            wire_bytes: bytes.len(),
        })
    }

    /// Element id helper for the builtin benchmark jams. A package without the
    /// jam yields [`AmError::UnknownElementName`] carrying the missing name —
    /// not a sentinel id the caller cannot act on.
    pub fn builtin_id(&self, jam: BuiltinJam) -> AmResult<ElementId> {
        let name = jam.element_name();
        self.package
            .id_of(name)
            .ok_or_else(|| AmError::UnknownElementName(name.to_string()))
    }

    /// Sender-side counters, mutably (the fleet's lanes account their
    /// flow-control events here so a host-wide `merge()` sees them).
    pub(crate) fn stats_mut(&mut self) -> &mut RuntimeStats {
        &mut self.stats
    }

    /// The exact wire bytes of the most recent send: every send path encodes
    /// into (and then restores) the reusable scratch buffer, so after a send
    /// returns, the buffer *is* the frame as it went onto the fabric. The
    /// fleet's reliability layer snapshots this into its per-slot wire cache
    /// so a NACK or watchdog timeout can retransmit byte-identical frames.
    pub(crate) fn last_wire(&self) -> &[u8] {
        &self.encode_buf
    }

    /// Re-put previously sent wire bytes (reliability-layer retransmit). The
    /// frame is byte-identical to the original — same sequence number, same
    /// trailer — so the receiver's replay filter can suppress it if the
    /// original did land. Deliberately *not* counted in `messages_sent` /
    /// `bytes_sent` (the message was already counted once; a lossy run's
    /// steady counters must stay equal to the lossless run's) and charged no
    /// pack cost (the bytes are already encoded): only `frames_retransmitted`
    /// and the put's own fabric time record the recovery.
    pub(crate) fn retransmit_frame(
        &mut self,
        now: SimTime,
        bytes: &[u8],
        target: &MailboxTarget,
    ) -> AmResult<SimTime> {
        let put = self
            .endpoint
            .put(now, bytes, &target.region, target.offset)?;
        self.stats.frames_retransmitted += 1;
        Ok(put.sender_free)
    }
}
