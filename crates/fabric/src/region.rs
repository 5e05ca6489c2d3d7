//! Registered memory regions.
//!
//! A [`MemoryRegion`] is the simulated analogue of memory pinned and registered with
//! an InfiniBand HCA for one-sided remote access: a contiguous buffer with a base
//! "virtual address" in the owning host's simulated address space, an [`RKey`]
//! guarding remote access, and permission bits.
//!
//! ## Word layout
//!
//! The backing store is a slice of `AtomicU64` words, so the region can be shared
//! freely between the threads that play the roles of the two hosts and the NIC, and
//! bulk data moves a word at a time. Byte `i` lives in word `i / 8` at byte lane
//! `i % 8`, little-endian: lane `k` is bits `8k..8k + 8`, so a little-endian `u64`
//! at an 8-aligned offset *is* its word (which is what makes
//! [`MemoryRegion::fetch_add_u64`] a true atomic RMW).
//!
//! A range that starts or ends inside a word touches that *edge word* partially. An
//! edge is merged with a compare-and-swap that replaces only the range's lanes, so
//! bytes outside the range are never clobbered, even when another thread writes the
//! neighbouring bytes of the same word at the same time. Whole words in between are
//! moved with one relaxed load or store each.
//!
//! ## Ordering protocol
//!
//! Bulk data is moved with `Relaxed` word stores/loads; *signal* bytes (the `MAG` /
//! `SIG MAG` magic bytes of the Two-Chains frame, §III-A of the paper) are written
//! with a `Release` read-modify-write on their word and read with an `Acquire` load
//! of that word. A reader that observes the signal byte with an acquire load is
//! therefore guaranteed to observe every payload byte written before the matching
//! release store — exactly the ordering guarantee the paper relies on from RDMA
//! writes on its testbed ("Modern servers like the one we use as a testbed for this
//! study enforce ordering"), and the same publish/consume discipline the Two-Chains
//! mailbox uses. Edge merges are read-modify-writes too, so a later write to a
//! neighbouring byte of the signal's word continues the release sequence instead of
//! breaking it; only a write covering the signal byte itself replaces the word.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::error::{FabricError, FabricResult};
use crate::rkey::{AccessFlags, RKey};

/// Out-of-band description of a registered region: everything a peer needs in order
/// to target it with one-sided operations. In a real deployment this is what travels
/// over the bootstrap channel (sockets, MPI, etc.).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionDescriptor {
    /// Owning host.
    pub host: usize,
    /// Base simulated virtual address.
    pub base_addr: u64,
    /// Length in bytes.
    pub len: usize,
    /// Remote access key.
    pub rkey: RKey,
    /// Permissions granted to remote peers.
    pub flags: AccessFlags,
}

/// Bytes per backing word.
const WORD: usize = 8;

/// A registered, remotely accessible memory region.
#[derive(Debug)]
pub struct MemoryRegion {
    words: Box<[AtomicU64]>,
    len: usize,
    base_addr: u64,
    host: usize,
    rkey: RKey,
    flags: AccessFlags,
}

/// The bits of byte lanes `lane..lane + bytes.len()` of a word holding `bytes`,
/// and the mask selecting those lanes.
#[inline]
fn lanes(lane: usize, bytes: &[u8]) -> (u64, u64) {
    let mut value = [0u8; WORD];
    let mut mask = [0u8; WORD];
    value[lane..lane + bytes.len()].copy_from_slice(bytes);
    mask[lane..lane + bytes.len()].fill(0xff);
    (u64::from_le_bytes(value), u64::from_le_bytes(mask))
}

impl MemoryRegion {
    /// Create a region of `len` bytes at `base_addr` in `host`'s address space.
    /// Normally called through `SimFabric::register`, which allocates the address and
    /// the rkey nonce.
    pub fn new(
        host: usize,
        base_addr: u64,
        len: usize,
        flags: AccessFlags,
        nonce: u32,
    ) -> FabricResult<Arc<Self>> {
        if len == 0 {
            return Err(FabricError::InvalidArgument(
                "cannot register a zero-length region",
            ));
        }
        let words = (0..len.div_ceil(WORD)).map(|_| AtomicU64::new(0)).collect();
        let rkey = RKey::generate(base_addr, len, flags, nonce);
        Ok(Arc::new(MemoryRegion {
            words,
            len,
            base_addr,
            host,
            rkey,
            flags,
        }))
    }

    /// The region's descriptor for out-of-band exchange.
    pub fn descriptor(&self) -> RegionDescriptor {
        RegionDescriptor {
            host: self.host,
            base_addr: self.base_addr,
            len: self.len,
            rkey: self.rkey,
            flags: self.flags,
        }
    }

    /// Owning host id.
    pub fn host(&self) -> usize {
        self.host
    }

    /// Base simulated virtual address.
    pub fn base_addr(&self) -> u64 {
        self.base_addr
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the region is empty (never true for successfully registered regions).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The remote key guarding this region.
    pub fn rkey(&self) -> RKey {
        self.rkey
    }

    /// The permissions granted at registration time.
    pub fn flags(&self) -> AccessFlags {
        self.flags
    }

    /// Simulated virtual address of `offset` within the region.
    pub fn addr_of(&self, offset: usize) -> u64 {
        self.base_addr + offset as u64
    }

    fn check_bounds(&self, offset: usize, len: usize) -> FabricResult<()> {
        if offset
            .checked_add(len)
            .map(|end| end <= self.len)
            .unwrap_or(false)
        {
            Ok(())
        } else {
            Err(FabricError::OutOfBounds {
                offset,
                len,
                region_len: self.len,
            })
        }
    }

    /// Split `[offset, offset + len)` into the byte count of its partial head
    /// word and the number of whole words after it; the rest is a partial tail.
    #[inline]
    fn split(offset: usize, len: usize) -> (usize, usize) {
        let head = match offset % WORD {
            0 => 0,
            lane => (WORD - lane).min(len),
        };
        (head, (len - head) / WORD)
    }

    /// Replace byte lanes `lane..lane + bytes.len()` of word `word` in one
    /// compare-and-swap, leaving the word's other lanes as they are. The update
    /// never declines, so `fetch_update` always succeeds.
    #[inline]
    fn merge(&self, word: usize, lane: usize, bytes: &[u8], order: Ordering) {
        let (value, mask) = lanes(lane, bytes);
        let _ = self.words[word]
            .fetch_update(order, Ordering::Relaxed, |cur| Some((cur & !mask) | value));
    }

    /// Write `data` at `offset` with relaxed ordering (bulk payload movement).
    pub fn write(&self, offset: usize, data: &[u8]) -> FabricResult<()> {
        self.check_bounds(offset, data.len())?;
        let (head, body) = Self::split(offset, data.len());
        let (head_bytes, rest) = data.split_at(head);
        let (body_bytes, tail_bytes) = rest.split_at(body * WORD);
        let mut word = offset / WORD;
        if head > 0 {
            self.merge(word, offset % WORD, head_bytes, Ordering::Relaxed);
            word += 1;
        }
        for (w, chunk) in self.words[word..word + body]
            .iter()
            .zip(body_bytes.chunks_exact(WORD))
        {
            let bytes: [u8; WORD] = chunk.try_into().expect("chunks_exact yields whole words");
            w.store(u64::from_le_bytes(bytes), Ordering::Relaxed);
        }
        if !tail_bytes.is_empty() {
            self.merge(word + body, 0, tail_bytes, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Read `len` bytes at `offset` with relaxed ordering.
    pub fn read(&self, offset: usize, len: usize) -> FabricResult<Vec<u8>> {
        let mut out = vec![0; len];
        self.read_into(offset, &mut out)?;
        Ok(out)
    }

    /// Read into a caller-provided buffer (avoids the allocation of [`MemoryRegion::read`]).
    pub fn read_into(&self, offset: usize, out: &mut [u8]) -> FabricResult<()> {
        self.check_bounds(offset, out.len())?;
        let (head, body) = Self::split(offset, out.len());
        let (head_out, rest) = out.split_at_mut(head);
        let (body_out, tail_out) = rest.split_at_mut(body * WORD);
        let mut word = offset / WORD;
        if head > 0 {
            let lane = offset % WORD;
            let bytes = self.words[word].load(Ordering::Relaxed).to_le_bytes();
            head_out.copy_from_slice(&bytes[lane..lane + head]);
            word += 1;
        }
        for (w, chunk) in self.words[word..word + body]
            .iter()
            .zip(body_out.chunks_exact_mut(WORD))
        {
            chunk.copy_from_slice(&w.load(Ordering::Relaxed).to_le_bytes());
        }
        if !tail_out.is_empty() {
            let bytes = self.words[word + body]
                .load(Ordering::Relaxed)
                .to_le_bytes();
            tail_out.copy_from_slice(&bytes[..tail_out.len()]);
        }
        Ok(())
    }

    /// Fill `len` bytes at `offset` with `value`.
    pub fn fill(&self, offset: usize, len: usize, value: u8) -> FabricResult<()> {
        self.check_bounds(offset, len)?;
        let pattern = [value; 64];
        let end = offset + len;
        let mut pos = offset;
        while pos < end {
            let n = (end - pos).min(pattern.len());
            self.write(pos, &pattern[..n])?;
            pos += n;
        }
        Ok(())
    }

    /// Publish a signal byte: a `Release` read-modify-write of its word that makes
    /// all previous relaxed writes visible to any reader that observes this byte
    /// with [`MemoryRegion::load_acquire_u8`].
    pub fn store_release_u8(&self, offset: usize, value: u8) -> FabricResult<()> {
        self.check_bounds(offset, 1)?;
        self.merge(offset / WORD, offset % WORD, &[value], Ordering::Release);
        Ok(())
    }

    /// Consume a signal byte with an `Acquire` load of its word.
    pub fn load_acquire_u8(&self, offset: usize) -> FabricResult<u8> {
        self.check_bounds(offset, 1)?;
        let word = self.words[offset / WORD].load(Ordering::Acquire);
        Ok(word.to_le_bytes()[offset % WORD])
    }

    /// Convenience: store a little-endian u64 with relaxed ordering.
    pub fn store_u64(&self, offset: usize, value: u64) -> FabricResult<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Convenience: load a little-endian u64 with relaxed ordering.
    pub fn load_u64(&self, offset: usize) -> FabricResult<u64> {
        let mut buf = [0u8; 8];
        self.read_into(offset, &mut buf)?;
        Ok(u64::from_le_bytes(buf))
    }

    /// Convenience: store a little-endian u32 with relaxed ordering.
    pub fn store_u32(&self, offset: usize, value: u32) -> FabricResult<()> {
        self.write(offset, &value.to_le_bytes())
    }

    /// Convenience: load a little-endian u32 with relaxed ordering.
    pub fn load_u32(&self, offset: usize) -> FabricResult<u32> {
        let mut buf = [0u8; 4];
        self.read_into(offset, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Fetch-and-add on an 8-byte-aligned u64, as an RDMA atomic would perform it:
    /// one atomic read-modify-write of the word (`AcqRel`). Returns the previous
    /// value.
    pub fn fetch_add_u64(&self, offset: usize, operand: u64) -> FabricResult<u64> {
        if !offset.is_multiple_of(WORD) {
            return Err(FabricError::Misaligned { offset });
        }
        self.check_bounds(offset, WORD)?;
        Ok(self.words[offset / WORD].fetch_add(operand, Ordering::AcqRel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn region(len: usize) -> Arc<MemoryRegion> {
        MemoryRegion::new(0, 0x10_0000, len, AccessFlags::rwx(), 1).unwrap()
    }

    #[test]
    fn zero_length_rejected() {
        assert!(matches!(
            MemoryRegion::new(0, 0, 0, AccessFlags::rw(), 0),
            Err(FabricError::InvalidArgument(_))
        ));
    }

    #[test]
    fn write_read_roundtrip() {
        let r = region(256);
        r.write(10, b"two-chains").unwrap();
        assert_eq!(r.read(10, 10).unwrap(), b"two-chains");
        let mut buf = [0u8; 4];
        r.read_into(10, &mut buf).unwrap();
        assert_eq!(&buf, b"two-");
    }

    #[test]
    fn bounds_are_enforced() {
        let r = region(64);
        assert!(r.write(60, &[0; 8]).is_err());
        assert!(r.read(64, 1).is_err());
        assert!(r.read(0, 65).is_err());
        assert!(r.write(0, &[0; 64]).is_ok());
        // offset+len overflow does not panic
        assert!(r.read(usize::MAX, 2).is_err());
    }

    #[test]
    fn scalar_helpers() {
        let r = region(64);
        r.store_u64(8, 0xdead_beef_cafe_f00d).unwrap();
        assert_eq!(r.load_u64(8).unwrap(), 0xdead_beef_cafe_f00d);
        r.store_u32(16, 0x1234_5678).unwrap();
        assert_eq!(r.load_u32(16).unwrap(), 0x1234_5678);
    }

    #[test]
    fn signal_bytes_roundtrip() {
        // Every byte lane of a word, leaving the neighbouring lanes as they were.
        let r = region(16);
        r.write(0, &[0x11; 16]).unwrap();
        let mut model = [0x11u8; 16];
        for lane in 0..model.len() {
            assert_eq!(r.load_acquire_u8(lane).unwrap(), 0x11);
            r.store_release_u8(lane, lane as u8 + 0x80).unwrap();
            model[lane] = lane as u8 + 0x80;
            assert_eq!(r.load_acquire_u8(lane).unwrap(), lane as u8 + 0x80);
            assert_eq!(r.read(0, 16).unwrap(), model, "lane {lane}");
        }
    }

    #[test]
    fn fetch_add_returns_previous() {
        let r = region(64);
        r.store_u64(0, 40).unwrap();
        assert_eq!(r.fetch_add_u64(0, 2).unwrap(), 40);
        assert_eq!(r.load_u64(0).unwrap(), 42);
        assert!(matches!(
            r.fetch_add_u64(3, 1),
            Err(FabricError::Misaligned { .. })
        ));
    }

    #[test]
    fn fill_sets_range() {
        let r = region(32);
        r.fill(4, 8, 0x5A).unwrap();
        assert_eq!(r.read(4, 8).unwrap(), vec![0x5A; 8]);
        assert_eq!(r.read(0, 4).unwrap(), vec![0; 4]);
        assert!(r.fill(30, 8, 1).is_err());
    }

    #[test]
    fn descriptor_reflects_registration() {
        let r = region(128);
        let d = r.descriptor();
        assert_eq!(d.host, 0);
        assert_eq!(d.base_addr, 0x10_0000);
        assert_eq!(d.len, 128);
        assert_eq!(d.rkey, r.rkey());
        assert_eq!(d.flags, AccessFlags::rwx());
        assert_eq!(r.addr_of(12), 0x10_000C);
        assert!(!r.is_empty());
    }

    #[test]
    fn publish_consume_across_threads() {
        // Writer publishes a payload then the signal byte with release; reader spins
        // on acquire until it sees the signal and must then observe the payload.
        // The signal byte may sit on any lane of its word.
        for lane in 0..8 {
            let r = region(4096);
            let signal = 4088 + lane;
            let writer = Arc::clone(&r);
            let t = std::thread::spawn(move || {
                writer.write(1, &[7u8; 4000]).unwrap();
                writer.store_release_u8(signal, 1).unwrap();
            });
            while r.load_acquire_u8(signal).unwrap() == 0 {
                std::hint::spin_loop();
            }
            let data = r.read(1, 4000).unwrap();
            assert!(data.iter().all(|&b| b == 7), "signal lane {lane}");
            t.join().unwrap();
        }
    }

    #[test]
    fn fetch_add_is_atomic_across_threads() {
        let r = region(64);
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    start.wait();
                    for _ in 0..10_000 {
                        r.fetch_add_u64(8, 3).unwrap();
                    }
                });
            }
        });
        assert_eq!(r.load_u64(8).unwrap(), 4 * 10_000 * 3);
        assert_eq!(r.load_u64(0).unwrap(), 0, "neighbouring word untouched");
    }

    #[test]
    fn write_read_match_a_byte_model_at_every_alignment() {
        // Every start offset across two words and every length up to five words:
        // head-only, tail-only, whole-word and mixed splits all agree with a plain
        // byte array, and the bytes around the range keep their old values.
        const LEN: usize = 64;
        for offset in 0..16 {
            for len in 0..=40 {
                let r = region(LEN);
                let background: Vec<u8> = (0..LEN as u8).map(|i| i ^ 0xA5).collect();
                r.write(0, &background).unwrap();
                let data: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(7) + 1).collect();
                let mut model = background.clone();
                model[offset..offset + len].copy_from_slice(&data);
                r.write(offset, &data).unwrap();
                assert_eq!(r.read(0, LEN).unwrap(), model, "offset={offset} len={len}");
                assert_eq!(
                    r.read(offset, len).unwrap(),
                    data,
                    "offset={offset} len={len}"
                );
                let mut out = vec![0xEE; len];
                r.read_into(offset, &mut out).unwrap();
                assert_eq!(out, data, "read_into offset={offset} len={len}");
            }
        }
    }

    #[test]
    fn concurrent_writes_to_disjoint_bytes_of_shared_words_both_survive() {
        // The threads own alternating 3-byte runs, so every word is shared and
        // every write is a partial-word merge. Only the owner writes its bytes, so
        // after each sweep it must read back exactly what it wrote: a merge that is
        // not one atomic step puts back the other thread's stale bytes.
        const LEN: usize = 48;
        const ROUNDS: usize = 20_000;
        let r = region(LEN);
        let runs = |owner: usize| (0..LEN).step_by(3).filter(move |s| (s / 3) % 2 == owner);
        let start = std::sync::Barrier::new(2);
        let clobbered: usize = std::thread::scope(|s| {
            let threads: Vec<_> = [(0usize, 0xA0u8), (1, 0x50)]
                .into_iter()
                .map(|(owner, value)| {
                    let (r, start) = (&r, &start);
                    s.spawn(move || {
                        start.wait();
                        let mut clobbered = 0;
                        for round in 0..=ROUNDS {
                            let v = value ^ round as u8;
                            for start in runs(owner) {
                                r.write(start, &[v; 3]).unwrap();
                            }
                            for start in runs(owner) {
                                if r.read(start, 3).unwrap() != [v; 3] {
                                    clobbered += 1;
                                }
                            }
                        }
                        clobbered
                    })
                })
                .collect();
            threads.into_iter().map(|t| t.join().unwrap()).sum()
        });
        assert_eq!(clobbered, 0, "a partial-word write clobbered its neighbour");
        let data = r.read(0, LEN).unwrap();
        for (i, &b) in data.iter().enumerate() {
            let value = if (i / 3) % 2 == 0 { 0xA0 } else { 0x50 };
            assert_eq!(b, value ^ ROUNDS as u8, "byte {i}");
        }
    }
}
