//! The receiver-side host: shared state, the dispatch engine, and the public
//! [`TwoChainsHost`] facade over the sharded receive path.
//!
//! The dispatch engine lives on [`HostCore`] and takes `&self` plus one
//! `&mut ReceiverShard`: everything shared is either read-mostly (namespace,
//! Local Function library, banks, config, the `Arc`-shared read-only segment
//! base) or behind its own fine-grained synchronisation (striped cache levels,
//! the injection caches, the exclusive jam space), so any number of shards can
//! run the engine concurrently. Simulated memory is charged through the shard's
//! own per-core bus (private L1/L2, no lock on a private hit), and execution
//! takes the exclusive address-space lock only in
//! [`SpaceMode::Exclusive`] or for jams that declare cross-shard writes — in
//! [`SpaceMode::ShardLocal`] everything else runs against the shard's private
//! segments and the lock-free read-only base.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;
use twochains_fabric::{AccessFlags, HostHandle, HostId, MemoryRegion, SimFabric};
use twochains_jamvm::{
    decode_program, hash64, hash64_bytes, resolve, verify, AddressSpace, ExecError, ExecStats,
    ExternTable, GotImage, Instr, JamSpace, ResolvedProgram, Segment, SegmentKind, ShardSpace, Vm,
    VmConfig,
};
use twochains_linker::{ElementId, LinkerNamespace, Package, Ried};
use twochains_memsim::cycles::WaitOutcome;
use twochains_memsim::{
    AccessKind, CoreBus, CoreCacheStats, HierarchyStats, MemoryBus, MemoryStressor,
    SharedHierarchy, SimTime,
};

use super::credit::{CreditHandshake, CreditReturn, FlushOutcome};
use super::injection_cache::{CachedGot, CachedProgram, CachedResolved, InjectionCache};
use super::shard::{ReceiverShard, ShardDrain};
use super::{BurstFrame, BurstOutcome, ReceiveOutcome};
use crate::bank::MailboxBank;
use crate::builtin::BuiltinJam;
use crate::config::{CreditFlushPolicy, ExecutionPolicy, InvocationMode, RuntimeConfig, SpaceMode};
use crate::error::{AmError, AmResult};
use crate::frame::{is_batch, BatchView, ChainArgMap, FrameView, FRAME_HEADER_SIZE};
use crate::mailbox::{MailboxTarget, ReactiveMailbox};
use crate::stats::RuntimeStats;

/// Software cost models for the receiver's injected-dispatch path, in ns per byte.
///
/// The content hash is charged on every injected message — it is the cache-key
/// computation, streaming the arrived bytes at near line rate. Decode, verify and
/// GOT-image parsing are charged only on a cache miss; on a hit the receiver jumps
/// straight to the cached decoded program, which is the point of the fast path.
const HASH_NS_PER_BYTE: f64 = 0.01;
/// Bytecode decode cost on a cache miss (~2 GB/s: byte-at-a-time opcode dispatch
/// building the instruction vector).
const DECODE_NS_PER_BYTE: f64 = 0.6;
/// Verifier cost on a cache miss (~4 GB/s: register/branch/GOT-slot bound checks
/// over the decoded program).
const VERIFY_NS_PER_BYTE: f64 = 0.25;
/// GOT image parse cost on a GOT-cache miss.
const GOT_PARSE_NS_PER_BYTE: f64 = 0.05;
/// Lowering cost on a resolved-cache miss (walking the decoded program once to
/// flatten operands, resolve GOT call sites, fuse pairs and lay out blocks —
/// cheaper than the byte-at-a-time decode it follows).
const RESOLVE_NS_PER_BYTE: f64 = 0.15;

/// Base simulated address of the receiver's resolved-image slab area (the
/// software code cache the threaded executor fetches from). Distinct from the
/// Local Function code area, the chain-context cells and the shard data
/// windows, so resolved-image fetch traffic never aliases hot runtime lines.
const RESOLVED_CODE_BASE: u64 = 0xD000_0000;
/// Bytes reserved per resolved-image slab (a lowered image larger than this
/// simply charges across slab boundaries — harmless, the slabs exist only to
/// give each image a stable, reusable line range).
const RESOLVED_SLAB_STRIDE: u64 = 32 * 1024;
/// Number of slabs; keys hash onto one deterministically, so a warm image is
/// re-executed from the same (cache-hot) lines every time.
const RESOLVED_SLAB_COUNT: u64 = 1024;

/// Simulated install address for the resolved image of cache key `key`.
fn resolved_slab_base(key: (u32, u64, usize)) -> u64 {
    let mix = hash64(key.1 ^ (key.0 as u64).rotate_left(32) ^ (key.2 as u64).rotate_left(48));
    RESOLVED_CODE_BASE + (mix % RESOLVED_SLAB_COUNT) * RESOLVED_SLAB_STRIDE
}

/// Base simulated address of the per-chain context cells: one 8-byte cell per
/// drain core holding the running result a chain threads from stage to stage.
/// The cell lives in shard scratch address space (each shard owns its core, so
/// cores never share a cell) and is remapped fresh for every stage — its
/// lifetime is exactly one frame's chain.
const CHAIN_CTX_BASE: u64 = 0x9E00_0000;
/// Address stride between consecutive cores' chain-context cells.
const CHAIN_CTX_STRIDE: u64 = 0x100;

/// Where the per-frame step reports each frame it retired. The receive entry
/// points differ only in what they keep: a burst keeps every frame (its
/// [`BurstOutcome`]), a single-slot receive only what it returns.
trait RetireSink {
    /// Frame (`bank`, `slot`) executed; `slot` is its declared destination.
    fn frame_executed(&mut self, bank: usize, slot: usize, outcome: ReceiveOutcome);
    /// Frame (`bank`, `slot`) was rejected and retired without executing.
    fn frame_rejected(&mut self, bank: usize, slot: usize, err: AmError);
}

impl RetireSink for BurstOutcome {
    fn frame_executed(&mut self, bank: usize, slot: usize, outcome: ReceiveOutcome) {
        self.frames.push(BurstFrame {
            bank,
            slot,
            outcome,
        });
    }

    fn frame_rejected(&mut self, bank: usize, slot: usize, err: AmError) {
        self.rejected.push((bank, slot, err));
    }
}

/// The single-slot receive's sink: the last executed frame's outcome (for a
/// container, its `handler_done` is when the whole container finished on the
/// drain core) and the first rejection, reported when nothing executed.
#[derive(Default)]
struct SlotSink {
    last: Option<ReceiveOutcome>,
    first_err: Option<AmError>,
}

impl RetireSink for SlotSink {
    fn frame_executed(&mut self, _bank: usize, _slot: usize, outcome: ReceiveOutcome) {
        self.last = Some(outcome);
    }

    fn frame_rejected(&mut self, _bank: usize, _slot: usize, err: AmError) {
        self.first_err.get_or_insert(err);
    }
}

/// The dispatch core's answer for one parsed frame (single or batched):
/// everything the per-frame step needs to account the frame and build its
/// [`ReceiveOutcome`].
#[derive(Debug)]
struct DispatchedFrame {
    handler_time: SimTime,
    exec_time: SimTime,
    result: u64,
    exec_stats: Option<ExecStats>,
}

/// The wait charged to a frame a burst scan found ready (the scan charged one
/// poll for all of them) and to an inner frame of a container (the container
/// charged its one wait).
const NO_WAIT: WaitOutcome = WaitOutcome {
    elapsed: SimTime::ZERO,
    cycles: 0,
};

/// One entry of the Local Function library: the program as loaded from the package,
/// its GOT resolved against this process's namespace, and the address at which the
/// resident code lives (kept warm in the receiver's caches). Program and GOT are
/// reference-counted so dispatch shares them instead of deep-cloning per message.
#[derive(Debug, Clone)]
struct LocalEntry {
    program: Arc<[Instr]>,
    got: Arc<GotImage>,
    /// The program pre-lowered against its resolved GOT at install time, so
    /// Local Function dispatch (and every chain continuation stage) runs the
    /// threaded executor without a per-message lowering step.
    resolved: Arc<ResolvedProgram>,
    code_base: u64,
}

/// Which executable form a dispatch resolved to: the decoded program for the
/// interpreter, or a lowered image for the threaded executor.
enum ExecImage {
    Interpreted(Arc<[Instr]>),
    Resolved(Arc<ResolvedProgram>),
}

/// Run an execution image against the chosen space/bus — the single seam where
/// the [`ExecutionPolicy`] split reaches the VM.
fn run_image(
    image: &ExecImage,
    got: &GotImage,
    externs: &ExternTable,
    space: &mut dyn JamSpace,
    bus: &mut dyn MemoryBus,
    cfg: &VmConfig,
) -> Result<ExecStats, ExecError> {
    match image {
        ExecImage::Interpreted(program) => Vm::execute(program, got, externs, space, bus, cfg),
        ExecImage::Resolved(resolved) => Vm::execute_resolved(resolved, externs, space, bus, cfg),
    }
}

/// Everything the receive path shares between shards. Split out of
/// [`TwoChainsHost`] so a `&HostCore` can coexist with disjoint
/// `&mut ReceiverShard` borrows (that split is what [`ShardDrain`] packages).
#[derive(Debug)]
pub(crate) struct HostCore {
    handle: HostHandle,
    /// The host's shared cache levels (striped L3/LLC/DRAM); per-core private
    /// L1/L2 live on each shard's [`CoreBus`].
    hierarchy: Arc<SharedHierarchy>,
    config: RuntimeConfig,
    namespace: LinkerNamespace,
    /// The *exclusive* jam address space: the canonical instance of every ried
    /// object. In [`SpaceMode::Exclusive`] every execution maps and runs here
    /// under the mutex; in [`SpaceMode::ShardLocal`] only jams declaring
    /// cross-shard writes do.
    space: Mutex<AddressSpace>,
    /// `Arc`-shared read-only segments (rodata, read-only data exports), read
    /// by every shard without any lock. Rebuilt on package install/live update.
    shared_ro: Arc<AddressSpace>,
    /// Canonical `[start, end)` address ranges of *writable* ried objects.
    /// A resolved GOT that points into one of these ranges addresses
    /// process-global mutable state by canonical address, which only the
    /// exclusive space maps — the dispatch engine routes such messages to the
    /// exclusive path even in shard-local mode (the runtime backstop behind
    /// the install-time `cross_shard_writes` contract check).
    writable_ranges: Vec<(u64, u64)>,
    package: Option<Package>,
    local_lib: HashMap<u32, LocalEntry>,
    mailbox_region: Arc<MemoryRegion>,
    banks: MailboxBank,
    local_code_cursor: u64,
}

/// The receiver-side (and library-owner) runtime for one process.
pub struct TwoChainsHost {
    core: HostCore,
    cache: Arc<InjectionCache>,
    shards: Vec<ReceiverShard>,
}

impl std::fmt::Debug for TwoChainsHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TwoChainsHost")
            .field("host", &self.core.handle.id())
            .field("mailboxes", &self.core.banks.total())
            .field("local_lib", &self.core.local_lib.len())
            .field("shards", &self.shards.len())
            .field("injected_cache", &self.cache.programs_len())
            .finish()
    }
}

impl TwoChainsHost {
    /// Base simulated address at which Local Function library code is laid out.
    const LOCAL_CODE_BASE: u64 = 0x7000_0000;
    /// Base simulated address of shard 0's private writable ried instances
    /// (shard-local space mode); shard `s` starts at
    /// `SHARD_DATA_BASE + s * SHARD_DATA_STRIDE`.
    const SHARD_DATA_BASE: u64 = 0xA000_0000;
    /// Address stride between consecutive shards' private data ranges.
    const SHARD_DATA_STRIDE: u64 = 0x0400_0000;

    /// Create a host runtime on fabric host `id`.
    pub fn new(fabric: &SimFabric, id: HostId, config: RuntimeConfig) -> AmResult<Self> {
        config.validate().map_err(AmError::InvalidConfig)?;
        let handle = fabric.host(id)?;
        let hierarchy = handle.hierarchy();
        let num_cores = hierarchy.num_cores();
        // One live CoreBus per core is a SharedHierarchy invariant (two buses
        // would drain the same invalidation inbox and one could serve stale
        // private lines), so a shard count beyond the core count is rejected
        // rather than silently aliasing cores.
        if config.num_shards > num_cores {
            return Err(AmError::InvalidConfig(format!(
                "{} shards but the testbed has {num_cores} cores: each shard needs its own core",
                config.num_shards
            )));
        }
        let flags = AccessFlags::rwx();
        let region_len = config
            .total_mailboxes()
            .checked_mul(config.frame_capacity)
            .ok_or_else(|| AmError::InvalidConfig("mailbox region size overflows".into()))?;
        let mailbox_region = handle.register(region_len, flags)?;
        let banks = MailboxBank::new(
            Arc::clone(&mailbox_region),
            config.banks,
            config.mailboxes_per_bank,
            config.frame_capacity,
        )?;
        let cache = Arc::new(InjectionCache::with_capacity(
            config.injection_cache_entries,
        ));
        let shared_ro = Arc::new(AddressSpace::new());
        let shards = (0..config.num_shards)
            .map(|i| {
                // Shard i drains on its own core, with that core's private
                // L1/L2 bus (shard count <= core count was checked above, so
                // no two shards alias a core's bus or invalidation inbox).
                let core = (config.receiver_core + i) % num_cores;
                let space = ShardSpace::new(Arc::clone(&shared_ro))
                    .map_err(|e| AmError::InvalidConfig(e.to_string()))?;
                Ok(ReceiverShard::new(
                    i,
                    config.num_shards,
                    core,
                    hierarchy.core_bus(core),
                    space,
                    Arc::clone(&cache),
                ))
            })
            .collect::<AmResult<Vec<_>>>()?;
        Ok(TwoChainsHost {
            core: HostCore {
                handle,
                hierarchy,
                config,
                namespace: LinkerNamespace::new(),
                space: Mutex::new(AddressSpace::new()),
                shared_ro,
                package: None,
                local_lib: HashMap::new(),
                mailbox_region,
                banks,
                local_code_cursor: Self::LOCAL_CODE_BASE,
                writable_ranges: Vec::new(),
            },
            cache,
            shards,
        })
    }

    /// This host's fabric id.
    pub fn host_id(&self) -> HostId {
        self.core.handle.id()
    }

    /// The runtime configuration.
    pub fn config(&self) -> &RuntimeConfig {
        &self.core.config
    }

    /// Mutable access to the configuration (wait mode, skip-execution, security) —
    /// used by benchmarks to flip knobs between runs. The shard count is fixed at
    /// construction: changing `num_shards` here does not re-shard the receiver.
    pub fn config_mut(&mut self) -> &mut RuntimeConfig {
        &mut self.core.config
    }

    /// Number of receiver shards (fixed at construction from
    /// [`RuntimeConfig::num_shards`]).
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Accumulated statistics, aggregated over every shard. Each call merges the
    /// per-shard counters (O(num_shards)); bind the result once when reading
    /// several fields.
    pub fn stats(&self) -> RuntimeStats {
        let mut total = RuntimeStats::new();
        for shard in &self.shards {
            total.merge(&shard.stats);
        }
        total
    }

    /// Per-shard statistics (introspection for the scaling benchmarks).
    pub fn shard_stats(&self, shard: usize) -> Option<&RuntimeStats> {
        self.shards.get(shard).map(|s| &s.stats)
    }

    /// One shard's private-cache (L1/L2) counters.
    pub fn shard_cache_stats(&self, shard: usize) -> Option<CoreCacheStats> {
        self.shards.get(shard).map(|s| s.bus.stats())
    }

    /// The global simulated-cache view: shared-level counters (L3/LLC/DRAM/DMA)
    /// merged with every shard's private L1/L2 counters.
    pub fn hierarchy_stats(&self) -> HierarchyStats {
        let mut stats = self.core.hierarchy.stats();
        for shard in &self.shards {
            stats.absorb_core(&shard.bus.stats());
        }
        stats
    }

    /// Reset statistics on every shard (runtime counters and the private-cache
    /// counters) and the shared hierarchy levels, so
    /// [`TwoChainsHost::hierarchy_stats`] never mixes pre- and post-reset
    /// epochs. Cache *contents* are preserved everywhere.
    pub fn reset_stats(&mut self) {
        for shard in &mut self.shards {
            shard.stats.reset();
            shard.bus.reset_stats();
        }
        self.core.hierarchy.reset_stats();
    }

    /// The underlying fabric host handle (stashing/prefetcher/stressor toggles).
    pub fn fabric_host(&self) -> &HostHandle {
        &self.core.handle
    }

    /// Toggle LLC stashing for traffic arriving at this host.
    pub fn set_stashing(&self, enabled: bool) {
        self.core.handle.set_stashing(enabled);
    }

    /// Attach or remove a memory stressor (tail-latency experiments).
    pub fn set_stressor(&self, stressor: Option<MemoryStressor>) {
        self.core.handle.set_stressor(stressor);
    }

    /// Drop every cached decoded program and GOT image. Called automatically when a
    /// package is (re)installed or a ried is loaded (live update may rebind symbols
    /// or change code); exposed publicly so benchmarks can measure the cold path.
    /// The caches are shared, so the invalidation is visible to every shard at its
    /// very next probe.
    pub fn invalidate_injection_caches(&mut self) {
        self.cache.invalidate_all();
    }

    /// Number of decoded programs currently cached (introspection for tests and
    /// benchmarks).
    pub fn injected_cache_len(&self) -> usize {
        self.cache.programs_len()
    }

    /// Load a ried into this process's namespace and map its data objects.
    ///
    /// Loading a ried is a live update: symbolic names may now resolve differently,
    /// so every cached GOT resolution (and, conservatively, cached programs) is
    /// invalidated. The next message per element repopulates the caches.
    pub fn load_ried(&mut self, ried: &Ried, replace: bool) -> AmResult<()> {
        self.core.namespace.load_ried(ried, replace)?;
        self.sync_spaces()?;
        self.invalidate_injection_caches();
        Ok(())
    }

    /// Propagate the namespace's data objects into every execution view: the
    /// exclusive space (canonical instances, live contents preserved), the
    /// `Arc`-shared read-only base (rebuilt from scratch — its contents never
    /// change after publication), and each shard's private instances of the
    /// writable objects (created on first sight, existing shard state kept
    /// across live updates, mirroring the exclusive space's reload semantics).
    fn sync_spaces(&mut self) -> AmResult<()> {
        self.core
            .namespace
            .map_data_segments(self.core.space.get_mut())?;
        let objects = self.core.namespace.data_objects();
        self.core.writable_ranges = objects
            .iter()
            .filter(|o| o.writable)
            .map(|o| (o.addr, o.addr + o.init.len() as u64))
            .collect();
        let mut ro = AddressSpace::new();
        for o in objects.iter().filter(|o| !o.writable) {
            ro.map(Segment::new(&o.name, o.addr, o.init.clone(), false, o.kind))
                .map_err(|e| AmError::Exec(e.to_string()))?;
        }
        let ro = Arc::new(ro);
        self.core.shared_ro = Arc::clone(&ro);
        for shard in &mut self.shards {
            shard
                .space
                .set_shared_ro(Arc::clone(&ro))
                .map_err(|e| AmError::Exec(e.to_string()))?;
            for o in objects.iter().filter(|o| o.writable) {
                if shard.space.local.segment(&o.name).is_some() {
                    continue;
                }
                let offset = o.addr - LinkerNamespace::DATA_BASE;
                if offset + o.init.len() as u64 > Self::SHARD_DATA_STRIDE {
                    return Err(AmError::InvalidConfig(format!(
                        "data object {} does not fit a shard's private data range",
                        o.name
                    )));
                }
                let base = Self::SHARD_DATA_BASE
                    + shard.shard_id as u64 * Self::SHARD_DATA_STRIDE
                    + offset;
                shard
                    .space
                    .local
                    .map(Segment::new(&o.name, base, o.init.clone(), true, o.kind))
                    .map_err(|e| AmError::Exec(e.to_string()))?;
            }
        }
        Ok(())
    }

    /// Install a package: load its rieds, then build the Local Function library from
    /// its jams (resolving each jam's GOT against this process's namespace and
    /// keeping the resident code warm in the receiver's caches).
    ///
    /// Reinstalling invalidates the injection caches: element ids may now name
    /// different code, so cached decodes keyed by the old content must not survive —
    /// on any shard; the shared-cache invalidation covers all of them atomically.
    pub fn install_package(&mut self, package: Package) -> AmResult<()> {
        for (_, ried) in package.rieds() {
            self.core.namespace.load_ried(ried, true)?;
        }
        self.sync_spaces()?;
        // In shard-local mode a GOT *data* reference resolves to the canonical
        // address of the object — which, for a writable object, is mapped only
        // in the exclusive space. A jam that takes such a reference without
        // declaring cross-shard writes would fault Unmapped at its first
        // dereference on the lock-free path, so the contradiction is rejected
        // here, at install time, with an actionable message.
        if self.core.config.space_mode == SpaceMode::ShardLocal {
            let writable: std::collections::HashSet<String> = self
                .core
                .namespace
                .data_objects()
                .into_iter()
                .filter(|o| o.writable)
                .map(|o| o.name)
                .collect();
            for (_, jam) in package.jams() {
                if jam.cross_shard_writes {
                    continue;
                }
                if let Some(sym) = jam.got.iter().find(|s| {
                    s.kind == twochains_linker::SymbolKind::Data && writable.contains(&s.name)
                }) {
                    return Err(AmError::InvalidConfig(format!(
                        "jam {} holds a GOT data reference to writable object {} \
                         without declaring cross-shard writes; shard-local mode \
                         requires with_cross_shard_writes() for canonical-address \
                         access to writable state",
                        jam.name, sym.name
                    )));
                }
            }
        }
        for (id, jam) in package.jams() {
            let program: Arc<[Instr]> = jam.program()?.into();
            let got = Arc::new(self.core.namespace.resolve_got(&jam.got)?);
            // Pre-lower at install time: resident functions never pay a
            // per-message lowering, and chain continuation stages run the
            // threaded executor from their first invocation.
            let resolved = Arc::new(resolve(&program, &got));
            let code_len = jam.code_size().max(resolved.image_bytes());
            let code_base = self.core.local_code_cursor;
            self.core.local_code_cursor += (code_len.div_ceil(4096) * 4096) as u64 + 4096;
            // The Local Function library is resident: it has been executed before (or
            // at least loaded and touched), so keep it warm in every drain core's
            // private L1/L2 (any shard may run the local jam); `CoreBus::warm`
            // stashes the range into the shared LLC as well. The warmed span
            // covers whichever image (encoded or resolved) is larger, so both
            // execution policies fetch from warm lines.
            for shard in &mut self.shards {
                shard.bus.warm(code_base, code_len);
            }
            self.core.local_lib.insert(
                id.0,
                LocalEntry {
                    program,
                    got,
                    resolved,
                    code_base,
                },
            );
        }
        self.core.package = Some(package);
        self.invalidate_injection_caches();
        Ok(())
    }

    /// The installed package.
    pub fn package(&self) -> Option<&Package> {
        self.core.package.as_ref()
    }

    /// Element id of a builtin benchmark jam in the installed package. Fails
    /// with [`AmError::UnknownElementName`] carrying the missing name when no
    /// package is installed or the package lacks the jam.
    pub fn builtin_id(&self, jam: BuiltinJam) -> AmResult<ElementId> {
        let name = jam.element_name();
        self.core
            .package
            .as_ref()
            .and_then(|p| p.id_of(name))
            .ok_or_else(|| AmError::UnknownElementName(name.to_string()))
    }

    /// The GOT image for `elem`, resolved against *this* process's namespace. A
    /// receiver exports this to senders during connection setup; senders embed it in
    /// Injected Function frames (the paper's "GOT redirect ... is set by the sender
    /// after an exchange with the receiver").
    pub fn export_got(&self, elem: ElementId) -> AmResult<GotImage> {
        let pkg = self
            .core
            .package
            .as_ref()
            .ok_or(AmError::UnknownElement(elem.0))?;
        let jam = pkg.jam(elem)?;
        Ok(self.core.namespace.resolve_got(&jam.got)?)
    }

    /// The mailbox target a sender should aim at for (`bank`, `slot`).
    pub fn mailbox_target(&self, bank: usize, slot: usize) -> AmResult<MailboxTarget> {
        Ok(self.core.banks.mailbox(bank, slot)?.target())
    }

    /// The receiver's complete half of a fleet session, bundled so the wiring
    /// cannot be partial: one [`StreamHandshake`](super::StreamHandshake) per
    /// receiver shard (stream targets + GOT images) plus the shard count the
    /// credit and NACK tables must pair with. Consumed whole by
    /// [`SenderFleet::connect_fleet`](super::SenderFleet::connect_fleet),
    /// which answers with the reverse half (credit/NACK table registration)
    /// in the same exchange.
    ///
    /// The closed `stream == shard` pairing is a *construction invariant*
    /// here: a handshake only exists for `sender_streams == num_shards`.
    /// Anything that would leave the session half-wired — no installed
    /// package, a stream/shard mismatch — is collected and reported in one
    /// loud error listing everything that is missing, instead of surfacing
    /// piecemeal at first use.
    pub fn session_handshake(&self) -> AmResult<super::SessionHandshake> {
        let shards = self.num_shards();
        let mut missing: Vec<String> = Vec::new();
        if self.core.package.is_none() {
            missing.push(
                "no package installed (install_package on the receiver before connecting)"
                    .to_string(),
            );
        }
        if self.core.config.sender_streams != shards {
            missing.push(format!(
                "sender_streams ({}) != num_shards ({shards}): the session's one-sided \
                 credit and NACK paths need the closed stream<->shard pairing \
                 (configure with with_sender_streams({shards}))",
                self.core.config.sender_streams
            ));
        }
        if !missing.is_empty() {
            return Err(AmError::InvalidConfig(format!(
                "connect_fleet cannot wire the session: {}",
                missing.join("; ")
            )));
        }
        Ok(super::SessionHandshake {
            streams: self.stream_handshakes(shards)?,
            shards,
        })
    }

    /// The forward half of the exchange on its own: one
    /// [`StreamHandshake`](super::StreamHandshake) per sender stream, each
    /// carrying the mailbox targets of the banks that stream owns
    /// (`bank % streams == stream`, the same deterministic map the receiver
    /// shards drain by) plus the GOT image of every element in the installed
    /// package, resolved against *this* process's namespace. Everything in it
    /// travels by value, so it could cross a real bootstrap channel unchanged.
    pub(crate) fn stream_handshakes(
        &self,
        streams: usize,
    ) -> AmResult<Vec<super::StreamHandshake>> {
        if streams == 0 {
            return Err(AmError::InvalidConfig(
                "need at least one sender stream".into(),
            ));
        }
        if streams > self.core.config.banks {
            return Err(AmError::InvalidConfig(format!(
                "{streams} sender streams but only {} banks: a stream would own no bank",
                self.core.config.banks
            )));
        }
        let pkg = self
            .core
            .package
            .as_ref()
            .ok_or_else(|| AmError::InvalidConfig("no package installed to hand out".into()))?;
        let gots = pkg
            .jams()
            .map(|(id, jam)| Ok((id, self.core.namespace.resolve_got(&jam.got)?)))
            .collect::<AmResult<Vec<_>>>()?;
        (0..streams)
            .map(|stream| {
                let targets = self
                    .core
                    .banks
                    .iter()
                    .filter(|(bank, _, _)| {
                        crate::bank::ShardMask::owner_of(*bank, streams) == stream
                    })
                    .map(|(bank, slot, mailbox)| super::StreamTarget {
                        bank,
                        slot,
                        target: mailbox.target(),
                    })
                    .collect();
                Ok(super::StreamHandshake {
                    stream,
                    streams,
                    per_bank: self.core.config.mailboxes_per_bank,
                    targets,
                    gots: gots.clone(),
                })
            })
            .collect()
    }

    /// Install the reverse half of the fleet connection: the one-sided
    /// credit-return path (§VI-A2). Each [`CreditHandshake`] carries the
    /// descriptor of one stream's [`BankFlags`](crate::bank::BankFlags) credit
    /// table, registered in the *sender's* address space; this host opens a
    /// reverse-direction endpoint per shard and, from then on, every retired
    /// frame (drained, dispatch-rejected or quarantined) mints a credit token
    /// into the paired stream's table, coalesced into per-row span puts by
    /// the configured [`CreditFlushPolicy`] — flow control riding the fabric
    /// and charged in virtual time, not a host-side side channel.
    ///
    /// Requires one handshake per shard with `streams == num_shards`: bank
    /// ownership is `bank % n` on both sides, so only the closed pairing gives
    /// every drain shard exactly one stream to credit.
    /// [`SenderFleet::connect_fleet`](super::SenderFleet::connect_fleet) calls
    /// this as the reverse half of its exchange.
    pub(crate) fn install_credit_returns_inner(
        &mut self,
        fabric: &SimFabric,
        handshakes: Vec<CreditHandshake>,
    ) -> AmResult<()> {
        let shards = self.shards.len();
        if handshakes.len() != shards {
            return Err(AmError::InvalidConfig(format!(
                "{} credit handshakes for {shards} shards: the one-sided credit \
                 path needs the closed stream<->shard pairing (sender_streams == \
                 num_shards)",
                handshakes.len()
            )));
        }
        let mut returns: Vec<Option<CreditReturn>> = (0..shards).map(|_| None).collect();
        let mut claimed: Vec<(usize, u64, u64)> = Vec::with_capacity(shards);
        for h in handshakes {
            if h.streams != shards || h.stream >= shards {
                return Err(AmError::InvalidConfig(format!(
                    "credit handshake for stream {} of {} does not match the \
                     {shards}-shard receiver",
                    h.stream, h.streams
                )));
            }
            // Vet the table at install time, so a drain-time credit put can
            // only fail on a genuine invariant break (e.g. a region
            // deregistered mid-flight), never on geometry agreed here.
            if !h.descriptor.flags.remote_write {
                return Err(AmError::InvalidConfig(format!(
                    "stream {}'s credit table region is not remote-writable: \
                     every credit put to it would fail at drain time",
                    h.stream
                )));
            }
            // Distinct streams must hand over disjoint regions: two streams
            // sharing (an overlap of) one table would write each other's
            // token bytes — a phantom credit for one lane and a permanently
            // withheld one for the other, with no error anywhere.
            let (start, end) = (
                h.descriptor.base_addr,
                h.descriptor.base_addr + h.descriptor.len as u64,
            );
            if claimed
                .iter()
                .any(|&(host, s, e)| host == h.descriptor.host && start < e && s < end)
            {
                return Err(AmError::InvalidConfig(format!(
                    "stream {}'s credit table overlaps another stream's: \
                     each stream needs its own region",
                    h.stream
                )));
            }
            claimed.push((h.descriptor.host, start, end));
            let endpoint = fabric.endpoint(self.host_id(), HostId(h.descriptor.host))?;
            let credit = CreditReturn::new(
                endpoint,
                &h,
                self.core.config.banks,
                self.core.config.mailboxes_per_bank,
            )?;
            if returns[h.stream].replace(credit).is_some() {
                return Err(AmError::InvalidConfig(format!(
                    "duplicate credit handshake for stream {}",
                    h.stream
                )));
            }
        }
        for (shard, credit) in self.shards.iter_mut().zip(returns) {
            shard.credit = credit;
            // A new handshake means a new sender sequence space (a freshly
            // connected fleet's lanes count from 1 again): stale replay
            // watermarks or suspected gaps from the previous pairing would
            // silently suppress — or spuriously NACK — the new lanes' frames.
            shard.replay.clear();
            shard.watch = super::shard::SeqWatch::default();
        }
        Ok(())
    }

    /// Whether every shard has its one-sided credit-return path installed
    /// (the precondition for [`drive_pipeline`](super::drive_pipeline)).
    pub fn credit_path_installed(&self) -> bool {
        self.shards.iter().all(|s| s.credit.is_some())
    }

    /// The sender-side table descriptor shard `shard`'s credit return targets
    /// (`None` when not installed). `drive_pipeline` checks these against the
    /// fleet it was handed: a later `connect_fleet` replaces the credit
    /// returns, so driving an *earlier* fleet would put every token into
    /// another fleet's tables and spin forever — the identity check turns
    /// that into an error.
    pub(crate) fn credit_descriptor(
        &self,
        shard: usize,
    ) -> Option<twochains_fabric::RegionDescriptor> {
        self.shards
            .get(shard)
            .and_then(|s| s.credit.as_ref().map(|c| c.descriptor()))
    }

    /// Shard `shard`'s lifetime credit-flush totals `(flush puts, wire bytes,
    /// largest span)` — cumulative since the credit path was installed and
    /// deliberately immune to [`TwoChainsHost::reset_stats`] (the flush
    /// engine's state must survive benchmark-phase resets; see
    /// `CreditReturn::lifetime_flush_totals`). `None` when the credit path
    /// is not installed.
    pub fn credit_flush_lifetime(&self, shard: usize) -> Option<(u64, u64, u64)> {
        self.shards
            .get(shard)
            .and_then(|s| s.credit.as_ref().map(CreditReturn::lifetime_flush_totals))
    }

    /// The receiver's mailbox banks.
    pub fn banks(&self) -> &MailboxBank {
        &self.core.banks
    }

    /// Read a ried-exported data object (for tests and examples that verify
    /// server-side effects, e.g. the Server-Side Sum result array). This reads
    /// the *canonical* instance — the exclusive space — which is the one every
    /// execution mutates in [`SpaceMode::Exclusive`] but only cross-shard jams
    /// mutate in [`SpaceMode::ShardLocal`]; use
    /// [`TwoChainsHost::read_shard_data`] for a shard's private instance.
    pub fn read_data(&self, symbol: &str, offset: usize, len: usize) -> AmResult<Vec<u8>> {
        let addr = self
            .core
            .namespace
            .data_addr(symbol)
            .ok_or_else(|| AmError::Link(format!("no data symbol {symbol}")))?;
        Ok(self
            .core
            .space
            .lock()
            .read(addr + offset as u64, len)
            .map_err(|e| AmError::Exec(e.to_string()))?
            .to_vec())
    }

    /// Read `shard`'s private instance of a writable ried object (shard-local
    /// space mode), falling back to the shared read-only base for non-writable
    /// symbols.
    pub fn read_shard_data(
        &self,
        shard: usize,
        symbol: &str,
        offset: usize,
        len: usize,
    ) -> AmResult<Vec<u8>> {
        let s = self
            .shards
            .get(shard)
            .ok_or_else(|| AmError::InvalidConfig(format!("no shard {shard}")))?;
        let seg = s
            .space
            .local
            .segment(symbol)
            .or_else(|| s.space.shared_ro().segment(symbol))
            .ok_or_else(|| AmError::Link(format!("no data symbol {symbol} in shard {shard}")))?;
        seg.data
            .get(offset..offset + len)
            .map(<[u8]>::to_vec)
            .ok_or_else(|| AmError::Exec(format!("read past the end of {symbol}")))
    }

    /// Process the message sitting in mailbox (`bank`, `slot`).
    ///
    /// This is the one-slot case of [`TwoChainsHost::receive_burst`]: the slot
    /// runs through the same slot step and per-frame retire a burst scan runs
    /// for each ready slot, and leaves through the same abort-safe credit
    /// flush. Only the slot source differs — named here, not scanned — and
    /// the frame is charged the configured wait model instead of a scan's one
    /// poll. The request is routed to the shard owning `bank`, so its
    /// counters land in that shard's stats.
    ///
    /// Returns the executed frame's outcome (for a batch container, the last
    /// executed inner frame's). A rejected frame is retired — slot cleared,
    /// counted in `frames_rejected`, credit returned — and its error returned;
    /// an empty slot or a suppressed replay returns [`AmError::Empty`]. A
    /// credit-put failure is returned, never swallowed, even in place of a
    /// rejection's own error.
    ///
    /// * `arrival` — when the frame's signal byte became visible (from the sender's
    ///   [`AmSendOutcome::delivered`](super::AmSendOutcome::delivered)).
    /// * `ready_since` — when the receiver thread started waiting on this mailbox.
    /// * `frame_len` — the fixed frame size, or `None` to use the variable-frame
    ///   two-step protocol.
    pub fn receive(
        &mut self,
        bank: usize,
        slot: usize,
        frame_len: Option<usize>,
        arrival: SimTime,
        ready_since: SimTime,
    ) -> AmResult<ReceiveOutcome> {
        let shard_idx = crate::bank::ShardMask::owner_of(bank, self.shards.len());
        self.core.receive(
            &mut self.shards[shard_idx],
            bank,
            slot,
            frame_len,
            arrival,
            ready_since,
        )
    }

    /// Drain up to `max_frames` frames that are ready in the banks owned by shard
    /// `shard`, in one scan ([`MailboxBank::scan_burst`]). The scan's poll is
    /// charged once for the whole burst; the drained frames are then processed
    /// back-to-back in shard-virtual time starting at `now`. Frames that fail
    /// dispatch (malformed code, policy rejection, ...) are dropped — their slot is
    /// cleared so the bank cannot wedge — and reported in
    /// [`BurstOutcome::rejected`].
    pub fn receive_burst(
        &mut self,
        shard: usize,
        max_frames: usize,
        now: SimTime,
    ) -> AmResult<BurstOutcome> {
        if shard >= self.shards.len() {
            return Err(AmError::InvalidConfig(format!(
                "no shard {shard} (host has {})",
                self.shards.len()
            )));
        }
        self.core
            .receive_burst(&mut self.shards[shard], max_frames, now)
    }

    /// Split the host into one [`ShardDrain`] per shard. Each handle owns its
    /// shard's mutable context and shares the host internals, so the returned
    /// handles can be moved to OS threads (e.g. with `std::thread::scope`) and
    /// drained in parallel.
    pub fn shard_drains(&mut self) -> Vec<ShardDrain<'_>> {
        let core = &self.core;
        self.shards
            .iter_mut()
            .map(|shard| ShardDrain { core, shard })
            .collect()
    }
}

impl HostCore {
    /// Return the flow-control credit for a just-retired slot: mint its next
    /// token into the shard's pending row ([`CreditReturn::accumulate`]) and
    /// flush per the configured [`CreditFlushPolicy`] — immediately under
    /// `PerFrame`, on row-fill or the headroom watermark under `Adaptive`
    /// (the idle/abort flush at the end of every scan is the caller's job).
    /// No-op when the credit path is not installed. Must be called *after*
    /// the slot's mailbox was cleared — the flush put's release publication
    /// is what orders the sender's refill behind the clear.
    ///
    /// The token is counted (`credits_returned`, one wire byte in
    /// `credit_put_bytes`) at mint time — token accounting, one per retired
    /// frame regardless of how flushes batch them — while the posting cost
    /// (`credit_put_time`) and the flush-shape counters (`credit_flushes`,
    /// `credit_flush_bytes`, `credit_flush_max_span`) land when a flush
    /// actually posts, advancing `clock` to the puts' `sender_free`.
    ///
    /// A failure here is an invariant break, not a routine condition:
    /// [`SenderFleet::connect_fleet`](super::SenderFleet::connect_fleet)
    /// vets the table's geometry, writability and disjointness up front, so
    /// the only ways a drain-time credit put can fail are things like a
    /// region deregistered mid-flight. Callers propagate it (even at the cost
    /// of dropping already-executed outcomes or a rejection's own error) —
    /// losing a credit silently would wedge the paired lane with no trace,
    /// which is strictly worse.
    fn return_credit(
        &self,
        shard: &mut ReceiverShard,
        clock: &mut SimTime,
        bank: usize,
        slot: usize,
    ) -> AmResult<()> {
        let Some(credit) = shard.credit.as_mut() else {
            return Ok(());
        };
        let out = credit.accumulate(*clock, bank, slot)?;
        shard.stats.credits_returned += 1;
        shard.stats.credit_put_bytes += 1;
        if let Some(flush) = out.forced {
            Self::fold_flush(&mut shard.stats, clock, flush);
        }
        let flush_now = match self.config.credit_flush_policy {
            CreditFlushPolicy::PerFrame => true,
            CreditFlushPolicy::Adaptive => {
                // Row-fill: the widest span one put can cover. Watermark:
                // the withheld tokens leave the sender within `watermark`
                // credits of exhausting its completion window, so batching
                // must yield to latency. The watermark itself follows the
                // observed retire rate (EWMA in `CreditReturn`) unless the
                // config pinned the static knob as an override.
                let credit = shard.credit.as_ref().expect("accumulate ran above");
                let watermark = if self.config.adaptive_credit_watermark {
                    credit.adaptive_watermark(
                        self.config.completion_window,
                        self.config.credit_flush_watermark,
                    )
                } else {
                    self.config.credit_flush_watermark
                };
                out.row_full
                    || credit.pending_total()
                        >= self.config.completion_window.saturating_sub(watermark)
            }
        };
        if flush_now {
            Self::flush_credits(shard, clock)?;
        }
        Ok(())
    }

    /// Post every pending credit token of `shard` now (no-op when nothing is
    /// pending or no credit path is installed), folding the flush traffic
    /// into the shard's stats and advancing `clock` past the posting cost.
    /// This is the idle/abort trigger of the flush state machine: the host
    /// calls it at the end of every scan and on every error exit, so a token
    /// can never be stranded by an empty bank or a failed dispatch.
    fn flush_credits(shard: &mut ReceiverShard, clock: &mut SimTime) -> AmResult<()> {
        if let Some(credit) = shard.credit.as_mut() {
            if let Some(flush) = credit.flush(*clock)? {
                Self::fold_flush(&mut shard.stats, clock, flush);
            }
        }
        Ok(())
    }

    /// Fold one flush's traffic into the resettable stats: the posting cost
    /// charged to the drain core's clock, plus the flush-shape counters
    /// (`credit_flush_max_span` merges with `max`, like the host-wide merge).
    fn fold_flush(stats: &mut RuntimeStats, clock: &mut SimTime, flush: FlushOutcome) {
        stats.credit_flushes += flush.puts;
        stats.credit_flush_bytes += flush.bytes;
        stats.credit_flush_max_span = stats.credit_flush_max_span.max(flush.max_span);
        stats.credit_put_time += flush.sender_free - *clock;
        *clock = flush.sender_free;
    }

    /// Return the credit for a slot retired as a suppressed *replay*: the
    /// slot's current token is re-published without advancing the drain count
    /// ([`CreditReturn::put_credit_replay`]), so the duplicate can neither
    /// leak the slot (the sender still sees it free) nor mint an extra credit
    /// (the token byte is unchanged). Not counted in `credits_returned` — the
    /// put carries no *new* credit — but its traffic and posting cost are
    /// charged like any other put.
    fn return_replay_credit(
        shard: &mut ReceiverShard,
        clock: &mut SimTime,
        bank: usize,
        slot: usize,
    ) -> AmResult<()> {
        if let Some(credit) = shard.credit.as_mut() {
            let out = credit.put_credit_replay(*clock, bank, slot)?;
            shard.stats.credit_put_bytes += out.bytes as u64;
            shard.stats.credit_put_time += out.sender_free - *clock;
            *clock = out.sender_free;
        }
        Ok(())
    }

    /// Feed one processed sequence number (executed or suppressed) to the
    /// shard's gap watcher, when the reliability layer is armed.
    fn note_sequence(shard: &mut ReceiverShard, sn: u32) {
        if shard.credit.as_ref().is_some_and(|c| c.nack_armed()) {
            shard.watch.note(sn);
        }
    }

    /// Close one full bank scan for the gap watcher and post every suspected
    /// loss that outlived the scan-jumble horizon as **one** coalesced NACK
    /// put ([`CreditReturn::put_nacks`]) — `nacks_posted` counts flushes, not
    /// gaps, since the coalescing. On a lossless fabric the watcher never
    /// ages anything out, so this posts nothing.
    fn post_due_nacks(shard: &mut ReceiverShard, clock: &mut SimTime) -> AmResult<()> {
        if !shard.credit.as_ref().is_some_and(|c| c.nack_armed()) {
            return Ok(());
        }
        let due = shard.watch.end_scan();
        if due.is_empty() {
            return Ok(());
        }
        let credit = shard.credit.as_mut().expect("armed implies credit");
        let out = credit.put_nacks(*clock, &due)?;
        shard.stats.nacks_posted += 1;
        shard.stats.credit_put_bytes += out.bytes as u64;
        shard.stats.credit_put_time += out.sender_free - *clock;
        *clock = out.sender_free;
        Ok(())
    }

    /// Single-slot receive through `shard` (the contract is on
    /// [`TwoChainsHost::receive`]): the burst's slot step on one named slot,
    /// with the wait model charged for `arrival - ready_since`, left through
    /// the same exit flush. The credit posting cost is charged to the
    /// shard's counters but not folded into the returned outcome's handler
    /// time — it belongs to the drain core's next activity, exactly like the
    /// burst path's clock advance. A duplicate must be observationally
    /// invisible, so a pure replay returns [`AmError::Empty`], like an empty
    /// slot. A single-slot receive closes no gap-watch scan.
    pub(crate) fn receive(
        &self,
        shard: &mut ReceiverShard,
        bank: usize,
        slot: usize,
        frame_len: Option<usize>,
        arrival: SimTime,
        ready_since: SimTime,
    ) -> AmResult<ReceiveOutcome> {
        let wait_dur = arrival.saturating_sub(ready_since);
        let wait = self.config.wait_model.wait(self.config.wait_mode, wait_dur);
        let mut sink = SlotSink::default();
        let mut clock = arrival;
        Self::flushing(shard, &mut clock, |shard, clock| {
            self.drain_slot(
                shard,
                bank,
                slot,
                frame_len,
                ready_since,
                wait,
                clock,
                &mut sink,
            )
        })?;
        let SlotSink { last, first_err } = sink;
        last.ok_or_else(|| first_err.unwrap_or(AmError::Empty))
    }

    /// One-scan burst drain of the banks `shard` owns (see
    /// [`TwoChainsHost::receive_burst`]).
    pub(crate) fn receive_burst(
        &self,
        shard: &mut ReceiverShard,
        max_frames: usize,
        now: SimTime,
    ) -> AmResult<BurstOutcome> {
        let mut clock = now;
        let mut burst = Self::flushing(shard, &mut clock, |shard, clock| {
            self.scan(shard, max_frames, clock)
        })?;
        burst.drained_at = clock;
        Ok(burst)
    }

    /// The abort-safe exit both receive entry points leave through: run
    /// `body` on the drain clock, then run the idle/abort credit flush
    /// whatever `body` returned, so a token minted for any retired frame is
    /// published before control leaves the engine — an aborted receive may
    /// drop its already-executed outcomes, but never a credit. On an error
    /// the original error takes precedence over any flush failure; a flush
    /// failure on its own is returned, never swallowed.
    fn flushing<T>(
        shard: &mut ReceiverShard,
        clock: &mut SimTime,
        body: impl FnOnce(&mut ReceiverShard, &mut SimTime) -> AmResult<T>,
    ) -> AmResult<T> {
        let result = body(shard, clock);
        let flushed = Self::flush_credits(shard, clock);
        let out = result?;
        flushed?;
        Ok(out)
    }

    /// The burst scan proper: poll, quarantine, then the slot step for every
    /// ready slot. `clock` tracks drain-virtual time even across an error
    /// return, so the caller's abort-safe flush charges its posting at the
    /// right instant.
    fn scan(
        &self,
        shard: &mut ReceiverShard,
        max_frames: usize,
        clock: &mut SimTime,
    ) -> AmResult<BurstOutcome> {
        // A single poll pass over the shard's banks: ready frames to drain, plus
        // poisoned slots (header magic set but an out-of-range declared length)
        // quarantined on the spot — a burst-only receiver would otherwise never
        // reclaim them.
        let (ready, rejected) = self.banks.scan_burst(shard.mask(), max_frames);
        // Quarantined poisoned slots are counted in the shard's stats (and so
        // survive the host-wide merge) as well as reported per burst.
        shard.stats.poisoned_quarantined += rejected.len() as u64;
        // That one scan observes readiness for every frame at once: charge a
        // single zero-length wait (one poll boundary) instead of the per-message
        // wait the single-slot path pays.
        let scan = self
            .config
            .wait_model
            .wait(self.config.wait_mode, SimTime::ZERO);
        shard.stats.wait_time += scan.elapsed;
        shard.stats.cycles.add_wait(scan.cycles);
        *clock += scan.elapsed;
        // A quarantined slot was cleared by the scan, so its credit goes back
        // right away: the paired lane must be able to reuse the slot even
        // though no frame was ever dispatched from it — otherwise a single
        // poisoning put would wedge the lane forever.
        for (bank, slot, _) in &rejected {
            self.return_credit(shard, clock, *bank, *slot)?;
        }
        let mut burst = BurstOutcome {
            frames: Vec::with_capacity(ready.len()),
            rejected,
            // Stamped by the caller, after the exit flush.
            drained_at: SimTime::ZERO,
        };
        for (bank, slot, frame_len) in ready {
            let ready_since = *clock;
            self.drain_slot(
                shard,
                bank,
                slot,
                Some(frame_len),
                ready_since,
                NO_WAIT,
                clock,
                &mut burst,
            )?;
        }
        // The scan is complete: age the gap watcher and report anything that
        // has now outlived the scan-jumble horizon.
        Self::post_due_nacks(shard, clock)?;
        Ok(burst)
    }

    /// The slot step both entry points run: take the frame out of mailbox
    /// (`bank`, `slot`) and hand each frame it holds — one standalone frame,
    /// or every inner frame of a container — to [`HostCore::step_frame`].
    /// An empty slot retires nothing and leaves `clock` alone. Otherwise the
    /// drain clock moves to the detection instant, `ready_since + wait` plus
    /// scheduler jitter, and on through every frame the slot retires.
    #[allow(clippy::too_many_arguments)]
    fn drain_slot(
        &self,
        shard: &mut ReceiverShard,
        bank: usize,
        slot: usize,
        frame_len: Option<usize>,
        ready_since: SimTime,
        wait: WaitOutcome,
        clock: &mut SimTime,
        sink: &mut impl RetireSink,
    ) -> AmResult<()> {
        let mailbox = self.banks.mailbox(bank, slot)?;
        // `stressed()` is one atomic load; the stressor lock is only taken when
        // a stressor is actually attached.
        let jitter = self.hierarchy.scheduler_jitter();
        let taken = Self::take_frame(mailbox, frame_len, &mut shard.scratch);
        if let Ok(false) = taken {
            return Ok(());
        }
        *clock = ready_since + wait.elapsed + jitter;
        // The frames are parsed by borrow from the shard's scratch buffer,
        // moved out meanwhile so the steps below can borrow the whole shard.
        let scratch = std::mem::take(&mut shard.scratch);
        let base = mailbox.base_addr();
        let stepped = match taken {
            Ok(_) if is_batch(&scratch) => {
                self.drain_container(shard, bank, slot, &scratch, base, wait, clock, sink)
            }
            Ok(_) => {
                let frame = FrameView::parse(&scratch);
                self.step_frame(shard, bank, slot, frame, base, Some(wait), clock, sink)
            }
            Err(err) => {
                // The slot held something unreadable (an out-of-range
                // length, ...): free it so the bank cannot wedge. Without a
                // trustworthy length, clearing the header magic alone makes
                // the slot poll empty again (the same gate the quarantine
                // path clears).
                let _ = mailbox.clear(frame_len.unwrap_or(FRAME_HEADER_SIZE));
                self.step_frame(shard, bank, slot, Err(err), base, Some(wait), clock, sink)
            }
        };
        shard.scratch = scratch;
        stepped
    }

    /// Poll `mailbox` for a complete frame of `frame_len` bytes (or by the
    /// variable-frame two-step protocol for `None`), copy it into `scratch`
    /// and clear the slot at once. Everything after works on the copy, so a
    /// frame's credit can go back the moment the frame retires — for a
    /// container, before its later inner frames run. `Ok(false)`: the slot
    /// is empty.
    fn take_frame(
        mailbox: &ReactiveMailbox,
        frame_len: Option<usize>,
        scratch: &mut Vec<u8>,
    ) -> AmResult<bool> {
        let len = match frame_len {
            Some(len) => mailbox.poll_fixed(len)?.then_some(len),
            None => mailbox.poll_variable()?,
        };
        if let Some(len) = len {
            mailbox.read_frame_into(len, scratch)?;
            mailbox.clear(len)?;
        }
        Ok(len.is_some())
    }

    /// Unbatch one multi-frame container taken from the `carrier` slot of
    /// `bank`: one readiness check, one wait and one header-read prologue
    /// amortized over all inner frames, then each inner frame through the
    /// same step a standalone frame takes — replay-filtered, executed,
    /// accounted and retired against its *declared* destination slot (the
    /// slot whose flow-control credit the sender consumed for it). The
    /// declared slots were never written; the carrier is already clear. A
    /// retransmitted container re-executes nothing — every inner frame hits
    /// its slot's replay filter.
    #[allow(clippy::too_many_arguments)]
    fn drain_container(
        &self,
        shard: &mut ReceiverShard,
        bank: usize,
        carrier: usize,
        container: &[u8],
        base: u64,
        wait: WaitOutcome,
        clock: &mut SimTime,
        sink: &mut impl RetireSink,
    ) -> AmResult<()> {
        let view = match BatchView::parse(container) {
            Ok(view) => view,
            Err(err) => {
                return self.step_frame(
                    shard,
                    bank,
                    carrier,
                    Err(err),
                    base,
                    Some(wait),
                    clock,
                    sink,
                )
            }
        };
        // One container-header read is the whole prologue: inner headers are
        // still read per frame (that work is real), but readiness was
        // checked once and the outer parse validated the whole envelope.
        let prologue = shard
            .bus
            .access(shard.core, base, FRAME_HEADER_SIZE, AccessKind::Read);
        let stats = &mut shard.stats;
        stats.batches_received += 1;
        stats.exec_time += prologue;
        stats.wait_time += wait.elapsed;
        stats.cycles.add_wait(wait.cycles);
        stats
            .cycles
            .add_work_time(prologue, self.config.wait_model.core_freq_ghz);
        *clock += prologue;
        for (ix, &(dest, bytes)) in view.frames().iter().enumerate() {
            // The inner frame's bytes live inside the carrier slot's memory,
            // so its charged addresses are carrier-relative.
            let offset = bytes.as_ptr() as usize - container.as_ptr() as usize;
            let frame = FrameView::parse(bytes)
                .map_err(|err| AmError::BadFrame(format!("batch inner frame {ix}: {err}")));
            let inner_base = base + offset as u64;
            self.step_frame(
                shard,
                bank,
                dest as usize,
                frame,
                inner_base,
                None,
                clock,
                sink,
            )?;
        }
        Ok(())
    }

    /// The one per-frame step, for a standalone frame and for each inner
    /// frame of a container alike: replay check, dispatch and accounting
    /// ([`HostCore::run_frame`]), then the frame retires at once, on the
    /// drain clock. An executed frame gets its gap-watch note and a fresh
    /// credit; a suppressed replay its note and an idempotent replay credit;
    /// a rejected frame (an unparseable one arrives here as `Err`) is counted
    /// in `frames_rejected` and gets a fresh credit. `slot` is the slot whose
    /// credit the frame retires; `wait` is a standalone frame's own mailbox
    /// wait, `None` for an inner frame (its container charged one wait for
    /// all of them).
    #[allow(clippy::too_many_arguments)]
    fn step_frame(
        &self,
        shard: &mut ReceiverShard,
        bank: usize,
        slot: usize,
        frame: AmResult<FrameView<'_>>,
        base_addr: u64,
        wait: Option<WaitOutcome>,
        clock: &mut SimTime,
        sink: &mut impl RetireSink,
    ) -> AmResult<()> {
        let ran = frame.and_then(|frame| {
            let outcome = self.run_frame(shard, bank, slot, &frame, base_addr, wait, *clock)?;
            Ok((frame.header.sn, outcome))
        });
        match ran {
            Ok((sn, outcome)) => {
                Self::note_sequence(shard, sn);
                let Some(outcome) = outcome else {
                    // A suppressed replay is neither executed nor rejected:
                    // its credit is re-published idempotently, so it can
                    // neither leak the slot nor mint a second token.
                    return Self::return_replay_credit(shard, clock, bank, slot);
                };
                *clock = outcome.handler_done;
                sink.frame_executed(bank, slot, outcome);
            }
            Err(err) => {
                shard.stats.frames_rejected += 1;
                sink.frame_rejected(bank, slot, err);
            }
        }
        // One credit token per retired frame, minted the moment it retires,
        // on the drain core's clock: a later frame of the same container
        // starts after the posting, never overlapping it.
        self.return_credit(shard, clock, bank, slot)
    }

    /// Replay-check, dispatch and account one parsed frame that starts at
    /// `start` on the drain clock, returning its outcome — or `None` for a
    /// suppressed replay.
    #[allow(clippy::too_many_arguments)]
    fn run_frame(
        &self,
        shard: &mut ReceiverShard,
        bank: usize,
        slot: usize,
        frame: &FrameView<'_>,
        base_addr: u64,
        wait: Option<WaitOutcome>,
        start: SimTime,
    ) -> AmResult<Option<ReceiveOutcome>> {
        // Disjoint field borrows: the shared cache, the stats, the per-core
        // bus, the shard-local space and the replay filter are separate
        // fields of the shard.
        let ReceiverShard {
            core,
            bus,
            space,
            cache,
            stats,
            credit,
            replay,
            num_shards,
            ..
        } = shard;
        // Idempotent replay suppression, armed only when this shard's stream
        // handshake carried a NACK table (legacy flows keep their exact
        // pre-reliability semantics, including re-executing a slot a test
        // refills with the same sequence number). A frame whose sequence
        // number is not strictly newer than the last one executed from its
        // slot is a duplicate delivery or a stale retransmit — the original
        // already executed and was credited, so the copy is retired
        // silently: no dispatch, no stats that would diverge from the
        // lossless run. `0` is the never-executed sentinel; the sender's
        // sequence space starts at 1, so it cannot collide.
        let sn = frame.header.sn;
        let last_sn = credit.as_ref().is_some_and(|c| c.nack_armed()).then(|| {
            Self::replay_entry(
                replay,
                *num_shards,
                self.config.mailboxes_per_bank,
                bank,
                slot,
            )
        });
        if let Some(last) = &last_sn {
            if **last != 0 && !super::shard::sn_newer(sn, **last) {
                stats.replays_suppressed += 1;
                return Ok(None);
            }
        }
        let dispatched = self.dispatch_frame(cache, stats, *core, bus, space, frame, base_addr)?;
        if let Some(last) = last_sn {
            *last = sn;
        }
        stats.messages_received += 1;
        // An inner frame's wait was charged once, with its container's prologue.
        stats.batch_frames_received += u64::from(wait.is_none());
        let wait = wait.unwrap_or(NO_WAIT);
        stats.wait_time += wait.elapsed;
        stats.exec_time += dispatched.handler_time;
        stats.cycles.add_wait(wait.cycles);
        stats.cycles.add_work_time(
            dispatched.handler_time,
            self.config.wait_model.core_freq_ghz,
        );
        Ok(Some(ReceiveOutcome {
            detected_at: start,
            handler_done: start + dispatched.handler_time,
            wait,
            exec: dispatched.exec_stats,
            result: dispatched.result,
            handler_time: dispatched.handler_time,
            dispatch_time: dispatched.handler_time - dispatched.exec_time,
        }))
    }

    /// The replay-filter entry guarding mailbox (`bank`, `slot`), growing the
    /// filter on first touch. Rows are indexed like [`CreditReturn`]'s: the
    /// shard sees every `num_shards`-th bank, so `bank / num_shards` is its
    /// local row.
    fn replay_entry(
        filter: &mut Vec<u32>,
        num_shards: usize,
        per_bank: usize,
        bank: usize,
        slot: usize,
    ) -> &mut u32 {
        let idx = (bank / num_shards) * per_bank + slot;
        if filter.len() <= idx {
            filter.resize(idx + 1, 0);
        }
        &mut filter[idx]
    }

    /// The dispatch core shared by the single-frame and batch paths: header
    /// read, mode split, policy check, cache resolution, execution and
    /// continuation stages for one parsed frame whose wire bytes live at
    /// `base_addr`. Charges everything to `stats` except the per-frame
    /// retirement bookkeeping (`messages_received`, wait, mailbox clear),
    /// which stays with the slot and per-frame steps — a container amortizes
    /// those.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_frame(
        &self,
        cache: &InjectionCache,
        stats: &mut RuntimeStats,
        core: usize,
        bus: &mut CoreBus,
        shard_space: &mut ShardSpace,
        frame: &FrameView<'_>,
        base_addr: u64,
    ) -> AmResult<DispatchedFrame> {
        // 2. Read the header, charged through this shard's own core bus —
        // private L1/L2 lookups take no lock; only misses touch the striped
        // shared levels.
        let mut handler_time = SimTime::ZERO;
        handler_time += bus.access(core, base_addr, FRAME_HEADER_SIZE, AccessKind::Read);

        let mode = if frame.header.injected {
            InvocationMode::Injected
        } else {
            InvocationMode::Local
        };
        handler_time += SimTime::from_ns_f64(match mode {
            InvocationMode::Injected => self.config.injected_dispatch_ns,
            InvocationMode::Local => self.config.local_dispatch_ns,
        });

        let mut exec_stats = None;
        let mut result = 0u64;
        let mut exec_time = SimTime::ZERO;

        if !self.config.skip_execution {
            // 3. Security policy.
            if mode == InvocationMode::Injected
                && self.config.security.require_execute_permission
                && !self.mailbox_region.flags().remote_execute
            {
                return Err(AmError::PolicyViolation(
                    "mailbox region lacks remote-execute permission".into(),
                ));
            }

            // 4. Resolve the GOT and the executable image, through the shared
            // injection caches for Injected mode and by Arc-shared Local
            // Function entries otherwise. Under the resolved policy the warm
            // injected path is keyed by the *NIC delivery digest*: the DMA
            // engine hashes the code section as the bytes stream through at
            // delivery (receive-side hash offload — the same cut-through
            // install engine that keeps up with line rate), so a warm dispatch
            // never reads the code section on the receiver core at all. The
            // digest is receiver-computed (by the receiver's own NIC), so
            // trusting it is security-equivalent to hashing on the core; the
            // GOT section is still read and hashed per message as before.
            let (image, got, code_base) = match mode {
                InvocationMode::Injected => {
                    let got = self.injected_got(
                        cache,
                        stats,
                        bus,
                        core,
                        frame,
                        base_addr,
                        &mut handler_time,
                    )?;
                    match self.config.execution_policy {
                        ExecutionPolicy::Resolved => {
                            let rkey = (
                                frame.header.elem_id,
                                hash64_bytes(frame.code),
                                frame.code.len(),
                            );
                            if let Some(entry) = cache.lookup_resolved(rkey, &got) {
                                // The GOT is pointer-identical to the one the
                                // image was lowered against, but the verifier
                                // floor is re-checked for parity with the
                                // interpreted warm path.
                                if got.len() < entry.min_got_slots {
                                    return Err(AmError::BadFrame(format!(
                                        "cached program references GOT slot {} but the \
                                         message GOT has only {} slots",
                                        entry.min_got_slots - 1,
                                        got.len()
                                    )));
                                }
                                stats.resolved_cache_hits += 1;
                                // The resolved image subsumes the decoded
                                // program: a resolved hit is a code-cache hit.
                                stats.injected_code_cache_hits += 1;
                                (ExecImage::Resolved(entry.image), got, entry.code_base)
                            } else {
                                stats.resolved_cache_misses += 1;
                                let (program, min_got_slots) = self.injected_program(
                                    cache,
                                    stats,
                                    bus,
                                    core,
                                    frame,
                                    got.len(),
                                    base_addr,
                                    &mut handler_time,
                                )?;
                                let image = Arc::new(resolve(&program, &got));
                                let slab = resolved_slab_base(rkey);
                                // Lowering walks the decoded program once, then
                                // the image is written into its slab (which
                                // installs its lines hot for the execution that
                                // follows and every warm re-run).
                                handler_time += SimTime::from_ns_f64(
                                    frame.code.len() as f64 * RESOLVE_NS_PER_BYTE,
                                );
                                handler_time += bus.access(
                                    core,
                                    slab,
                                    image.image_bytes().max(1),
                                    AccessKind::Write,
                                );
                                cache.store_resolved(
                                    rkey,
                                    CachedResolved {
                                        got: Arc::clone(&got),
                                        image: Arc::clone(&image),
                                        code_base: slab,
                                        min_got_slots,
                                    },
                                );
                                (ExecImage::Resolved(image), got, slab)
                            }
                        }
                        ExecutionPolicy::Interpret => {
                            let (program, _) = self.injected_program(
                                cache,
                                stats,
                                bus,
                                core,
                                frame,
                                got.len(),
                                base_addr,
                                &mut handler_time,
                            )?;
                            let code_base = base_addr + frame.code_offset() as u64;
                            (ExecImage::Interpreted(program), got, code_base)
                        }
                    }
                }
                InvocationMode::Local => {
                    let entry = self
                        .local_lib
                        .get(&frame.header.elem_id)
                        .ok_or(AmError::UnknownElement(frame.header.elem_id))?;
                    let image = match self.config.execution_policy {
                        ExecutionPolicy::Resolved => {
                            ExecImage::Resolved(Arc::clone(&entry.resolved))
                        }
                        ExecutionPolicy::Interpret => {
                            ExecImage::Interpreted(Arc::clone(&entry.program))
                        }
                    };
                    (image, Arc::clone(&entry.got), entry.code_base)
                }
            };

            // 5. Map the message's ARGS and USR sections at their mailbox addresses
            // so every access is charged against the lines the NIC delivered. These
            // are the only sections copied out of the receive buffer — the jam may
            // write to them (subject to policy), so they need their own backing
            // store. Which space they map into is the mode split: the exclusive
            // space under its mutex, or the shard's own local space with no lock
            // at all.
            let args_base = base_addr + frame.args_offset() as u64;
            let usr_base = base_addr + frame.usr_offset() as u64;
            let args_writable = !self.config.security.read_only_args;
            let usr_writable = !self.config.security.read_only_payload;
            let args_seg = Segment::new(
                "msg.args",
                args_base,
                frame.args.to_vec(),
                args_writable,
                SegmentKind::Args,
            );
            let usr_seg = Segment::new(
                "msg.usr",
                usr_base,
                frame.usr.to_vec(),
                usr_writable,
                SegmentKind::Payload,
            );

            let vm_cfg = VmConfig {
                core,
                code_base,
                fuel: 50_000_000,
                freq_ghz: self.config.wait_model.core_freq_ghz,
                ipc: 2.0,
                extern_call_overhead: SimTime::from_ns(6),
                entry_regs: [args_base, usr_base, frame.usr.len() as u64],
            };

            // A jam that declares cross-shard writes must see the canonical
            // (exclusive) instances even in shard-local mode. The GOT scan is
            // the runtime backstop for messages the install-time contract
            // check cannot see (injected frames for elements outside the
            // installed package, rieds loaded without a package): a resolved
            // Data reference into a writable object's canonical range only
            // works on the exclusive path, so such messages are routed there
            // instead of faulting Unmapped on the lock-free one.
            let use_exclusive = match self.config.space_mode {
                SpaceMode::Exclusive => true,
                SpaceMode::ShardLocal => {
                    self.package
                        .as_ref()
                        .and_then(|p| p.jam(ElementId(frame.header.elem_id)).ok())
                        .is_some_and(|j| j.cross_shard_writes)
                        || self.got_addresses_writable_data(&got)
                }
            };

            let exec = if use_exclusive {
                // Exclusive path: the whole map → execute → unmap window holds
                // the process-wide space lock (the PR-2 behaviour).
                let mut space = self.space.lock();
                space
                    .map(args_seg)
                    .map_err(|e| AmError::Exec(e.to_string()))?;
                if let Err(e) = space.map(usr_seg) {
                    space.unmap("msg.args");
                    return Err(AmError::Exec(e.to_string()));
                }
                let exec_result = run_image(
                    &image,
                    &got,
                    self.namespace.externs(),
                    &mut *space,
                    bus,
                    &vm_cfg,
                );
                space.unmap("msg.args");
                space.unmap("msg.usr");
                drop(space);
                exec_result?
            } else {
                // Shard-local path: per-message sections map into the shard's
                // own space; reads of ried rodata go through the Arc-shared
                // read-only base; writes land in the shard's private heap
                // instances. No lock anywhere on this path.
                shard_space
                    .local
                    .map(args_seg)
                    .map_err(|e| AmError::Exec(e.to_string()))?;
                if let Err(e) = shard_space.local.map(usr_seg) {
                    shard_space.local.unmap("msg.args");
                    return Err(AmError::Exec(e.to_string()));
                }
                let exec_result = run_image(
                    &image,
                    &got,
                    self.namespace.externs(),
                    shard_space,
                    bus,
                    &vm_cfg,
                );
                shard_space.local.unmap("msg.args");
                shard_space.local.unmap("msg.usr");
                exec_result?
            };
            exec_time = exec.total_time();
            handler_time += exec_time;
            result = exec.result;
            stats.superinstructions_executed += exec.superinstructions;
            exec_stats = Some(exec);
            stats.executions += 1;
            match mode {
                InvocationMode::Injected => stats.injected_executions += 1,
                InvocationMode::Local => stats.local_executions += 1,
            }

            // 5b. Continuation stages. Jam k's result registers feed jam k+1's
            // entry registers through the per-chain context cell: the running
            // result is stored there (one charged 8-byte write), the next stage
            // is resolved through the Local Function library and dispatched for
            // the per-stage table-lookup cost — no new frame, no new wait, no
            // re-parse. The frame retires only once the whole chain has run,
            // so a failing stage propagates ChainStageFailed into the
            // ordinary rejection path: the frame is retired as a whole, one
            // `frames_rejected`, one credit.
            if let Some(chain) = frame.chain.filter(|c| !c.is_empty()) {
                let ctx_base = CHAIN_CTX_BASE + core as u64 * CHAIN_CTX_STRIDE;
                for (idx, stage) in chain.stages().iter().enumerate() {
                    let fail = |reason: String| AmError::ChainStageFailed { stage: idx, reason };
                    let entry = self
                        .local_lib
                        .get(&stage.elem_id)
                        .ok_or_else(|| fail(AmError::UnknownElement(stage.elem_id).to_string()))?;
                    // Per-stage dispatch: a function-pointer table lookup by
                    // element id, exactly the Local Function dispatch cost.
                    handler_time += SimTime::from_ns_f64(self.config.local_dispatch_ns);
                    // Publish the running result into the chain context cell.
                    handler_time += bus.access(core, ctx_base, 8, AccessKind::Write);
                    // Entry-register contract (see `runtime` module docs): the
                    // default Result map hands the stage the context cell where
                    // a standalone send would hand it the ARGS block, so a
                    // stage observes bit-identical operands either way.
                    let entry_regs = match stage.map {
                        ChainArgMap::Result => [ctx_base, usr_base, frame.usr.len() as u64],
                        ChainArgMap::KeepArgs => [args_base, ctx_base, 8],
                    };
                    let ctx_seg = Segment::new(
                        "chain.ctx",
                        ctx_base,
                        result.to_le_bytes().to_vec(),
                        true,
                        SegmentKind::Args,
                    );
                    let stage_args = Segment::new(
                        "chain.args",
                        args_base,
                        frame.args.to_vec(),
                        args_writable,
                        SegmentKind::Args,
                    );
                    let stage_usr = Segment::new(
                        "chain.usr",
                        usr_base,
                        frame.usr.to_vec(),
                        usr_writable,
                        SegmentKind::Payload,
                    );
                    let exec = self
                        .execute_chain_stage(
                            shard_space,
                            bus,
                            core,
                            stage.elem_id,
                            entry,
                            [ctx_seg, stage_args, stage_usr],
                            entry_regs,
                        )
                        .map_err(|e| fail(e.to_string()))?;
                    exec_time += exec.total_time();
                    handler_time += exec.total_time();
                    result = exec.result;
                    stats.superinstructions_executed += exec.superinstructions;
                    stats.executions += 1;
                    stats.local_executions += 1;
                    stats.chain_stages_executed += 1;
                }
                stats.chain_frames += 1;
            }
        }

        Ok(DispatchedFrame {
            handler_time,
            exec_time,
            result,
            exec_stats,
        })
    }

    /// Whether a resolved GOT image holds a `Data` reference into the
    /// canonical address range of a writable ried object (only the exclusive
    /// space maps those addresses; see `writable_ranges`).
    fn got_addresses_writable_data(&self, got: &GotImage) -> bool {
        if self.writable_ranges.is_empty() {
            return false;
        }
        (0..got.len()).any(|slot| match got.get(slot) {
            twochains_jamvm::ExternRef::Data(addr) => self
                .writable_ranges
                .iter()
                .any(|&(start, end)| addr >= start && addr < end),
            _ => false,
        })
    }

    /// Execute one continuation stage of a chain: map the stage's view of the
    /// frame (`chain.ctx`, `chain.args`, `chain.usr` — fresh copies, so stages
    /// cannot corrupt the primary's retired sections) into the same space the
    /// primary's routing rules pick, run the Local Function entry, and unmap.
    /// The space split mirrors the primary dispatch exactly: exclusive mode
    /// (or a stage declaring cross-shard writes, or a GOT addressing writable
    /// canonical state) takes the process-wide lock for its whole
    /// map → execute → unmap window; everything else runs lock-free against
    /// the shard's own space.
    #[allow(clippy::too_many_arguments)]
    fn execute_chain_stage(
        &self,
        shard_space: &mut ShardSpace,
        bus: &mut CoreBus,
        core: usize,
        elem_id: u32,
        entry: &LocalEntry,
        segs: [Segment; 3],
        entry_regs: [u64; 3],
    ) -> AmResult<ExecStats> {
        const NAMES: [&str; 3] = ["chain.ctx", "chain.args", "chain.usr"];
        let vm_cfg = VmConfig {
            core,
            code_base: entry.code_base,
            fuel: 50_000_000,
            freq_ghz: self.config.wait_model.core_freq_ghz,
            ipc: 2.0,
            extern_call_overhead: SimTime::from_ns(6),
            entry_regs,
        };
        // Continuation stages are Local Function entries, pre-lowered at
        // install time — the policy split costs no per-stage work either way.
        let image = match self.config.execution_policy {
            ExecutionPolicy::Resolved => ExecImage::Resolved(Arc::clone(&entry.resolved)),
            ExecutionPolicy::Interpret => ExecImage::Interpreted(Arc::clone(&entry.program)),
        };
        let use_exclusive = match self.config.space_mode {
            SpaceMode::Exclusive => true,
            SpaceMode::ShardLocal => {
                self.package
                    .as_ref()
                    .and_then(|p| p.jam(ElementId(elem_id)).ok())
                    .is_some_and(|j| j.cross_shard_writes)
                    || self.got_addresses_writable_data(&entry.got)
            }
        };
        // Map with rollback: a partial mapping must never outlive the stage.
        fn map_all(space: &mut AddressSpace, segs: [Segment; 3]) -> AmResult<()> {
            for (i, seg) in segs.into_iter().enumerate() {
                if let Err(e) = space.map(seg) {
                    for name in &NAMES[..i] {
                        space.unmap(name);
                    }
                    return Err(AmError::Exec(e.to_string()));
                }
            }
            Ok(())
        }
        if use_exclusive {
            let mut space = self.space.lock();
            map_all(&mut space, segs)?;
            let exec_result = run_image(
                &image,
                &entry.got,
                self.namespace.externs(),
                &mut *space,
                bus,
                &vm_cfg,
            );
            for name in NAMES {
                space.unmap(name);
            }
            Ok(exec_result?)
        } else {
            map_all(&mut shard_space.local, segs)?;
            let exec_result = run_image(
                &image,
                &entry.got,
                self.namespace.externs(),
                shard_space,
                bus,
                &vm_cfg,
            );
            for name in NAMES {
                shard_space.local.unmap(name);
            }
            Ok(exec_result?)
        }
    }

    /// Resolve the GOT image of an injected frame, through the shared GOT caches.
    #[allow(clippy::too_many_arguments)]
    fn injected_got(
        &self,
        cache: &InjectionCache,
        stats: &mut RuntimeStats,
        bus: &mut CoreBus,
        core: usize,
        frame: &FrameView<'_>,
        mailbox_base: u64,
        handler_time: &mut SimTime,
    ) -> AmResult<Arc<GotImage>> {
        let elem_id = frame.header.elem_id;
        if self.config.security.accept_sender_got {
            // Hash (and, on a candidate hit, compare) the sender-provided image in
            // place; like the code hash this streams the arrived bytes, so it is
            // charged as a read of the section wherever the frame landed.
            *handler_time += SimTime::from_ns_f64(frame.got.len() as f64 * HASH_NS_PER_BYTE);
            *handler_time += bus.access(
                core,
                mailbox_base + frame.got_offset() as u64,
                frame.got.len().max(1),
                AccessKind::Read,
            );
            let key = (elem_id, hash64_bytes(frame.got));
            if let Some(image) = cache.lookup_sender_got(key, frame.got) {
                stats.got_cache_hits += 1;
                return Ok(image);
            }
            // Miss, or a 64-bit hash collision with different bytes: re-parse and
            // (re)place the entry.
            stats.got_cache_misses += 1;
            let image = Arc::new(
                GotImage::from_bytes(frame.got)
                    .ok_or_else(|| AmError::BadFrame("bad GOT image".into()))?,
            );
            *handler_time += SimTime::from_ns_f64(frame.got.len() as f64 * GOT_PARSE_NS_PER_BYTE);
            stats.got_cache_evictions += cache.store_sender_got(
                key,
                CachedGot {
                    bytes: frame.got.into(),
                    image: Arc::clone(&image),
                },
            );
            Ok(image)
        } else {
            // Hardened mode: ignore the sender's GOT, re-resolve locally. The cache
            // amortises the resolution *work* (building the slot vector), but the
            // policy's modelled per-message cost is charged on every message — the
            // hardening of §V is a per-message check, and the cost model must keep
            // saying so whether or not the host reuses the resolved image.
            if let Some(got) = cache.lookup_resolved_got(elem_id) {
                stats.got_cache_hits += 1;
                *handler_time += self.config.security.per_message_overhead(got.len());
                return Ok(got);
            }
            stats.got_cache_misses += 1;
            let pkg = self
                .package
                .as_ref()
                .ok_or(AmError::UnknownElement(elem_id))?;
            let jam = pkg.jam(ElementId(elem_id))?;
            *handler_time += self.config.security.per_message_overhead(jam.got.len());
            let got = Arc::new(self.namespace.resolve_got(&jam.got)?);
            stats.got_cache_evictions += cache.store_resolved_got(elem_id, Arc::clone(&got));
            Ok(got)
        }
    }

    /// Resolve the decoded program of an injected frame, through the shared code
    /// cache. Returns the program and its verifier floor (smallest GOT slot
    /// count it verifies against).
    #[allow(clippy::too_many_arguments)]
    fn injected_program(
        &self,
        cache: &InjectionCache,
        stats: &mut RuntimeStats,
        bus: &mut CoreBus,
        core: usize,
        frame: &FrameView<'_>,
        got_slots: usize,
        mailbox_base: u64,
        handler_time: &mut SimTime,
    ) -> AmResult<(Arc<[Instr]>, usize)> {
        let code_base = mailbox_base + frame.code_offset() as u64;
        // Content hash over the arrived code: the cache-key computation. The hash
        // streams every code byte through the receiver core, so it is charged as a
        // full read of the section — these reads hit the LLC when the frame was
        // stashed and go to DRAM otherwise, which keeps the stash benefit visible on
        // the warm path too (and leaves the lines hot for the VM's fetches).
        *handler_time += SimTime::from_ns_f64(frame.code.len() as f64 * HASH_NS_PER_BYTE);
        *handler_time += bus.access(core, code_base, frame.code.len().max(1), AccessKind::Read);
        let key = (frame.header.elem_id, hash64_bytes(frame.code));
        if let Some((program, min_got_slots)) = cache.lookup_program(key, frame.code) {
            // Verification depends on the GOT size, which varies per message: the
            // cached program must still fit inside *this* message's GOT, or a warm
            // hit would execute a program the cold path rejects.
            if got_slots < min_got_slots {
                return Err(AmError::BadFrame(format!(
                    "cached program references GOT slot {} but the message GOT has only {} slots",
                    min_got_slots - 1,
                    got_slots
                )));
            }
            stats.injected_code_cache_hits += 1;
            return Ok((program, min_got_slots));
        }
        // Miss, or a 64-bit hash collision with different bytes: re-decode and
        // (re)place the entry.
        stats.injected_code_cache_misses += 1;

        // Cold miss: the receiver walks the freshly arrived code (relocation check +
        // landing-pad setup), then decodes and verifies the bytecode before caching
        // the result. Together with the hash stream above, these reads are the
        // dominant term of the stash benefit for Injected Function messages
        // (Figs. 9–10).
        *handler_time += bus.access(core, code_base, frame.code.len().max(1), AccessKind::Fetch);
        let program = decode_program(frame.code).map_err(|e| AmError::BadFrame(e.to_string()))?;
        verify(&program, got_slots).map_err(|e| AmError::BadFrame(e.to_string()))?;
        *handler_time += SimTime::from_ns_f64(
            frame.code.len() as f64 * (DECODE_NS_PER_BYTE + VERIFY_NS_PER_BYTE),
        );
        // The smallest GOT this program verifies against: later hits re-check it
        // against their own message's GOT size in O(1).
        let min_got_slots = program
            .iter()
            .filter_map(|i| match *i {
                Instr::CallExtern { slot, .. } => Some(slot as usize + 1),
                _ => None,
            })
            .max()
            .unwrap_or(0);
        let program: Arc<[Instr]> = program.into();
        stats.injected_code_cache_evictions += cache.store_program(
            key,
            CachedProgram {
                code: frame.code.into(),
                program: Arc::clone(&program),
                min_got_slots,
            },
        );
        Ok((program, min_got_slots))
    }
}
