//! Tiered action cache: in-memory L1, persistent on-disk CAS L2, simulated remote L3.
//!
//! The paper's economics rest on specialization work being *reusable*; a memory-only
//! [`ActionCache`] forfeits that reuse the moment the orchestrator process exits. This
//! module stacks three tiers behind the one nonblocking [`CacheBackend`] flight
//! protocol the executor already speaks:
//!
//! ```text
//!                try_begin(key)
//!                      │
//!        ┌─────────────▼──────────────┐
//!        │  L1  ActionCache (memory)  │── Hit ──────────────► Hit(memory)
//!        └─────────────┬──────────────┘
//!                Owner │ (miss)                 ▲ promote (store + index + wake)
//!        ┌─────────────▼──────────────┐         │
//!        │  L2  DiskTier (blob CAS +  │── hit ──┘───────────► Hit(disk)
//!        │      index journal)        │
//!        └─────────────┬──────────────┘         ▲ promote (write-through to disk)
//!                      │ (miss)                 │
//!        ┌─────────────▼──────────────┐         │
//!        │  L3  RemoteCache (latency/ │── hit ──┘───────────► Hit(remote)
//!        │      bandwidth modeled)    │
//!        └─────────────┬──────────────┘
//!                      │ (miss)
//!                      ▼
//!             Owner(ticket) — caller computes; complete() writes through
//!             memory → disk → remote so every tier can serve the next request
//! ```
//!
//! * **Read-through with promotion:** a lower-tier hit is redeemed through the L1
//!   flight ticket, which stores the blob, indexes the key, and wakes every parked
//!   waiter — so a disk hit warms memory and a remote hit warms both disk and memory.
//! * **Verified reads:** a disk or remote hit is re-hashed against the content
//!   digest it was stored under; bytes that fail the check are dropped and served
//!   as a miss, and the recompute writes the correct bytes back.
//! * **Write-through:** [`CacheBackend::complete`] lands the computed output in every
//!   configured tier before retiring the flight.
//! * **Persistence:** the disk tier is a content-addressed blob directory plus an
//!   append-only index journal (in the style of OxidePM's derivation store and
//!   Bazel's disk cache). Reopening the same root after a process restart replays
//!   the journal, so a warm restart serves byte-identical outputs with zero
//!   recomputes.
//! * **Cross-process single-flight:** a true miss takes a `locks/<key>.lock` file
//!   (atomic `create_new`) before ownership is handed to the caller. A second
//!   builder process that misses on the same key waits (bounded) for the lock
//!   holder and then serves the freshly written disk blob instead of recomputing;
//!   stale locks left by crashed owners are broken after a timeout.
//! * **Eviction/GC per tier:** L1 keeps its FIFO index bound; the disk tier evicts
//!   oldest-first beyond a byte budget (deleting unreferenced blob files and
//!   journaling tombstones); [`TieredCache::collect_garbage`] runs the store-level
//!   blob sweep ([`ImageStore::collect_garbage`]) with the L1 index pinned.
//!
//! Per-tier effectiveness is visible in [`CacheStats`] (`disk_hits`, `remote_hits`,
//! `promotions`, `writebacks`) and per-action in `ActionTrace` records via
//! [`CacheBackend::try_begin_traced`].

use super::{
    ActionCache, BuildKey, CacheBackend, CacheConfigError, CacheStats, CacheTier, FlightError,
    FlightId, FlightOutcome, FlightTicket, FlightWaker, TryBegin,
};
use crate::blob::Blob;
use crate::digest::Digest;
use crate::image::{ImageStore, StoreGcReport};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Errors raised while opening or operating a cache tier.
#[derive(Debug)]
pub enum TierError {
    /// A filesystem operation under the disk-tier root failed.
    Io {
        /// The path the operation touched.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// The tier stack was misconfigured (e.g. a zero L1 capacity).
    Config(CacheConfigError),
}

impl std::fmt::Display for TierError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TierError::Io { path, source } => {
                write!(f, "disk tier I/O error at {}: {source}", path.display())
            }
            TierError::Config(error) => write!(f, "tier configuration rejected: {error}"),
        }
    }
}

impl std::error::Error for TierError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TierError::Io { source, .. } => Some(source),
            TierError::Config(error) => Some(error),
        }
    }
}

impl From<CacheConfigError> for TierError {
    fn from(error: CacheConfigError) -> Self {
        TierError::Config(error)
    }
}

fn io_err(path: &Path, source: std::io::Error) -> TierError {
    TierError::Io {
        path: path.to_path_buf(),
        source,
    }
}

/// Configuration of the persistent on-disk tier.
#[derive(Debug, Clone)]
pub struct DiskTierConfig {
    root: PathBuf,
    capacity_bytes: Option<u64>,
    lock_timeout: Duration,
    lock_poll: Duration,
}

impl DiskTierConfig {
    /// A disk tier rooted at `root` (created if absent), unbounded, with a 2 s
    /// cross-process lock timeout.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        Self {
            root: root.into(),
            capacity_bytes: None,
            lock_timeout: Duration::from_secs(2),
            lock_poll: Duration::from_millis(2),
        }
    }

    /// Bound the tier to `bytes` of blob payload; oldest entries are evicted beyond it.
    pub fn capacity_bytes(mut self, bytes: u64) -> Self {
        self.capacity_bytes = Some(bytes);
        self
    }

    /// How long a missing-everywhere lookup waits for another process's lock before
    /// breaking it (crash recovery) and computing itself.
    pub fn lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// The cache root this tier persists under.
    pub fn root(&self) -> &Path {
        &self.root
    }
}

/// Counters for the disk tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiskTierStats {
    /// Keys currently indexed on disk.
    pub entries: usize,
    /// Blob payload bytes currently on disk.
    pub bytes: u64,
    /// Entries evicted to respect the byte budget.
    pub evictions: u64,
    /// Index entries dropped because their blob file was missing, unreadable, or
    /// held bytes that no longer match the indexed content digest (journal replay
    /// after a crash, or files removed or corrupted behind our back).
    pub stale_drops: u64,
    /// Misses that were answered by waiting on (and then reading behind) another
    /// process's lock file instead of recomputing.
    pub lock_waits: u64,
    /// Stale lock files broken after `lock_timeout` (crashed owner recovery).
    pub locks_broken: u64,
}

#[derive(Clone)]
struct DiskEntry {
    content: Digest,
    len: u64,
}

struct DiskState {
    index: BTreeMap<String, DiskEntry>,
    /// Insertion order of key digests for oldest-first eviction.
    order: VecDeque<String>,
    bytes: u64,
    journal: fs::File,
    /// How far into `index.log` this instance has replayed. Another process
    /// appending to the shared journal moves the file past this offset; catching
    /// up from here (see [`DiskTier::refresh_from_journal`]) is how one builder
    /// process observes entries a concurrent builder published.
    journal_offset: u64,
    evictions: u64,
    stale_drops: u64,
    lock_waits: u64,
    locks_broken: u64,
}

/// The persistent on-disk CAS tier: digest-named blob files plus an append-only
/// index journal, surviving process restarts. See the module docs for the layout.
pub struct DiskTier {
    config: DiskTierConfig,
    state: Mutex<DiskState>,
}

/// An exclusive cross-process claim on one key, backed by a `locks/<key>.lock`
/// file. Dropping the guard releases the claim (removes the file).
struct DiskLock {
    path: PathBuf,
}

impl Drop for DiskLock {
    fn drop(&mut self) {
        let _ = fs::remove_file(&self.path);
    }
}

/// Outcome of a non-blocking lock attempt.
enum LockAttempt {
    /// This caller now holds the key's lock.
    Acquired(DiskLock),
    /// Another process holds it.
    Held,
}

impl DiskTier {
    /// Open (or create) the tier under `config.root`, replaying the index journal.
    ///
    /// Journal entries whose blob file no longer exists are dropped — counted in
    /// [`DiskTierStats::stale_drops`] — so the in-memory index always reflects what
    /// the directory can actually serve.
    pub fn open(config: DiskTierConfig) -> Result<Self, TierError> {
        let blobs = config.root.join("blobs");
        let locks = config.root.join("locks");
        fs::create_dir_all(&blobs).map_err(|e| io_err(&blobs, e))?;
        fs::create_dir_all(&locks).map_err(|e| io_err(&locks, e))?;
        let journal_path = config.root.join("index.log");
        let mut index = BTreeMap::new();
        let mut order = VecDeque::new();
        let mut stale_drops = 0u64;
        let mut journal_offset = 0u64;
        if let Ok(text) = fs::read_to_string(&journal_path) {
            // Replay complete lines only; a torn tail (crash mid-append) is left
            // before the offset so a later catch-up re-reads it once finished.
            let complete = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
            for line in text[..complete].lines() {
                Self::apply_journal_line(line, &mut index, &mut order);
            }
            journal_offset = complete as u64;
        }
        // Drop replayed entries whose blob file went missing (crash between journal
        // append and file rename, or an external cleanup).
        let missing: Vec<String> = index
            .iter()
            .filter(|(_, entry)| !blobs.join(entry.content.hex()).is_file())
            .map(|(key, _)| key.clone())
            .collect();
        for key in &missing {
            index.remove(key);
            order.retain(|k| k != key);
            stale_drops += 1;
        }
        let bytes = index.values().map(|e| e.len).sum();
        let journal = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&journal_path)
            .map_err(|e| io_err(&journal_path, e))?;
        Ok(Self {
            config,
            state: Mutex::new(DiskState {
                index,
                order,
                bytes,
                journal,
                journal_offset,
                evictions: 0,
                stale_drops,
                lock_waits: 0,
                locks_broken: 0,
            }),
        })
    }

    /// Apply one journal line to an index. `put` lines for an already-indexed key
    /// replace the entry without consuming a second FIFO slot; malformed or torn
    /// lines are skipped.
    fn apply_journal_line(
        line: &str,
        index: &mut BTreeMap<String, DiskEntry>,
        order: &mut VecDeque<String>,
    ) {
        let mut fields = line.split_whitespace();
        match fields.next() {
            Some("put") => {
                let (Some(key), Some(content), Some(len)) =
                    (fields.next(), fields.next(), fields.next())
                else {
                    return;
                };
                let (Ok(content), Ok(len)) = (Digest::parse(content), len.parse::<u64>()) else {
                    return;
                };
                if index
                    .insert(key.to_string(), DiskEntry { content, len })
                    .is_none()
                {
                    order.push_back(key.to_string());
                }
            }
            Some("del") => {
                if let Some(key) = fields.next() {
                    if index.remove(key).is_some() {
                        order.retain(|k| k != key);
                    }
                }
            }
            _ => {}
        }
    }

    /// Catch up on journal lines appended since this instance last looked —
    /// including by *other processes* sharing the root. Replaying is idempotent:
    /// our own already-applied lines re-apply as no-ops (the put/del sequence in
    /// the journal is exactly the sequence our in-memory index followed).
    fn refresh_from_journal(&self, state: &mut DiskState) {
        use std::io::{Read as _, Seek as _, SeekFrom};
        let path = self.config.root.join("index.log");
        let Ok(mut file) = fs::File::open(&path) else {
            return;
        };
        if file.seek(SeekFrom::Start(state.journal_offset)).is_err() {
            return;
        }
        let mut text = String::new();
        if file.read_to_string(&mut text).is_err() {
            return;
        }
        let complete = text.rfind('\n').map(|i| i + 1).unwrap_or(0);
        if complete == 0 {
            return;
        }
        for line in text[..complete].lines() {
            Self::apply_journal_line(line, &mut state.index, &mut state.order);
        }
        state.journal_offset += complete as u64;
        state.bytes = state.index.values().map(|e| e.len).sum();
    }

    fn blob_path(&self, content: &Digest) -> PathBuf {
        self.config.root.join("blobs").join(content.hex())
    }

    fn lock_path(&self, key: &Digest) -> PathBuf {
        self.config
            .root
            .join("locks")
            .join(format!("{}.lock", key.hex()))
    }

    /// Whether the tier currently indexes `key`.
    pub fn contains(&self, key: &Digest) -> bool {
        self.state.lock().index.contains_key(key.hex())
    }

    /// Read the output for `key`, verified against the indexed content digest.
    ///
    /// When the blob file is gone, unreadable or holds other bytes, the entry is
    /// dropped (a stale drop, journaled as `del`) and a corrupt file is removed, so
    /// the recompute's [`DiskTier::store`] writes it afresh. I/O failures degrade to
    /// a miss, never an error: the caller simply recomputes.
    ///
    /// A key absent from the in-memory index triggers a journal catch-up first, so
    /// an entry published by a concurrent builder process is found rather than
    /// recomputed.
    pub fn load(&self, key: &Digest) -> Option<Vec<u8>> {
        let entry = {
            let mut state = self.state.lock();
            if !state.index.contains_key(key.hex()) {
                self.refresh_from_journal(&mut state);
            }
            state.index.get(key.hex()).cloned()?
        };
        let path = self.blob_path(&entry.content);
        if let Ok(bytes) = fs::read(&path) {
            if Digest::of_bytes(&bytes) == entry.content {
                return Some(bytes);
            }
            let _ = fs::remove_file(&path);
        }
        let mut state = self.state.lock();
        if state.index.remove(key.hex()).is_some() {
            let hex = key.hex().to_string();
            state.order.retain(|k| k != &hex);
            state.bytes = state.bytes.saturating_sub(entry.len);
            state.stale_drops += 1;
            let _ = writeln!(state.journal, "del {hex}");
        }
        None
    }

    /// Persist `bytes` (content digest `content`) as the output for `key`.
    ///
    /// The blob file is written to a temp name and renamed into place so a crash
    /// never leaves a half-written digest-named file; the journal records the index
    /// entry afterwards. I/O failures are swallowed — the tier degrades to a miss.
    pub fn store(&self, key: &Digest, content: &Digest, bytes: &[u8]) {
        let mut state = self.state.lock();
        if state
            .index
            .get(key.hex())
            .is_some_and(|e| e.content == *content)
        {
            return; // idempotent re-store
        }
        let path = self.blob_path(content);
        if !path.is_file() {
            let tmp = path.with_extension(format!("tmp.{}", std::process::id()));
            if fs::write(&tmp, bytes)
                .and_then(|()| fs::rename(&tmp, &path))
                .is_err()
            {
                let _ = fs::remove_file(&tmp);
                return;
            }
        }
        let hex = key.hex().to_string();
        let entry = DiskEntry {
            content: content.clone(),
            len: bytes.len() as u64,
        };
        if let Some(previous) = state.index.insert(hex.clone(), entry) {
            // Same key, new content: keep the single order slot, adjust the byte count.
            state.bytes = state.bytes.saturating_sub(previous.len);
        } else {
            state.order.push_back(hex.clone());
        }
        state.bytes += bytes.len() as u64;
        let _ = writeln!(state.journal, "put {hex} {content} {}", bytes.len());
        self.enforce_capacity(&mut state);
    }

    /// Evict oldest-first until the byte budget holds, deleting blob files no other
    /// index entry references and journaling a tombstone per eviction.
    fn enforce_capacity(&self, state: &mut DiskState) {
        let Some(capacity) = self.config.capacity_bytes else {
            return;
        };
        while state.bytes > capacity && state.index.len() > 1 {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            let Some(entry) = state.index.remove(&oldest) else {
                continue;
            };
            state.bytes = state.bytes.saturating_sub(entry.len);
            state.evictions += 1;
            let _ = writeln!(state.journal, "del {oldest}");
            let still_referenced = state.index.values().any(|e| e.content == entry.content);
            if !still_referenced {
                let _ = fs::remove_file(self.blob_path(&entry.content));
            }
        }
    }

    /// Try to claim the cross-process lock for `key` without waiting. A lock file
    /// older than `lock_timeout` is treated as abandoned by a crashed owner and
    /// broken.
    fn try_lock(&self, key: &Digest) -> LockAttempt {
        let path = self.lock_path(key);
        for _ in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(&path)
            {
                Ok(mut file) => {
                    let _ = writeln!(file, "{}", std::process::id());
                    return LockAttempt::Acquired(DiskLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                    let stale = fs::metadata(&path)
                        .and_then(|m| m.modified())
                        .ok()
                        .and_then(|t| t.elapsed().ok())
                        .is_some_and(|age| age > self.config.lock_timeout);
                    if !stale {
                        return LockAttempt::Held;
                    }
                    self.state.lock().locks_broken += 1;
                    let _ = fs::remove_file(&path);
                    // Retry the create_new once after breaking the stale lock.
                }
                Err(_) => return LockAttempt::Held,
            }
        }
        LockAttempt::Held
    }

    /// A snapshot of the tier's counters.
    pub fn stats(&self) -> DiskTierStats {
        let state = self.state.lock();
        DiskTierStats {
            entries: state.index.len(),
            bytes: state.bytes,
            evictions: state.evictions,
            stale_drops: state.stale_drops,
            lock_waits: state.lock_waits,
            locks_broken: state.locks_broken,
        }
    }
}

/// The cost model of the simulated remote cache: a per-round-trip latency plus a
/// bandwidth term, accounted (not slept) into [`RemoteStats::simulated_micros`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteModel {
    /// Fixed cost per GET/PUT round trip, in microseconds.
    pub round_trip_micros: u64,
    /// Transfer rate in bytes per microsecond (1 byte/µs = ~0.95 MiB/s).
    pub bytes_per_micro: u64,
}

impl Default for RemoteModel {
    /// A LAN-ish Bazel-remote-cache profile: 2 ms round trips at ~100 MB/s.
    fn default() -> Self {
        Self {
            round_trip_micros: 2_000,
            bytes_per_micro: 100,
        }
    }
}

impl RemoteModel {
    fn transfer_micros(&self, bytes: u64) -> u64 {
        self.round_trip_micros + bytes / self.bytes_per_micro.max(1)
    }
}

/// Counters for the simulated remote tier.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RemoteStats {
    /// GET requests served from the remote store.
    pub hits: u64,
    /// GET requests the remote store could not answer.
    pub misses: u64,
    /// PUT requests (write-through uploads).
    pub puts: u64,
    /// Payload bytes downloaded by hits.
    pub bytes_down: u64,
    /// Payload bytes uploaded by puts.
    pub bytes_up: u64,
    /// Modeled wire time of all transfers, per [`RemoteModel`].
    pub simulated_micros: u64,
    /// Objects currently held by the remote store.
    pub objects: usize,
    /// Objects dropped because their bytes no longer matched the content digest
    /// recorded when they were published (served as misses).
    #[serde(default)]
    pub stale_drops: u64,
}

#[derive(Default)]
struct RemoteInner {
    /// Published outputs by key hex, with the content digest they were put under.
    objects: BTreeMap<String, (Digest, Blob)>,
    stats: RemoteStats,
}

/// A simulated Bazel-style remote action cache.
///
/// Cloning shares the underlying object store, so a fleet of builder machines
/// (multiple [`TieredCache`] stacks) can publish to and read from one remote — the
/// "acceleration as a service" sharing shape. Transfers are latency/bandwidth
/// *modeled*: their cost accumulates in [`RemoteStats::simulated_micros`] instead of
/// sleeping, keeping experiments deterministic and fast.
#[derive(Clone, Default)]
pub struct RemoteCache {
    inner: std::sync::Arc<Mutex<RemoteInner>>,
    model: RemoteModel,
}

impl RemoteCache {
    /// An empty remote with the given cost model.
    pub fn new(model: RemoteModel) -> Self {
        Self {
            inner: Default::default(),
            model,
        }
    }

    /// Fetch the output for `key`, accounting the modeled transfer.
    ///
    /// The downloaded bytes are verified against the content digest they were
    /// published under. An object that fails the check is dropped (counted in
    /// [`RemoteStats::stale_drops`]) and served as a miss, so the caller recomputes
    /// and its write-through publishes the output afresh.
    pub fn get(&self, key: &Digest) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock();
        match inner.objects.get(key.hex()).cloned() {
            Some((content, blob)) => {
                inner.stats.bytes_down += blob.len() as u64;
                inner.stats.simulated_micros += self.model.transfer_micros(blob.len() as u64);
                if Digest::of_bytes(&blob) == content {
                    inner.stats.hits += 1;
                    return Some(blob.to_vec());
                }
                inner.objects.remove(key.hex());
                inner.stats.stale_drops += 1;
                inner.stats.misses += 1;
                None
            }
            None => {
                inner.stats.misses += 1;
                inner.stats.simulated_micros += self.model.round_trip_micros;
                None
            }
        }
    }

    /// Publish `bytes` (content digest `content`) as the output for `key`,
    /// accounting the modeled transfer.
    pub fn put(&self, key: &Digest, content: &Digest, bytes: &[u8]) {
        let mut inner = self.inner.lock();
        inner.stats.puts += 1;
        inner.stats.bytes_up += bytes.len() as u64;
        inner.stats.simulated_micros += self.model.transfer_micros(bytes.len() as u64);
        inner
            .objects
            .entry(key.hex().to_string())
            .or_insert_with(|| (content.clone(), Blob::new(bytes.to_vec())));
    }

    /// A snapshot of the remote counters.
    pub fn stats(&self) -> RemoteStats {
        let inner = self.inner.lock();
        RemoteStats {
            objects: inner.objects.len(),
            ..inner.stats
        }
    }
}

impl std::fmt::Debug for RemoteCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RemoteCache")
            .field("model", &self.model)
            .field("stats", &self.stats())
            .finish()
    }
}

/// Configuration of a [`TieredCache`] stack. Every tier below L1 is optional, so
/// `TierConfig::new()` alone is just a plain in-memory cache behind the tiered API.
#[derive(Debug, Clone, Default)]
pub struct TierConfig {
    l1_capacity: Option<usize>,
    disk: Option<DiskTierConfig>,
    remote: Option<RemoteCache>,
}

impl TierConfig {
    /// An L1-only stack: no disk root, no remote.
    pub fn new() -> Self {
        Self::default()
    }

    /// Bound the in-memory L1 index to `entries` (FIFO eviction beyond it).
    pub fn l1_capacity(mut self, entries: usize) -> Self {
        self.l1_capacity = Some(entries);
        self
    }

    /// Attach a persistent disk tier rooted at `root` with default settings.
    pub fn disk_root(self, root: impl Into<PathBuf>) -> Self {
        self.disk(DiskTierConfig::new(root))
    }

    /// Attach a persistent disk tier with explicit settings.
    pub fn disk(mut self, disk: DiskTierConfig) -> Self {
        self.disk = Some(disk);
        self
    }

    /// Attach a (shared, simulated) remote tier.
    pub fn remote(mut self, remote: RemoteCache) -> Self {
        self.remote = Some(remote);
        self
    }

    /// Override the disk tier's byte budget, if a disk tier is configured.
    /// Service-level limits use this to cap a tenant-facing stack.
    pub fn cap_disk_bytes(mut self, bytes: u64) -> Self {
        if let Some(disk) = self.disk.take() {
            self.disk = Some(disk.capacity_bytes(bytes));
        }
        self
    }

    /// Whether this configuration includes a persistent disk tier.
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }
}

/// What one [`TieredCache::collect_garbage`] sweep did across the tiers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TierGcReport {
    /// The store-level blob sweep (L1's backing CAS).
    pub store: StoreGcReport,
    /// Disk-tier entries surviving the sweep.
    pub disk_entries: usize,
    /// Disk-tier payload bytes surviving the sweep.
    pub disk_bytes: u64,
}

#[derive(Default)]
struct TierCounters {
    disk_hits: u64,
    remote_hits: u64,
    promotions: u64,
    writebacks: u64,
}

/// A three-tier [`CacheBackend`]: read-through memory → disk → remote with
/// write-through completion and promotion on lower-tier hits. See the module docs
/// for the protocol walk.
///
/// All single-flight machinery (tickets, parking, poisoning, coalescing) is
/// delegated to the L1 [`ActionCache`]; the lower tiers only ever answer
/// synchronous probes while the L1 flight for the key is held open, so in-process
/// racers coalesce exactly as they do on a single-tier cache.
pub struct TieredCache {
    l1: ActionCache,
    disk: Option<DiskTier>,
    remote: Option<RemoteCache>,
    counters: Mutex<TierCounters>,
    /// Cross-process lock files held by open flights, released on complete/fail.
    held_locks: Mutex<BTreeMap<String, DiskLock>>,
}

impl TieredCache {
    /// Build the stack over `store` per `config`, opening (and replaying) the disk
    /// tier when one is configured.
    pub fn new(store: ImageStore, config: TierConfig) -> Result<Self, TierError> {
        let l1 = match config.l1_capacity {
            Some(capacity) => ActionCache::with_capacity(store, capacity)?,
            None => ActionCache::new(store),
        };
        let disk = config.disk.map(DiskTier::open).transpose()?;
        Ok(Self {
            l1,
            disk,
            remote: config.remote,
            counters: Mutex::new(TierCounters::default()),
            held_locks: Mutex::new(BTreeMap::new()),
        })
    }

    /// The in-memory L1 cache (shared flight state and counters).
    pub fn l1(&self) -> &ActionCache {
        &self.l1
    }

    /// Disk-tier counters, when a disk tier is configured.
    pub fn disk_stats(&self) -> Option<DiskTierStats> {
        self.disk.as_ref().map(|d| d.stats())
    }

    /// Remote-tier counters, when a remote tier is configured.
    pub fn remote_stats(&self) -> Option<RemoteStats> {
        self.remote.as_ref().map(|r| r.stats())
    }

    /// Run store-level blob GC with every L1-indexed action output pinned, so the
    /// sweep reclaims orphaned intermediates without invalidating live cache
    /// entries. Returns what each tier holds afterwards.
    pub fn collect_garbage(&self) -> TierGcReport {
        let pinned = self.l1.indexed_blobs();
        let store = self.l1.store().collect_garbage(&pinned);
        let disk = self.disk_stats().unwrap_or_default();
        TierGcReport {
            store,
            disk_entries: disk.entries,
            disk_bytes: disk.bytes,
        }
    }

    /// Serve a lower-tier hit through the open L1 ticket: the redeem stores the
    /// blob, indexes the key, wakes coalesced waiters, and hands back the shared
    /// handle — the promotion into memory.
    fn promote(&self, ticket: FlightTicket, bytes: Vec<u8>) -> Blob {
        self.release_lock(&ticket.digest);
        self.l1.complete(ticket, bytes)
    }

    fn release_lock(&self, key: &Digest) {
        self.held_locks.lock().remove(key.hex());
    }

    /// On a miss in every tier, claim the cross-process lock before taking
    /// ownership. If another *process* holds it, wait (bounded by the tier's lock
    /// timeout) for it to publish the output to disk and serve that instead of
    /// recomputing; a lock that never resolves is broken and ownership taken.
    ///
    /// Returns `Some(bytes)` when the wait ended in another process's freshly
    /// written output (a disk hit), `None` when this caller now owns the key.
    fn claim_or_wait(&self, disk: &DiskTier, key: &Digest) -> Option<Vec<u8>> {
        {
            let mut held = self.held_locks.lock();
            if held.contains_key(key.hex()) {
                // A previous flight of ours (poisoned owner) left the lock in
                // place; reuse the claim for the retry.
                return None;
            }
            if let LockAttempt::Acquired(lock) = disk.try_lock(key) {
                held.insert(key.hex().to_string(), lock);
                return None;
            }
        }
        // Another process is computing this key. Poll for its result: the blob
        // landing on disk or the lock dissolving, whichever first.
        let deadline = Instant::now() + disk.config.lock_timeout;
        loop {
            std::thread::sleep(disk.config.lock_poll);
            if let Some(bytes) = disk.load(key) {
                disk.state.lock().lock_waits += 1;
                return Some(bytes);
            }
            let mut held = self.held_locks.lock();
            match disk.try_lock(key) {
                LockAttempt::Acquired(lock) => {
                    // The other owner released (or its stale lock was broken):
                    // one final disk probe under our claim, then own the compute.
                    drop(held.insert(key.hex().to_string(), lock));
                    drop(held);
                    if let Some(bytes) = disk.load(key) {
                        disk.state.lock().lock_waits += 1;
                        self.release_lock(key);
                        return Some(bytes);
                    }
                    return None;
                }
                LockAttempt::Held if Instant::now() >= deadline => {
                    // The holder outlived our patience and never published:
                    // compute locally without the lock rather than stall forever.
                    return None;
                }
                LockAttempt::Held => {}
            }
        }
    }
}

impl CacheBackend for TieredCache {
    fn store(&self) -> &ImageStore {
        self.l1.store()
    }

    fn try_begin(&self, key: &BuildKey) -> TryBegin {
        self.try_begin_traced(key).0
    }

    fn try_begin_traced(&self, key: &BuildKey) -> (TryBegin, Option<CacheTier>) {
        let ticket = match self.l1.try_begin(key) {
            TryBegin::Hit(blob) => return (TryBegin::Hit(blob), Some(CacheTier::Memory)),
            TryBegin::InFlight(id) => return (TryBegin::InFlight(id), None),
            TryBegin::Owner(ticket) => ticket,
        };
        let digest = key.digest();
        if let Some(disk) = &self.disk {
            if let Some(bytes) = disk.load(&digest) {
                let mut counters = self.counters.lock();
                counters.disk_hits += 1;
                counters.promotions += 1; // disk → memory
                drop(counters);
                return (
                    TryBegin::Hit(self.promote(ticket, bytes)),
                    Some(CacheTier::Disk),
                );
            }
        }
        if let Some(remote) = &self.remote {
            if let Some(bytes) = remote.get(&digest) {
                let mut promotions = 1; // remote → memory
                if let Some(disk) = &self.disk {
                    disk.store(&digest, &Digest::of_bytes(&bytes), &bytes);
                    promotions += 1; // remote → disk
                }
                let mut counters = self.counters.lock();
                counters.remote_hits += 1;
                counters.promotions += promotions;
                drop(counters);
                return (
                    TryBegin::Hit(self.promote(ticket, bytes)),
                    Some(CacheTier::Remote),
                );
            }
        }
        if let Some(disk) = &self.disk {
            if let Some(bytes) = self.claim_or_wait(disk, &digest) {
                // Another process computed the key while we waited on its lock.
                let mut counters = self.counters.lock();
                counters.disk_hits += 1;
                counters.promotions += 1;
                drop(counters);
                return (
                    TryBegin::Hit(self.promote(ticket, bytes)),
                    Some(CacheTier::Disk),
                );
            }
        }
        (TryBegin::Owner(ticket), None)
    }

    fn complete(&self, ticket: FlightTicket, bytes: Vec<u8>) -> Blob {
        let mut writebacks = 0u64;
        if self.disk.is_some() || self.remote.is_some() {
            let content = Digest::of_bytes(&bytes);
            if let Some(disk) = &self.disk {
                disk.store(&ticket.digest, &content, &bytes);
                writebacks += 1;
            }
            if let Some(remote) = &self.remote {
                remote.put(&ticket.digest, &content, &bytes);
                writebacks += 1;
            }
        }
        if writebacks > 0 {
            self.counters.lock().writebacks += writebacks;
        }
        self.release_lock(&ticket.digest);
        self.l1.complete(ticket, bytes)
    }

    fn fail(&self, ticket: FlightTicket, error: FlightError) {
        self.release_lock(&ticket.digest);
        self.l1.fail(ticket, error);
    }

    fn park(&self, flight: &FlightId, waker: FlightWaker) -> Option<FlightOutcome> {
        self.l1.park(flight, waker)
    }

    fn backend_stats(&self) -> CacheStats {
        let mut stats = self.l1.stats();
        let counters = self.counters.lock();
        // Lower-tier hits were redeemed through an L1 flight, which counted them as
        // L1 misses; from the stack's point of view they are hits on their tier.
        stats.hits += counters.disk_hits + counters.remote_hits;
        stats.misses = stats
            .misses
            .saturating_sub(counters.disk_hits + counters.remote_hits);
        stats.disk_hits = counters.disk_hits;
        stats.remote_hits = counters.remote_hits;
        stats.promotions = counters.promotions;
        stats.writebacks = counters.writebacks;
        if let Some(disk) = &self.disk {
            stats.stale_evictions += disk.stats().stale_drops;
        }
        if let Some(remote) = &self.remote {
            stats.stale_evictions += remote.stats().stale_drops;
        }
        stats
    }
}

impl std::fmt::Debug for TieredCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TieredCache")
            .field("stats", &self.backend_stats())
            .field("disk", &self.disk_stats())
            .field("remote", &self.remote_stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn key(n: u32) -> BuildKey {
        BuildKey::new(
            format!("tu{n}"),
            "x86-avx2",
            "defs=;openmp=true;opt=O3",
            "xirc",
        )
    }

    /// A unique, self-cleaning temp root per test (no tempfile crate in-tree).
    struct TempRoot(PathBuf);

    impl TempRoot {
        fn new(tag: &str) -> Self {
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let n = COUNTER.fetch_add(1, Ordering::Relaxed);
            let path =
                std::env::temp_dir().join(format!("xaas-tier-{tag}-{}-{n}", std::process::id()));
            let _ = fs::remove_dir_all(&path);
            Self(path)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for TempRoot {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn compute_once(
        cache: &TieredCache,
        key: &BuildKey,
        payload: &[u8],
    ) -> (Blob, Option<CacheTier>) {
        match cache.try_begin_traced(key) {
            (TryBegin::Hit(blob), tier) => (blob, tier),
            (TryBegin::Owner(ticket), _) => (cache.complete(ticket, payload.to_vec()), None),
            (TryBegin::InFlight(_), _) => panic!("no concurrent flights in this test"),
        }
    }

    #[test]
    fn disk_tier_survives_reopen_and_serves_warm_hits() {
        let root = TempRoot::new("reopen");
        let config = TierConfig::new().disk_root(root.path());
        {
            let cache = TieredCache::new(ImageStore::new(), config.clone()).unwrap();
            let (_, tier) = compute_once(&cache, &key(1), b"persisted");
            assert_eq!(tier, None, "cold build computes");
            assert_eq!(
                cache.backend_stats().writebacks,
                1,
                "written through to disk"
            );
        }
        // "Process restart": fresh store, fresh L1, same disk root.
        let cache = TieredCache::new(ImageStore::new(), config).unwrap();
        let (blob, tier) = compute_once(&cache, &key(1), b"never-recomputed");
        assert_eq!(tier, Some(CacheTier::Disk));
        assert_eq!(blob, b"persisted", "byte-identical across the restart");
        let stats = cache.backend_stats();
        assert_eq!((stats.disk_hits, stats.misses), (1, 0));
        assert_eq!(stats.promotions, 1, "disk hit promoted into memory");
        // Promoted: the next lookup is a pure memory hit.
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Memory));
    }

    #[test]
    fn remote_hit_promotes_through_disk_into_memory() {
        let root_a = TempRoot::new("remote-a");
        let root_b = TempRoot::new("remote-b");
        let remote = RemoteCache::new(RemoteModel::default());
        let builder_a = TieredCache::new(
            ImageStore::new(),
            TierConfig::new()
                .disk_root(root_a.path())
                .remote(remote.clone()),
        )
        .unwrap();
        let builder_b = TieredCache::new(
            ImageStore::new(),
            TierConfig::new()
                .disk_root(root_b.path())
                .remote(remote.clone()),
        )
        .unwrap();
        // Machine A computes and publishes; machine B (distinct disk root) pulls
        // from the shared remote.
        compute_once(&builder_a, &key(7), b"fleet-artifact");
        let (blob, tier) = compute_once(&builder_b, &key(7), b"unused");
        assert_eq!(tier, Some(CacheTier::Remote));
        assert_eq!(blob, b"fleet-artifact");
        let stats = builder_b.backend_stats();
        assert_eq!(stats.remote_hits, 1);
        assert_eq!(stats.promotions, 2, "remote → disk and remote → memory");
        // The pull warmed B's disk tier too.
        assert_eq!(builder_b.disk_stats().unwrap().entries, 1);
        let remote_stats = remote.stats();
        assert_eq!((remote_stats.hits, remote_stats.puts), (1, 1));
        assert!(
            remote_stats.simulated_micros > 0,
            "transfers are cost-modeled"
        );
    }

    #[test]
    fn corrupt_remote_object_is_dropped_and_recomputed() {
        let remote = RemoteCache::new(RemoteModel::default());
        let builder = || {
            TieredCache::new(ImageStore::new(), TierConfig::new().remote(remote.clone())).unwrap()
        };
        compute_once(&builder(), &key(3), b"published");
        remote
            .inner
            .lock()
            .objects
            .get_mut(key(3).digest().hex())
            .unwrap()
            .1 = Blob::new(b"flipped".to_vec());
        let cache = builder();
        let (blob, tier) = compute_once(&cache, &key(3), b"published");
        assert_eq!(tier, None, "the corrupt object is a miss, not a hit");
        assert_eq!(blob, b"published");
        let stats = remote.stats();
        assert_eq!((stats.hits, stats.stale_drops), (0, 1));
        assert_eq!(cache.backend_stats().stale_evictions, 1);
        // The recompute's write-through republished the correct bytes.
        let (blob, tier) = compute_once(&builder(), &key(3), b"unused");
        assert_eq!(
            (blob.to_vec(), tier),
            (b"published".to_vec(), Some(CacheTier::Remote))
        );
    }

    #[test]
    fn disk_capacity_evicts_oldest_and_deletes_blob_files() {
        let root = TempRoot::new("evict");
        let cache = TieredCache::new(
            ImageStore::new(),
            TierConfig::new().disk(DiskTierConfig::new(root.path()).capacity_bytes(64)),
        )
        .unwrap();
        for n in 0..4u32 {
            compute_once(&cache, &key(n), &[n as u8; 32]);
        }
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.entries, 2, "64-byte budget holds two 32-byte outputs");
        assert_eq!(disk.bytes, 64);
        assert_eq!(disk.evictions, 2);
        // Evicted blob files are actually gone from the blobs directory.
        let blob_files = fs::read_dir(root.path().join("blobs")).unwrap().count();
        assert_eq!(blob_files, 2);
    }

    #[test]
    fn journal_replay_drops_entries_with_missing_blob_files() {
        let root = TempRoot::new("stale");
        let config = TierConfig::new().disk_root(root.path());
        {
            let cache = TieredCache::new(ImageStore::new(), config.clone()).unwrap();
            compute_once(&cache, &key(1), b"kept");
            compute_once(&cache, &key(2), b"will-vanish");
        }
        // Simulate a crash that lost one blob file but kept the journal.
        let doomed = Digest::of_bytes(b"will-vanish");
        fs::remove_file(root.path().join("blobs").join(doomed.hex())).unwrap();
        let cache = TieredCache::new(ImageStore::new(), config).unwrap();
        let disk = cache.disk_stats().unwrap();
        assert_eq!(disk.entries, 1, "missing-blob entry dropped on replay");
        assert_eq!(disk.stale_drops, 1);
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Disk));
        let (_, tier) = compute_once(&cache, &key(2), b"recomputed");
        assert_eq!(tier, None, "lost output recomputes");
    }

    #[test]
    fn two_stacks_on_one_root_single_flight_via_lock_files() {
        let root = TempRoot::new("lockfile");
        let config = TierConfig::new()
            .disk(DiskTierConfig::new(root.path()).lock_timeout(Duration::from_secs(5)));
        // Two independent stacks (separate L1s and stores) sharing one disk root
        // stand in for two builder processes.
        let a = TieredCache::new(ImageStore::new(), config.clone()).unwrap();
        let b = TieredCache::new(ImageStore::new(), config).unwrap();
        let computed = std::sync::Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let count_a = computed.clone();
            let slow_owner = scope.spawn(move || match a.try_begin(&key(3)) {
                TryBegin::Owner(ticket) => {
                    // Hold the flight (and the lock file) long enough for B to
                    // contend, then publish.
                    std::thread::sleep(Duration::from_millis(80));
                    count_a.fetch_add(1, Ordering::SeqCst);
                    a.complete(ticket, b"computed-once".to_vec())
                }
                other => panic!("expected Owner, got {other:?}"),
            });
            // Give A time to take the lock before B probes.
            std::thread::sleep(Duration::from_millis(20));
            let count_b = computed.clone();
            let waiter = scope.spawn(move || match b.try_begin_traced(&key(3)) {
                (TryBegin::Hit(blob), tier) => {
                    assert_eq!(tier, Some(CacheTier::Disk), "served behind A's lock");
                    let stats = b.backend_stats();
                    assert_eq!(stats.disk_hits, 1);
                    assert_eq!(b.disk_stats().unwrap().lock_waits, 1);
                    blob
                }
                (TryBegin::Owner(ticket), _) => {
                    // Only acceptable if A somehow finished first — still must not
                    // double-compute.
                    count_b.fetch_add(1, Ordering::SeqCst);
                    b.complete(ticket, b"computed-once".to_vec())
                }
                (other, _) => panic!("expected Hit or Owner, got {other:?}"),
            });
            let from_a = slow_owner.join().unwrap();
            let from_b = waiter.join().unwrap();
            assert_eq!(from_a, from_b, "both processes observe identical bytes");
        });
        assert_eq!(computed.load(Ordering::SeqCst), 1, "exactly one compute");
    }

    #[test]
    fn stale_lock_from_a_crashed_owner_is_broken() {
        let root = TempRoot::new("stale-lock");
        let config = TierConfig::new()
            .disk(DiskTierConfig::new(root.path()).lock_timeout(Duration::from_millis(0)));
        let cache = TieredCache::new(ImageStore::new(), config).unwrap();
        // Plant a lock file as if a previous owner crashed mid-compute. With a
        // zero lock timeout it is immediately stale.
        let lock_dir = root.path().join("locks");
        fs::write(
            lock_dir.join(format!("{}.lock", key(4).digest().hex())),
            "dead",
        )
        .unwrap();
        let (_, tier) = compute_once(&cache, &key(4), b"recovered");
        assert_eq!(tier, None, "the new owner computed after breaking the lock");
        assert!(cache.disk_stats().unwrap().locks_broken >= 1);
        assert!(
            !lock_dir
                .join(format!("{}.lock", key(4).digest().hex()))
                .exists(),
            "lock released after completion"
        );
    }

    #[test]
    fn gc_reclaims_orphans_but_pins_live_cache_outputs() {
        let root = TempRoot::new("gc");
        let cache =
            TieredCache::new(ImageStore::new(), TierConfig::new().disk_root(root.path())).unwrap();
        compute_once(&cache, &key(1), b"live output");
        let orphan = cache.store().put_blob(b"orphaned intermediate".to_vec());
        let report = cache.collect_garbage();
        assert_eq!(report.store.blobs_removed, 1, "only the orphan goes");
        assert!(!cache.store().has_blob(&orphan));
        assert_eq!(report.disk_entries, 1, "disk tier untouched by store GC");
        // The pinned output still hits in memory.
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Memory));
    }

    #[test]
    fn l1_only_stack_behaves_like_a_plain_action_cache() {
        let cache = TieredCache::new(ImageStore::new(), TierConfig::new()).unwrap();
        let (_, tier) = compute_once(&cache, &key(1), b"plain");
        assert_eq!(tier, None);
        let (_, tier) = compute_once(&cache, &key(1), b"unused");
        assert_eq!(tier, Some(CacheTier::Memory));
        let stats = cache.backend_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!((stats.disk_hits, stats.remote_hits), (0, 0));
        assert_eq!(stats.writebacks, 0, "no lower tiers to write through to");
    }

    #[test]
    fn zero_l1_capacity_is_rejected_through_the_stack() {
        assert!(matches!(
            TieredCache::new(ImageStore::new(), TierConfig::new().l1_capacity(0)),
            Err(TierError::Config(CacheConfigError::ZeroCapacity))
        ));
    }
}
