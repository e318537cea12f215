//! # rf-store — the crash-safe on-disk label tier
//!
//! The in-memory [`LabelCache`](../rf_core/cache/index.html) dies with the
//! process, so every deploy or crash turns into a cold-start stampede.  This
//! crate is the tier underneath it: a directory of **write-once,
//! content-addressed files**, one per `(table fingerprint × config
//! fingerprint)` pair.  A label is a pure function of that pair, so
//! recomputation is always a safe fallback — which lets every failure in
//! this crate *degrade* (to a miss, to memory-only serving) instead of
//! failing the request.
//!
//! **Crash safety.** Entries are written to a hidden temp file, `fsync`'d,
//! and atomically renamed into place; a crash at any point leaves either the
//! complete old state or the complete new state, never a half-written entry
//! under its final name.  Leftover temp files are deleted by the next
//! startup scan.
//!
//! **Self-verifying framing.** Every file carries a fixed header — magic,
//! format version, the fill timestamp (unix milliseconds), the body length,
//! and an FNV-1a checksum of the body.  A read validates all of it before a
//! single body byte is served; anything torn, truncated, bit-flipped, or
//! version-skewed is moved into a `quarantine/` subdirectory (for post-mortem
//! inspection), counted in [`DiskStats::corrupt_dropped`], and silently
//! regenerated by the caller.
//!
//! **Bounded.** The startup scan rebuilds the manifest from the directory
//! and prunes oldest-fill-first until the configured byte bound holds; the
//! same pruning runs after every write.
//!
//! **Deterministic fault injection.** Every syscall site (temp write, fsync,
//! rename, read) consults a [`FaultPlan`] keyed by per-site operation
//! counters.  Tests drive torn writes, bit flips, truncations, `ENOSPC`, and
//! `EIO` through the *real* code paths and assert the one invariant that
//! matters: no fault schedule ever surfaces a corrupt body or a crash — only
//! misses.  The hook is always compiled (so integration tests outside this
//! crate can use it) but an empty plan is a single relaxed atomic load per
//! syscall site.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Sender};
use std::sync::{Arc, Mutex};
use std::time::{SystemTime, UNIX_EPOCH};

/// File magic: "RFL1" (Ranking Facts Label, layout 1).
pub const MAGIC: [u8; 4] = *b"RFL1";
/// On-disk format version; bumping it invalidates (quarantines) older files.
///
/// Bump it whenever the same inputs now yield different label bytes: a new
/// frame layout, and also any change to what a label computes for a given
/// table and configuration (such as the Monte-Carlo noise sampler).  Entries
/// are keyed by the inputs' fingerprints, not by the code that rendered
/// them, so without a bump a restarted server would serve an older build's
/// bytes as this build's.  Version 2: ziggurat Monte-Carlo noise.
/// Version 3: the label drops its full ranking (`ranked_items` instead) and
/// its discounted cut-off list (`cutoff_step` instead).
pub const FORMAT_VERSION: u32 = 3;
/// Fixed header size: magic (4) + version (4) + fill millis (8) +
/// body length (8) + FNV-1a body checksum (8).
pub const HEADER_LEN: usize = 32;

const ENTRY_SUFFIX: &str = ".label";
const TMP_PREFIX: &str = ".tmp-";
const QUARANTINE_DIR: &str = "quarantine";

/// Content-addressed identity of one stored body: the same two fingerprints
/// the in-memory cache keys on, kept as plain integers so this crate stays a
/// leaf (no dependency on `rf-core`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StoreKey {
    /// The table's content fingerprint.
    pub table: u64,
    /// The configuration's content fingerprint.
    pub config: u64,
}

impl StoreKey {
    fn file_name(&self) -> String {
        format!("{:016x}-{:016x}{ENTRY_SUFFIX}", self.table, self.config)
    }

    fn from_file_name(name: &str) -> Option<StoreKey> {
        let stem = name.strip_suffix(ENTRY_SUFFIX)?;
        let (table, config) = stem.split_once('-')?;
        if table.len() != 16 || config.len() != 16 {
            return None;
        }
        Some(StoreKey {
            table: u64::from_str_radix(table, 16).ok()?,
            config: u64::from_str_radix(config, 16).ok()?,
        })
    }
}

/// The 64-bit FNV-1a hash used for body checksums — the same non-crypto
/// hash the cache keys are built from, dependency-free and byte-stable.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    fnv1a_update(0xcbf2_9ce4_8422_2325, bytes)
}

/// Folds more bytes into a running FNV-1a hash (used to checksum the
/// header's mutable fields together with the body without concatenating).
#[must_use]
pub fn fnv1a_update(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Milliseconds since the unix epoch, saturating at zero for clocks set
/// before 1970.
#[must_use]
pub fn unix_millis_now() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |elapsed| {
            u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX)
        })
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A syscall site faults can be scheduled at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultSite {
    /// Writing the framed entry into the temp file.
    TempWrite,
    /// `fsync` of the temp file before the rename.
    Fsync,
    /// The atomic rename into the final name.
    Rename,
    /// Reading an entry file back.
    Read,
}

impl FaultSite {
    /// Every site, in counter-index order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::TempWrite,
        FaultSite::Fsync,
        FaultSite::Rename,
        FaultSite::Read,
    ];

    fn index(self) -> usize {
        match self {
            FaultSite::TempWrite => 0,
            FaultSite::Fsync => 1,
            FaultSite::Rename => 2,
            FaultSite::Read => 3,
        }
    }
}

/// What goes wrong when a scheduled fault fires.
///
/// `Eio` / `Enospc` are **reported** failures: the operation returns an
/// error, the write is counted in [`DiskStats::write_errors`] and dropped.
/// The other three are **silent** corruptions — the operation claims success
/// and the damage is only discoverable later, by the framing checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The syscall fails with `EIO`.
    Eio,
    /// The syscall fails with `ENOSPC` (disk full).
    Enospc,
    /// A torn write: only the first `keep` bytes reach the medium, yet the
    /// operation reports success (power loss between write and barrier).
    Torn {
        /// Bytes that survive (taken modulo the data length).
        keep: usize,
    },
    /// One bit flips at `offset` (taken modulo the data length) — media rot.
    BitFlip {
        /// Byte offset whose low-order bit (by `offset / len`) flips.
        offset: usize,
    },
    /// The file ends up truncated to `keep` bytes despite a clean return.
    Truncate {
        /// Bytes that survive (taken modulo the data length).
        keep: usize,
    },
}

/// One scheduled fault: the `op`-th operation (0-based, counted per site
/// over the store's lifetime) at `site` experiences `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Where the fault strikes.
    pub site: FaultSite,
    /// Which operation at that site (0-based, per-site counter).
    pub op: u64,
    /// What goes wrong.
    pub kind: FaultKind,
}

/// A deterministic schedule of faults, consumed as the store's per-site
/// operation counters pass each fault's index.  The default plan is empty —
/// a production store never takes the lock on its fault list.
#[derive(Debug, Default)]
pub struct FaultPlan {
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A plan that injects exactly `faults`.
    #[must_use]
    pub fn new(faults: Vec<Fault>) -> Self {
        FaultPlan { faults }
    }

    fn take(&mut self, site: FaultSite, op: u64) -> Option<FaultKind> {
        let position = self
            .faults
            .iter()
            .position(|fault| fault.site == site && fault.op == op)?;
        Some(self.faults.remove(position).kind)
    }

    fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }
}

/// Per-site operation counters plus the armed plan.  `armed` mirrors
/// "plan non-empty" so the common path never locks.
#[derive(Debug)]
struct Injector {
    ops: [AtomicU64; 4],
    armed: AtomicU64,
    plan: Mutex<FaultPlan>,
}

impl Injector {
    fn new() -> Self {
        Injector {
            ops: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            armed: AtomicU64::new(0),
            plan: Mutex::new(FaultPlan::default()),
        }
    }

    /// Advances `site`'s operation counter and returns the fault scheduled
    /// for this operation, if any.
    fn next(&self, site: FaultSite) -> Option<FaultKind> {
        let op = self.ops[site.index()].fetch_add(1, Ordering::Relaxed);
        if self.armed.load(Ordering::Relaxed) == 0 {
            return None;
        }
        let mut plan = self.plan.lock().expect("fault plan lock");
        let kind = plan.take(site, op);
        if plan.is_empty() {
            self.armed.store(0, Ordering::Relaxed);
        }
        kind
    }
}

/// Applies a silent-corruption fault to an in-memory buffer; returns `false`
/// for the reported-error kinds (which the caller turns into an `Err`).
fn corrupt(buffer: &mut Vec<u8>, kind: FaultKind) -> bool {
    match kind {
        FaultKind::Eio | FaultKind::Enospc => false,
        FaultKind::Torn { keep } | FaultKind::Truncate { keep } => {
            let len = buffer.len();
            buffer.truncate(if len == 0 { 0 } else { keep % (len + 1) });
            true
        }
        FaultKind::BitFlip { offset } => {
            if !buffer.is_empty() {
                let index = offset % buffer.len();
                let bit = (offset / buffer.len().max(1)) % 8;
                buffer[index] ^= 1 << bit;
            }
            true
        }
    }
}

fn fault_error(kind: FaultKind) -> io::Error {
    match kind {
        FaultKind::Enospc => io::Error::new(io::ErrorKind::StorageFull, "injected ENOSPC"),
        _ => io::Error::other("injected EIO"),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// The checksum covers the fill timestamp and body length as well as the
/// body, so a bit flip anywhere in the header's variable fields is caught —
/// a damaged timestamp could otherwise misorder pruning.
fn frame_checksum(fill_unix_millis: u64, body_len: u64, body: &[u8]) -> u64 {
    let mut hash = fnv1a(&fill_unix_millis.to_le_bytes());
    hash = fnv1a_update(hash, &body_len.to_le_bytes());
    fnv1a_update(hash, body)
}

fn frame(fill_unix_millis: u64, body: &[u8]) -> Vec<u8> {
    let mut framed = Vec::with_capacity(HEADER_LEN + body.len());
    framed.extend_from_slice(&MAGIC);
    framed.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    framed.extend_from_slice(&fill_unix_millis.to_le_bytes());
    framed.extend_from_slice(&(body.len() as u64).to_le_bytes());
    framed.extend_from_slice(
        &frame_checksum(fill_unix_millis, body.len() as u64, body).to_le_bytes(),
    );
    framed.extend_from_slice(body);
    framed
}

/// Why a frame failed validation (carried in logs/tests; every reason is
/// handled identically — quarantine and regenerate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed header.
    TooShort,
    /// Magic bytes differ.
    BadMagic,
    /// Format version is not [`FORMAT_VERSION`].
    VersionSkew,
    /// Stored body length disagrees with the file size.
    LengthMismatch,
    /// FNV-1a checksum over the body disagrees with the header.
    ChecksumMismatch,
}

fn le_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes.try_into().expect("8-byte slice"))
}

/// Validates a framed entry and returns `(fill_unix_millis, body)`.
///
/// # Errors
/// The first framing check that fails; callers quarantine on any of them.
pub fn parse_frame(framed: &[u8]) -> Result<(u64, &[u8]), FrameError> {
    if framed.len() < HEADER_LEN {
        return Err(FrameError::TooShort);
    }
    if framed[0..4] != MAGIC {
        return Err(FrameError::BadMagic);
    }
    let version = u32::from_le_bytes(framed[4..8].try_into().expect("4-byte slice"));
    if version != FORMAT_VERSION {
        return Err(FrameError::VersionSkew);
    }
    let fill_unix_millis = le_u64(&framed[8..16]);
    let body_len = le_u64(&framed[16..24]);
    let body = &framed[HEADER_LEN..];
    if body_len != body.len() as u64 {
        return Err(FrameError::LengthMismatch);
    }
    if le_u64(&framed[24..32]) != frame_checksum(fill_unix_millis, body_len, body) {
        return Err(FrameError::ChecksumMismatch);
    }
    Ok((fill_unix_millis, body))
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// Counters and occupancy of the disk tier, served under `/stats` and
/// `/metrics`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct DiskStats {
    /// Lookups served from a valid on-disk entry.
    pub disk_hits: u64,
    /// Lookups that found nothing servable (absent, unreadable, or corrupt).
    pub disk_misses: u64,
    /// Disk hits promoted into the in-memory tier.
    pub promotions: u64,
    /// Writes dropped by an I/O error (the tier degrades, requests don't).
    pub write_errors: u64,
    /// Entries quarantined because their framing failed validation.
    pub corrupt_dropped: u64,
    /// Entries evicted by the size bound (oldest fill first).
    pub pruned: u64,
    /// Entries currently in the manifest.
    pub entries: u64,
    /// Bytes currently accounted (framed size) in the manifest.
    pub bytes: u64,
    /// The configured byte bound.
    pub max_bytes: u64,
}

#[derive(Debug, Clone, Copy)]
struct EntryMeta {
    frame_len: u64,
    fill_unix_millis: u64,
}

#[derive(Debug, Default)]
struct Manifest {
    entries: HashMap<StoreKey, EntryMeta>,
    bytes: u64,
}

impl Manifest {
    fn insert(&mut self, key: StoreKey, meta: EntryMeta) {
        if let Some(previous) = self.entries.insert(key, meta) {
            self.bytes -= previous.frame_len;
        }
        self.bytes += meta.frame_len;
    }

    fn remove(&mut self, key: &StoreKey) -> Option<EntryMeta> {
        let meta = self.entries.remove(key)?;
        self.bytes -= meta.frame_len;
        Some(meta)
    }

    /// The key with the oldest fill timestamp (ties broken by key, so
    /// pruning is deterministic).
    fn oldest(&self) -> Option<StoreKey> {
        self.entries
            .iter()
            .min_by_key(|(key, meta)| (meta.fill_unix_millis, key.table, key.config))
            .map(|(key, _)| *key)
    }
}

#[derive(Debug)]
struct Counters {
    disk_hits: AtomicU64,
    disk_misses: AtomicU64,
    promotions: AtomicU64,
    write_errors: AtomicU64,
    corrupt_dropped: AtomicU64,
    pruned: AtomicU64,
}

impl Counters {
    fn new() -> Self {
        Counters {
            disk_hits: AtomicU64::new(0),
            disk_misses: AtomicU64::new(0),
            promotions: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
            corrupt_dropped: AtomicU64::new(0),
            pruned: AtomicU64::new(0),
        }
    }
}

#[derive(Debug)]
struct Inner {
    dir: PathBuf,
    max_bytes: u64,
    manifest: Mutex<Manifest>,
    counters: Counters,
    injector: Injector,
    temp_seq: AtomicU64,
}

enum Job {
    Write {
        key: StoreKey,
        fill_unix_millis: u64,
        body: Arc<String>,
    },
    Flush(Sender<()>),
}

/// The crash-safe on-disk tier.  One instance owns one directory; writes go
/// through a background write-behind thread (label generation never waits on
/// `fsync`), reads are synchronous and self-verifying.
///
/// Every method degrades instead of failing: an unreadable or corrupt entry
/// is a miss (plus a quarantine), a failed write is a counter bump.  The
/// only fallible call is [`DiskStore::open`] — and its errors exist so the
/// *caller* can choose to run memory-only.
#[derive(Debug)]
pub struct DiskStore {
    inner: Arc<Inner>,
    sender: Mutex<Option<Sender<Job>>>,
    writer: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl DiskStore {
    /// Opens (creating if needed) the store directory, deletes leftover temp
    /// files, scans every entry — quarantining any that fail validation —
    /// rebuilds the manifest, and prunes to `max_bytes`.
    ///
    /// # Errors
    /// The directory cannot be created, read, or written (probed with a
    /// throwaway file).  Callers treat this as "degrade to memory-only",
    /// never as fatal.
    pub fn open(dir: impl Into<PathBuf>, max_bytes: u64) -> io::Result<Self> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        // Probe writability up front so a read-only or full directory is a
        // loud warning at startup instead of a silent stream of
        // write_errors later.
        let probe = dir.join(format!("{TMP_PREFIX}probe-{}", std::process::id()));
        fs::write(&probe, b"rf-store write probe")?;
        fs::remove_file(&probe)?;

        let inner = Arc::new(Inner {
            dir,
            max_bytes: max_bytes.max(1),
            manifest: Mutex::new(Manifest::default()),
            counters: Counters::new(),
            injector: Injector::new(),
            temp_seq: AtomicU64::new(0),
        });
        inner.scan()?;
        inner.prune();

        let (sender, receiver) = mpsc::channel::<Job>();
        let worker = Arc::clone(&inner);
        let writer = std::thread::Builder::new()
            .name("rf-store-writer".to_string())
            .spawn(move || {
                for job in receiver {
                    match job {
                        Job::Write {
                            key,
                            fill_unix_millis,
                            body,
                        } => worker.write_entry(key, fill_unix_millis, body.as_bytes()),
                        Job::Flush(ack) => {
                            // Receiver errors mean the flusher gave up; fine.
                            let _ = ack.send(());
                        }
                    }
                }
            })?;
        Ok(DiskStore {
            inner,
            sender: Mutex::new(Some(sender)),
            writer: Mutex::new(Some(writer)),
        })
    }

    /// The directory this store owns.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.inner.dir
    }

    /// Looks an entry up, validating its framing, and returns its body
    /// exactly as written.  Entries never expire: they are
    /// content-addressed, so only pruning (by the fill time the frame keeps)
    /// and [`DiskStore::clear`] remove them.
    ///
    /// Absent, unreadable, and corrupt entries all count one `disk_miss`;
    /// corrupt ones are additionally quarantined and counted in
    /// `corrupt_dropped`.
    pub fn lookup(&self, key: StoreKey) -> Option<Vec<u8>> {
        let known = self
            .inner
            .manifest
            .lock()
            .expect("disk manifest lock")
            .entries
            .contains_key(&key);
        if !known {
            self.inner
                .counters
                .disk_misses
                .fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let path = self.inner.dir.join(key.file_name());
        let framed = match self.inner.read_file(&path) {
            Ok(framed) => framed,
            Err(_) => {
                // Transient read failure: a miss, but the entry may still be
                // fine — leave it for the next lookup.
                self.inner
                    .counters
                    .disk_misses
                    .fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        let body = match parse_frame(&framed) {
            Ok((_, body)) => body,
            Err(_) => {
                self.inner.quarantine(key);
                self.inner
                    .counters
                    .disk_misses
                    .fetch_add(1, Ordering::Relaxed);
                return None;
            }
        };
        self.inner
            .counters
            .disk_hits
            .fetch_add(1, Ordering::Relaxed);
        Some(body.to_vec())
    }

    /// Enqueues a write-behind of `body` under `key`.  Returns immediately;
    /// the background writer frames, writes, fsyncs, renames, and prunes.
    /// Keys already stored are skipped (entries are write-once — the body
    /// for a key never changes, by content addressing).
    pub fn store(&self, key: StoreKey, fill_unix_millis: u64, body: Arc<String>) {
        let framed_len = (HEADER_LEN + body.len()) as u64;
        if framed_len > self.inner.max_bytes {
            return;
        }
        if self
            .inner
            .manifest
            .lock()
            .expect("disk manifest lock")
            .entries
            .contains_key(&key)
        {
            return;
        }
        if let Some(sender) = self.sender.lock().expect("disk sender lock").as_ref() {
            // A send error means the writer died (only possible mid-drop);
            // losing a write-behind is a degradation, not an error.
            let _ = sender.send(Job::Write {
                key,
                fill_unix_millis,
                body,
            });
        }
    }

    /// Blocks until every write enqueued so far has been attempted.  Tests
    /// (and [`DiskStore::clear`]) use this to make write-behind
    /// deterministic.
    pub fn flush(&self) {
        let receiver = {
            let sender = self.sender.lock().expect("disk sender lock");
            let Some(sender) = sender.as_ref() else {
                return;
            };
            let (ack, receiver) = mpsc::channel();
            if sender.send(Job::Flush(ack)).is_err() {
                return;
            }
            receiver
        };
        let _ = receiver.recv();
    }

    /// Purges every entry: drains the write-behind queue, then deletes every
    /// stored file and empties the manifest.  The invalidation hook —
    /// catalogue uploads purge both tiers through this.
    pub fn clear(&self) {
        self.flush();
        let mut manifest = self.inner.manifest.lock().expect("disk manifest lock");
        for key in manifest.entries.keys() {
            let _ = fs::remove_file(self.inner.dir.join(key.file_name()));
        }
        manifest.entries.clear();
        manifest.bytes = 0;
    }

    /// Quarantines an entry the *caller* found to be wrong after this crate's
    /// framing checks passed (e.g. a stored body that no longer deserializes,
    /// or that belongs to a colliding key).
    pub fn discard_corrupt(&self, key: StoreKey) {
        self.inner.quarantine(key);
    }

    /// Records a disk hit's promotion into the in-memory tier.
    pub fn note_promotion(&self) {
        self.inner
            .counters
            .promotions
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A snapshot of the counters and occupancy.
    #[must_use]
    pub fn stats(&self) -> DiskStats {
        let (entries, bytes) = {
            let manifest = self.inner.manifest.lock().expect("disk manifest lock");
            (manifest.entries.len() as u64, manifest.bytes)
        };
        let counters = &self.inner.counters;
        DiskStats {
            disk_hits: counters.disk_hits.load(Ordering::Relaxed),
            disk_misses: counters.disk_misses.load(Ordering::Relaxed),
            promotions: counters.promotions.load(Ordering::Relaxed),
            write_errors: counters.write_errors.load(Ordering::Relaxed),
            corrupt_dropped: counters.corrupt_dropped.load(Ordering::Relaxed),
            pruned: counters.pruned.load(Ordering::Relaxed),
            entries,
            bytes,
            max_bytes: self.inner.max_bytes,
        }
    }

    /// Arms the deterministic fault-injection schedule (test hook).  Faults
    /// fire as the per-site operation counters pass each fault's index; the
    /// counters themselves are never reset, so `op` indices are cumulative
    /// over the store's lifetime.
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        let armed = u64::from(!plan.is_empty());
        *self.inner.injector.plan.lock().expect("fault plan lock") = plan;
        self.inner.injector.armed.store(armed, Ordering::Relaxed);
    }
}

impl Drop for DiskStore {
    fn drop(&mut self) {
        // Closing the channel lets the writer drain outstanding jobs and
        // exit; joining makes one-shot processes (the CLI) durable.
        drop(self.sender.lock().expect("disk sender lock").take());
        if let Some(writer) = self.writer.lock().expect("disk writer lock").take() {
            let _ = writer.join();
        }
    }
}

impl Inner {
    /// Reads a whole file through the fault injector.
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        let fault = self.injector.next(FaultSite::Read);
        if let Some(kind @ (FaultKind::Eio | FaultKind::Enospc)) = fault {
            return Err(fault_error(kind));
        }
        let mut bytes = fs::read(path)?;
        if let Some(kind) = fault {
            corrupt(&mut bytes, kind);
        }
        Ok(bytes)
    }

    /// The full crash-safe write protocol: frame, temp-write, fsync, rename,
    /// manifest update, prune.  Failures count `write_errors` and clean up
    /// the temp file; silent faults go through undetected (that is their
    /// point) and are caught by the next read's framing checks.
    fn write_entry(&self, key: StoreKey, fill_unix_millis: u64, body: &[u8]) {
        if self.try_write_entry(key, fill_unix_millis, body).is_err() {
            self.counters.write_errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn try_write_entry(&self, key: StoreKey, fill_unix_millis: u64, body: &[u8]) -> io::Result<()> {
        let mut framed = frame(fill_unix_millis, body);
        let recorded_len = framed.len() as u64;
        let temp = self.dir.join(format!(
            "{TMP_PREFIX}{}-{}",
            std::process::id(),
            self.temp_seq.fetch_add(1, Ordering::Relaxed)
        ));
        let final_path = self.dir.join(key.file_name());

        let result = (|| -> io::Result<()> {
            match self.injector.next(FaultSite::TempWrite) {
                Some(kind @ (FaultKind::Eio | FaultKind::Enospc)) => {
                    return Err(fault_error(kind));
                }
                Some(kind) => {
                    corrupt(&mut framed, kind);
                }
                None => {}
            }
            let mut file = fs::File::create(&temp)?;
            file.write_all(&framed)?;
            match self.injector.next(FaultSite::Fsync) {
                Some(kind @ (FaultKind::Eio | FaultKind::Enospc)) => {
                    return Err(fault_error(kind));
                }
                // A silent fault at the barrier is "fsync lied": nothing to
                // corrupt here — the torn data was modelled at the write.
                Some(_) | None => file.sync_all()?,
            }
            drop(file);
            match self.injector.next(FaultSite::Rename) {
                Some(kind @ (FaultKind::Eio | FaultKind::Enospc)) => {
                    return Err(fault_error(kind));
                }
                Some(kind) => {
                    // The rename itself lands, but the entry's bytes end up
                    // damaged (crash while the metadata journal replays).
                    fs::rename(&temp, &final_path)?;
                    let mut damaged = fs::read(&final_path)?;
                    corrupt(&mut damaged, kind);
                    fs::write(&final_path, &damaged)?;
                }
                None => fs::rename(&temp, &final_path)?,
            }
            // Durability of the *name* needs the directory flushed too; an
            // error here is not worth failing the write over.
            if let Ok(dir) = fs::File::open(&self.dir) {
                let _ = dir.sync_all();
            }
            Ok(())
        })();

        if result.is_err() {
            let _ = fs::remove_file(&temp);
            return result;
        }
        self.manifest.lock().expect("disk manifest lock").insert(
            key,
            EntryMeta {
                frame_len: recorded_len,
                fill_unix_millis,
            },
        );
        self.prune();
        Ok(())
    }

    /// Rebuilds the manifest from the directory: deletes leftover temp
    /// files, quarantines entries that fail validation, indexes the rest.
    fn scan(&self) -> io::Result<()> {
        let mut manifest = self.manifest.lock().expect("disk manifest lock");
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if !entry.file_type()?.is_file() {
                continue;
            }
            let name = entry.file_name();
            let Some(name) = name.to_str() else {
                continue;
            };
            if name.starts_with(TMP_PREFIX) {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            let Some(key) = StoreKey::from_file_name(name) else {
                continue;
            };
            match fs::read(entry.path())
                .map_err(|_| FrameError::TooShort)
                .and_then(|framed| {
                    parse_frame(&framed).map(|(fill, _)| (framed.len() as u64, fill))
                }) {
                Ok((frame_len, fill_unix_millis)) => {
                    manifest.insert(
                        key,
                        EntryMeta {
                            frame_len,
                            fill_unix_millis,
                        },
                    );
                }
                Err(_) => {
                    drop(manifest);
                    self.quarantine(key);
                    manifest = self.manifest.lock().expect("disk manifest lock");
                }
            }
        }
        Ok(())
    }

    /// Evicts oldest-fill entries until the byte bound holds.
    fn prune(&self) {
        let mut manifest = self.manifest.lock().expect("disk manifest lock");
        while manifest.bytes > self.max_bytes {
            let Some(victim) = manifest.oldest() else {
                break;
            };
            manifest.remove(&victim);
            let _ = fs::remove_file(self.dir.join(victim.file_name()));
            self.counters.pruned.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Moves an entry's file into `quarantine/` (for post-mortem inspection)
    /// and forgets it; the caller regenerates.
    fn quarantine(&self, key: StoreKey) {
        self.manifest
            .lock()
            .expect("disk manifest lock")
            .remove(&key);
        let from = self.dir.join(key.file_name());
        let jail = self.dir.join(QUARANTINE_DIR);
        let moved =
            fs::create_dir_all(&jail).and_then(|()| fs::rename(&from, jail.join(key.file_name())));
        if moved.is_err() {
            // Quarantine is best-effort forensics; what matters is that the
            // bad entry can never be served again.
            let _ = fs::remove_file(&from);
        }
        self.counters
            .corrupt_dropped
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    static TEST_DIR_SEQ: AtomicUsize = AtomicUsize::new(0);

    /// A unique scratch directory, removed on drop.
    struct Scratch(PathBuf);

    impl Scratch {
        fn new() -> Self {
            let dir = std::env::temp_dir().join(format!(
                "rf-store-test-{}-{}",
                std::process::id(),
                TEST_DIR_SEQ.fetch_add(1, Ordering::Relaxed)
            ));
            fs::create_dir_all(&dir).expect("scratch dir");
            Scratch(dir)
        }

        fn path(&self) -> &Path {
            &self.0
        }
    }

    impl Drop for Scratch {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(n: u64) -> StoreKey {
        StoreKey {
            table: n,
            config: n.wrapping_mul(31),
        }
    }

    fn put(store: &DiskStore, k: StoreKey, fill: u64, body: &str) {
        store.store(k, fill, Arc::new(body.to_string()));
        store.flush();
    }

    /// The fill time and body of the frame stored under `k` in `dir`.
    fn stored_frame(dir: &Path, k: StoreKey) -> (u64, Vec<u8>) {
        let framed = fs::read(dir.join(k.file_name())).expect("stored frame");
        let (fill_unix_millis, body) = parse_frame(&framed).expect("valid frame");
        (fill_unix_millis, body.to_vec())
    }

    #[test]
    fn frame_round_trips_and_catches_every_corruption_class() {
        let body = br#"{"label":"demo"}"#;
        let framed = frame(1234, body);
        assert_eq!(parse_frame(&framed), Ok((1234, body.as_slice())));
        // Truncation, anywhere.
        for keep in [0, 3, HEADER_LEN - 1, HEADER_LEN, framed.len() - 1] {
            assert!(parse_frame(&framed[..keep]).is_err(), "keep={keep}");
        }
        // Any single flipped bit in header or body is caught.
        for index in 0..framed.len() {
            let mut bad = framed.clone();
            bad[index] ^= 0x01;
            assert!(parse_frame(&bad).is_err(), "flip at {index}");
        }
        // Version skew specifically (checksum only covers the body, so the
        // version field must be checked on its own).
        let mut skewed = framed.clone();
        skewed[4..8].copy_from_slice(&(FORMAT_VERSION + 1).to_le_bytes());
        assert_eq!(parse_frame(&skewed), Err(FrameError::VersionSkew));
    }

    #[test]
    fn store_key_file_names_round_trip() {
        let k = StoreKey {
            table: 0xdead_beef_0123_4567,
            config: 7,
        };
        assert_eq!(StoreKey::from_file_name(&k.file_name()), Some(k));
        assert_eq!(StoreKey::from_file_name("notakey.label"), None);
        assert_eq!(StoreKey::from_file_name("0-1.label"), None);
        assert_eq!(StoreKey::from_file_name("whatever.json"), None);
    }

    #[test]
    fn write_then_lookup_round_trips_and_counts() {
        let scratch = Scratch::new();
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        assert!(store.lookup(key(1)).is_none());
        put(&store, key(1), 777, "body-1");
        assert_eq!(store.lookup(key(1)).expect("disk hit"), b"body-1");
        assert_eq!(
            stored_frame(scratch.path(), key(1)),
            (777, b"body-1".to_vec())
        );
        let stats = store.stats();
        assert_eq!(stats.disk_hits, 1);
        assert_eq!(stats.disk_misses, 1);
        assert_eq!(stats.entries, 1);
        assert_eq!(stats.bytes, (HEADER_LEN + "body-1".len()) as u64);
        assert_eq!(stats.write_errors, 0);
        assert_eq!(stats.corrupt_dropped, 0);
    }

    #[test]
    fn reopen_rebuilds_the_manifest_and_serves_the_same_bytes() {
        let scratch = Scratch::new();
        {
            let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
            put(&store, key(1), 10, "alpha");
            put(&store, key(2), 20, "beta");
        }
        // "Process death": the first store is gone; a new one scans.
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        assert_eq!(store.stats().entries, 2);
        assert_eq!(store.lookup(key(1)).unwrap(), b"alpha");
        assert_eq!(store.lookup(key(2)).unwrap(), b"beta");
    }

    #[test]
    fn leftover_temp_files_are_deleted_at_open() {
        let scratch = Scratch::new();
        fs::write(scratch.path().join(".tmp-999-0"), b"half a write").unwrap();
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        assert_eq!(store.stats().entries, 0);
        assert!(!scratch.path().join(".tmp-999-0").exists());
    }

    #[test]
    fn corrupt_entries_are_quarantined_never_served() {
        let scratch = Scratch::new();
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        put(&store, key(1), 5, "precious");
        // Flip one body bit on disk behind the store's back.
        let path = scratch.path().join(key(1).file_name());
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        assert!(store.lookup(key(1)).is_none(), "corrupt → miss");
        let stats = store.stats();
        assert_eq!(stats.corrupt_dropped, 1);
        assert_eq!(stats.entries, 0);
        assert!(
            scratch
                .path()
                .join(QUARANTINE_DIR)
                .join(key(1).file_name())
                .exists(),
            "bad entry preserved for forensics"
        );
        // Regeneration rewrites cleanly.
        put(&store, key(1), 6, "precious");
        assert_eq!(store.lookup(key(1)).unwrap(), b"precious");
    }

    #[test]
    fn scan_quarantines_truncated_and_version_skewed_files() {
        let scratch = Scratch::new();
        {
            let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
            put(&store, key(1), 5, "will be truncated");
            put(&store, key(2), 5, "will be skewed");
            put(&store, key(3), 5, "intact");
        }
        let truncated = scratch.path().join(key(1).file_name());
        let bytes = fs::read(&truncated).unwrap();
        fs::write(&truncated, &bytes[..HEADER_LEN + 4]).unwrap();
        let skewed = scratch.path().join(key(2).file_name());
        let mut bytes = fs::read(&skewed).unwrap();
        bytes[4..8].copy_from_slice(&99u32.to_le_bytes());
        fs::write(&skewed, &bytes).unwrap();
        // A well-formed frame written by the build before the last format
        // bump: its label bytes came from older code, so it must not be
        // served either.
        let stale = scratch.path().join(key(4).file_name());
        let mut bytes = frame(5, b"previous-format label");
        bytes[4..8].copy_from_slice(&(FORMAT_VERSION - 1).to_le_bytes());
        fs::write(&stale, &bytes).unwrap();

        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        let stats = store.stats();
        assert_eq!(stats.entries, 1, "only the intact entry survives");
        assert_eq!(stats.corrupt_dropped, 3);
        assert!(store.lookup(key(1)).is_none());
        assert!(store.lookup(key(2)).is_none());
        assert!(store.lookup(key(4)).is_none());
        assert!(scratch
            .path()
            .join(QUARANTINE_DIR)
            .join(key(4).file_name())
            .exists());
        assert_eq!(store.lookup(key(3)).unwrap(), b"intact");

        // The caller regenerates the stale label; the new frame is served.
        put(&store, key(4), 6, "regenerated");
        let hit = store.lookup(key(4)).expect("regenerated entry");
        assert_eq!(hit, b"regenerated");
        assert_eq!(stored_frame(scratch.path(), key(4)), (6, hit));
    }

    #[test]
    fn size_bound_prunes_oldest_fill_first() {
        let scratch = Scratch::new();
        let entry_len = (HEADER_LEN + 4) as u64;
        let store = DiskStore::open(scratch.path(), entry_len * 2).unwrap();
        put(&store, key(1), 100, "one1");
        put(&store, key(2), 200, "two2");
        put(&store, key(3), 300, "tri3");
        let stats = store.stats();
        assert_eq!(stats.entries, 2);
        assert_eq!(stats.pruned, 1);
        assert!(store.lookup(key(1)).is_none(), "oldest evicted");
        assert!(store.lookup(key(2)).is_some());
        assert!(store.lookup(key(3)).is_some());
        // A body that can never fit is skipped outright.
        let big = "x".repeat(4 * entry_len as usize);
        put(&store, key(9), 400, &big);
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn entries_are_write_once() {
        let scratch = Scratch::new();
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        put(&store, key(1), 10, "first");
        put(&store, key(1), 99, "second");
        let hit = store.lookup(key(1)).unwrap();
        assert_eq!(hit, b"first", "content-addressed entries never change");
        assert_eq!(stored_frame(scratch.path(), key(1)), (10, hit));
    }

    #[test]
    fn clear_purges_every_entry_and_the_queue() {
        let scratch = Scratch::new();
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        put(&store, key(1), 10, "a");
        store.store(key(2), 20, Arc::new("b".to_string())); // still queued
        store.clear();
        assert_eq!(store.stats().entries, 0);
        assert!(store.lookup(key(1)).is_none());
        assert!(store.lookup(key(2)).is_none());
        assert_eq!(
            fs::read_dir(scratch.path())
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().ends_with(ENTRY_SUFFIX))
                .count(),
            0
        );
    }

    #[test]
    fn reported_write_faults_degrade_and_count() {
        let scratch = Scratch::new();
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        store.set_fault_plan(FaultPlan::new(vec![
            Fault {
                site: FaultSite::TempWrite,
                op: 0,
                kind: FaultKind::Enospc,
            },
            Fault {
                site: FaultSite::Fsync,
                op: 0,
                kind: FaultKind::Eio,
            },
            Fault {
                site: FaultSite::Rename,
                op: 0,
                kind: FaultKind::Eio,
            },
        ]));
        put(&store, key(1), 1, "a"); // ENOSPC at temp write
        put(&store, key(2), 2, "b"); // EIO at fsync
        put(&store, key(3), 3, "c"); // EIO at rename
        let stats = store.stats();
        assert_eq!(stats.write_errors, 3);
        assert_eq!(stats.entries, 0);
        // No temp litter left behind.
        assert_eq!(fs::read_dir(scratch.path()).unwrap().count(), 0);
        // The plan is spent: the tier heals by itself.
        put(&store, key(1), 4, "a");
        assert!(store.lookup(key(1)).is_some());
    }

    #[test]
    fn silent_write_faults_are_caught_by_the_next_read() {
        for kind in [
            FaultKind::Torn { keep: 7 },
            FaultKind::Truncate {
                keep: HEADER_LEN + 1,
            },
            FaultKind::BitFlip {
                offset: HEADER_LEN + 2,
            },
        ] {
            let scratch = Scratch::new();
            let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
            store.set_fault_plan(FaultPlan::new(vec![Fault {
                site: FaultSite::TempWrite,
                op: 0,
                kind,
            }]));
            put(&store, key(1), 1, "supposedly durable body");
            // The write *claimed* success; the manifest believes it exists.
            assert_eq!(store.stats().write_errors, 0, "{kind:?}");
            // …but the framing checks refuse to serve the damage.
            assert!(store.lookup(key(1)).is_none(), "{kind:?}");
            assert_eq!(store.stats().corrupt_dropped, 1, "{kind:?}");
            // Regeneration round-trips.
            put(&store, key(1), 2, "supposedly durable body");
            assert_eq!(
                store.lookup(key(1)).unwrap(),
                b"supposedly durable body",
                "{kind:?}"
            );
        }
    }

    #[test]
    fn read_faults_are_misses_not_crashes() {
        let scratch = Scratch::new();
        let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
        put(&store, key(1), 1, "resilient");
        store.set_fault_plan(FaultPlan::new(vec![
            Fault {
                site: FaultSite::Read,
                op: 0,
                kind: FaultKind::Eio,
            },
            Fault {
                site: FaultSite::Read,
                op: 1,
                kind: FaultKind::BitFlip { offset: 40 },
            },
        ]));
        // EIO: transient — a miss, the entry stays.
        assert!(store.lookup(key(1)).is_none());
        assert_eq!(store.stats().entries, 1);
        // Bit flip on the read path: quarantined like any corruption.
        assert!(store.lookup(key(1)).is_none());
        assert_eq!(store.stats().corrupt_dropped, 1);
        assert_eq!(store.stats().entries, 0);
    }

    #[test]
    fn open_fails_on_an_unwritable_directory() {
        // A plain file where the directory should be: create_dir_all fails,
        // and the caller is expected to degrade to memory-only.
        let scratch = Scratch::new();
        let blocked = scratch.path().join("occupied");
        fs::write(&blocked, b"not a directory").unwrap();
        assert!(DiskStore::open(&blocked, 1 << 20).is_err());
    }

    #[test]
    fn fnv1a_matches_known_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    proptest::proptest! {
        /// Whatever bytes land on disk under an entry name, `lookup` never
        /// panics and never serves a body that was not stored by the write
        /// protocol: it either misses (quarantining the junk) or — in the
        /// astronomically unlikely case random bytes form a valid frame —
        /// serves exactly the framed body.
        #[test]
        fn arbitrary_disk_bytes_never_panic_lookup(junk in proptest::prelude::prop::collection::vec(0usize..256, 0..96)) {
            let junk: Vec<u8> = junk.into_iter().map(|b| b as u8).collect();
            let scratch = Scratch::new();
            let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
            // Plant junk under a legitimate entry name, bypassing the store.
            fs::write(scratch.path().join(key(1).file_name()), &junk).unwrap();
            drop(store);
            let store = DiskStore::open(scratch.path(), 1 << 20).unwrap();
            if let Some(body) = store.lookup(key(1)) {
                proptest::prop_assert_eq!(parse_frame(&junk).unwrap().1, body.as_slice());
            } else {
                proptest::prop_assert!(parse_frame(&junk).is_err() || store.stats().entries == 0);
            }
        }
    }
}
