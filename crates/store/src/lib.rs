//! `bichrome-store` — the persistent campaign result store.
//!
//! Every trial a campaign executes is identified by a *canonical cell
//! identity* — protocol label, graph-spec display string, partitioner
//! display string, trial seed — plus the store's pinned on-disk
//! [`FORMAT_VERSION`]. The store persists one record per identity and
//! indexes it by a content address derived from that identity through
//! the workspace's SplitMix64 seed machinery
//! ([`TrialKey::content_hash`]), so re-running a campaign skips every
//! trial the store already holds: a killed run resumes where it
//! stopped, and extending a seed axis only computes the new suffix.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/meta.json              pinned {"magic", "format_version"} —
//!                              written atomically (temp file + rename)
//! <dir>/segments/seg-NNNNNNNN.bcs
//!                              v2 binary segments (see [`mod@segment`]
//!                              docs for the frame format); all new
//!                              writes land here, rolled to a fresh
//!                              segment at a configurable size bound
//! ```
//!
//! The record payload is opaque to this crate (the runner serializes
//! its `TrialRecord`s into it). Every stored record carries an
//! integrity hash over the key fields *and* the payload bytes, so
//! corruption of either is detected at load and never served as a
//! cached result.
//!
//! # In memory
//!
//! Opening a store reads each segment file into one buffer and
//! verifies its frames in place; records then stay in the frames they
//! were read in, and an append copies its frame into the buffer of
//! the file it went to. The index maps each key's content hash (which
//! the integrity check computes anyway) to its live record, and every
//! lookup confirms the full key against the frame. Resident memory is
//! about the segment bytes plus a few dozen bytes per record.
//!
//! # Durability model
//!
//! * `meta.json` is always written via temp file + rename, so a crash
//!   can never leave a half-written store header.
//! * Trial appends go to the active v2 segment through a buffered
//!   writer that is flushed every [`StoreConfig::flush_every`] records
//!   (default: every record, matching the original per-line flush)
//!   and always on [`Store::flush`], segment roll, and drop. A crash
//!   can therefore tear at most the unflushed tail of one segment,
//!   which loading handles *per segment*: each segment independently
//!   keeps its longest well-formed prefix, reports what was dropped
//!   ([`Store::salvage`]), and is atomically truncated to the good
//!   prefix so later appends never extend a corrupt tail. Damage in
//!   one segment never discards records in another.
//! * Compaction ([`Store::compact`]) rewrites the live records into a
//!   fresh `segments.tmp/` directory and installs it with a rename
//!   dance (`segments` → `segments.old`, `segments.tmp` → `segments`,
//!   then delete the old data). Opening a store repairs any crash
//!   window of that dance: either the old data or the complete new
//!   data survives, never a mix.
//! * Opening a store whose `format_version` differs from this
//!   build's is an error, never a silent reinterpretation.
//!   [`FORMAT_VERSION`] pins *key addressing and hash chain*, and
//!   `merge` unions any two stores of this version. A directory that
//!   still holds a pre-segment `trials.jsonl` log is refused too:
//!   this build does not read that format, and ignoring the file
//!   would silently drop its records.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod segment;

use bichrome_comm::PublicCoin;
use segment::Frame;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::hash::{BuildHasherDefault, Hasher};
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};

/// The pinned on-disk format version. Bump it whenever the *meaning*
/// of a stored record changes; stores written by other versions are
/// rejected at open time instead of being silently reinterpreted.
/// (The move from JSON lines to binary segments changed only the
/// framing, under the same key addressing and integrity hash, so it
/// kept version 1.)
pub const FORMAT_VERSION: u64 = 1;

/// The magic string identifying a directory as a bichrome store.
const MAGIC: &str = "bichrome-store";

/// The pre-segment JSON-lines trial log. No build reads it any more;
/// opening a store directory that still holds one is an error.
const LOG_FILE: &str = "trials.jsonl";

/// The metadata filename inside a store directory.
const META_FILE: &str = "meta.json";

/// The v2 segment directory name, plus the staging and retirement
/// names used by the compaction rename dance.
const SEGMENTS_DIR: &str = "segments";
const SEGMENTS_TMP: &str = "segments.tmp";
const SEGMENTS_OLD: &str = "segments.old";

/// Stream tag under which trial identities are folded into content
/// hashes (disjoint from the runner's graph/partition/protocol seed
/// tags, which live in the `0x9A27_xxxx` range).
const KEY_TAG: u64 = 0x9A27_0057;

/// The canonical identity of one campaign trial — the unit of
/// deduplication. Two trials with equal keys are *the same
/// computation* (the executor derives every random stream from these
/// fields), so the store keeps exactly one live record per key.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct TrialKey {
    /// The protocol-axis label (registry key or explicit label).
    pub protocol: String,
    /// The graph spec's canonical `Display` string.
    pub graph: String,
    /// The partitioner-axis label: a `Partitioner` `Display` string,
    /// or the campaign's per-seed default label (the default
    /// partitioner is itself derived from `seed`, so the label plus
    /// the seed still pins the computation).
    pub partitioner: String,
    /// The trial seed.
    pub seed: u64,
}

impl TrialKey {
    /// The key's content address: every field folded into a 64-bit
    /// value through the tagged SplitMix64 subcoin chain (the same
    /// mixer the runner's seed derivation uses), starting from
    /// [`FORMAT_VERSION`]. Used to address records on disk; lookups
    /// always confirm full key equality, so a hash collision can
    /// never alias two different trials.
    pub fn content_hash(&self) -> u64 {
        content_hash(&self.protocol, &self.graph, &self.partitioner, self.seed)
    }
}

/// [`TrialKey::content_hash`] of a key given field by field (a loaded
/// frame's labels are checked without building a [`TrialKey`]).
pub(crate) fn content_hash(protocol: &str, graph: &str, partitioner: &str, seed: u64) -> u64 {
    let mut coin = PublicCoin::new(FORMAT_VERSION).subcoin(KEY_TAG);
    for field in [protocol, graph, partitioner] {
        coin = fold_str(coin, field);
    }
    coin.subcoin(seed).seed()
}

impl fmt::Display for TrialKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {} / {} @ seed {}",
            self.protocol, self.graph, self.partitioner, self.seed
        )
    }
}

/// Folds a string into a [`PublicCoin`] chain: length first, then
/// each 8-byte little-endian chunk (zero-padded), so distinct strings
/// — including prefix pairs — follow distinct subcoin paths.
fn fold_str(coin: PublicCoin, s: &str) -> PublicCoin {
    let mut coin = coin.subcoin(s.len() as u64);
    for chunk in s.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        coin = coin.subcoin(u64::from_le_bytes(word));
    }
    coin
}

/// The integrity hash of one stored record: the key's content address
/// chained over the record payload bytes, so corruption of *either*
/// the identity fields or the record is detected at load (and the
/// record dropped as part of the salvage), never served as a cached
/// result.
pub(crate) fn line_hash(key: &TrialKey, record_json: &str) -> u64 {
    record_hash(key.content_hash(), record_json)
}

/// [`line_hash`] from the key's content hash.
pub(crate) fn record_hash(key_hash: u64, record_json: &str) -> u64 {
    fold_str(PublicCoin::new(key_hash), record_json).seed()
}

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem I/O failed; the first field names the path.
    Io(PathBuf, std::io::Error),
    /// The directory's `meta.json` declares a different format
    /// version than this build writes.
    VersionMismatch {
        /// The version found on disk.
        found: u64,
        /// The version this build supports ([`FORMAT_VERSION`]).
        expected: u64,
    },
    /// The directory is not a store this build opens: `meta.json` is
    /// missing or not a valid store header, or a pre-segment
    /// `trials.jsonl` log sits next to it.
    BadMeta(String),
    /// [`Store::merge`] found two different payloads stored for the
    /// same trial identity — the stores disagree on a computation
    /// that the key pins completely, so the union is refused rather
    /// than silently picking a side.
    MergeConflict {
        /// The identity both stores hold, with different payloads.
        key: TrialKey,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(path, e) => write!(f, "store I/O on {}: {e}", path.display()),
            StoreError::VersionMismatch { found, expected } => write!(
                f,
                "store format version {found} is not the supported version {expected} \
                 (refusing to reinterpret old data)"
            ),
            StoreError::BadMeta(msg) => write!(f, "invalid store: {msg}"),
            StoreError::MergeConflict { key } => write!(
                f,
                "merge conflict: the stores hold different records for {key} \
                 (refusing to pick a side)"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// What corrupt store data was reduced to at load time, aggregated
/// over every segment (damage is detected and truncated *per
/// segment*, so one torn file never discards records in another).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvage {
    /// Live records kept across the whole store.
    pub kept: usize,
    /// Total bytes discarded (summed over every damaged file).
    pub dropped_bytes: usize,
    /// The first parse failure encountered.
    pub error: String,
}

impl fmt::Display for Salvage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "salvaged {} record(s), dropped {} trailing byte(s): {}",
            self.kept, self.dropped_bytes, self.error
        )
    }
}

/// One stored trial: its identity plus the opaque record payload.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The trial's canonical identity.
    pub key: TrialKey,
    /// The record payload, exactly as the producer serialized it
    /// (one JSON object, no newlines).
    pub record_json: String,
}

/// A one-shot injectable I/O failure, armed with
/// [`Store::inject_fault`] and consumed by the next operation it
/// applies to. This is the store's end of the workspace chaos layer
/// (`bichrome-comm`'s `FaultPlan` is the wire's): crash-recovery
/// tests get a *deterministic* torn write or failed rename at an
/// exact point instead of relying on `kill -9` timing, and every
/// firing is counted in `bichrome_store_faults_injected_total`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreFault {
    /// The next [`Store::append`] writes only the first `keep_bytes`
    /// of its frame to the active segment (then fails), exactly what
    /// a crash mid-write leaves behind. The record is *not* indexed —
    /// as far as the producer knows, the append failed — and the next
    /// open salvages the segment back to its good prefix. Drop the
    /// handle after the tear, as the crashed process would have: more
    /// appends would extend the torn tail.
    TornAppend {
        /// Frame bytes that reach the disk before the "crash".
        keep_bytes: usize,
    },
    /// The next [`Store::checkpoint`] writes `meta.json`'s temp file
    /// but fails before the rename installs it — the atomic-write
    /// crash window. The store directory keeps its old (valid) meta,
    /// so a reopen must load everything the checkpoint had flushed.
    FailRename,
}

/// Tuning knobs for a [`Store`]. The defaults reproduce the original
/// durability behavior (flush every record) with 8 MiB segments.
#[derive(Debug, Clone, Copy)]
pub struct StoreConfig {
    /// Roll to a fresh segment once the active one reaches this many
    /// bytes (a single oversized record may still exceed it — a
    /// segment always holds at least one record).
    pub segment_bytes: usize,
    /// Flush the active segment to the OS every this-many appended
    /// records. `1` (the default) flushes per record; larger values
    /// batch syscalls for write-heavy runs. Rolling, dropping, or
    /// [`Store::flush`]ing always flushes regardless.
    pub flush_every: usize,
    /// [`Store::maybe_compact`] rewrites the store once at least this
    /// fraction of its records are dead (superseded by a later write
    /// for the same key).
    pub compact_dead_ratio: f64,
    /// …but never bothers below this many total records.
    pub compact_min_records: usize,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            segment_bytes: 8 << 20,
            flush_every: 1,
            compact_dead_ratio: 0.5,
            compact_min_records: 1024,
        }
    }
}

/// The segment currently open for appends.
#[derive(Debug)]
struct ActiveSegment {
    /// Its buffer's position in [`Store::segments`] (the last one).
    segment: usize,
    writer: BufWriter<File>,
    /// Records appended since the last flush.
    unflushed: usize,
}

/// One segment file's bytes, exactly as on disk: the verified prefix
/// read at open (a damaged file is truncated to it) plus every frame
/// appended to the file since.
#[derive(Debug)]
struct SegmentBuf {
    path: PathBuf,
    bytes: Vec<u8>,
}

/// Where one record's frame sits, and whether it is its key's live
/// record (a later write for the key makes it dead).
#[derive(Debug, Clone, Copy)]
struct Slot {
    segment: u32,
    live: bool,
    offset: usize,
}

/// A hasher that passes a `u64` through unchanged: the index keys are
/// content hashes, already SplitMix-mixed, so hashing them again is
/// wasted work. Unlike SipHash it does not stop labels chosen to
/// crowd one bucket, but every indexed key is a trial the store's
/// owner ran, which costs far more than the probe it would slow.
#[derive(Debug, Default)]
struct PassThrough(u64);

impl Hasher for PassThrough {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("the key index hashes only u64 content hashes")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

/// The live record per key, addressed by the key's content hash. The
/// index never compares keys itself: every call takes an `is_key`
/// test that reads the candidate record's frame, so two keys sharing
/// a 64-bit hash stay two records.
#[derive(Debug, Default)]
struct KeyIndex {
    by_hash: HashMap<u64, usize, BuildHasherDefault<PassThrough>>,
    /// `(hash, record)` for live records whose key shares its content
    /// hash with a *different* key in `by_hash` (in practice empty).
    collisions: Vec<(u64, usize)>,
}

impl KeyIndex {
    /// Live keys indexed.
    fn len(&self) -> usize {
        self.by_hash.len() + self.collisions.len()
    }

    /// The live record with content hash `hash` that `is_key` accepts.
    fn find(&self, hash: u64, is_key: impl Fn(usize) -> bool) -> Option<usize> {
        let &first = self.by_hash.get(&hash)?;
        if is_key(first) {
            return Some(first);
        }
        self.collisions
            .iter()
            .find(|&&(h, record)| h == hash && is_key(record))
            .map(|&(_, record)| record)
    }

    /// Makes `record` the live record of its key (the one `is_key`
    /// accepts) and returns the record it supersedes, if any.
    fn insert(
        &mut self,
        hash: u64,
        record: usize,
        is_key: impl Fn(usize) -> bool,
    ) -> Option<usize> {
        match self.by_hash.entry(hash) {
            MapEntry::Vacant(slot) => {
                slot.insert(record);
                None
            }
            MapEntry::Occupied(mut slot) if is_key(*slot.get()) => Some(slot.insert(record)),
            MapEntry::Occupied(_) => {
                match self
                    .collisions
                    .iter_mut()
                    .find(|(h, live)| *h == hash && is_key(*live))
                {
                    Some((_, live)) => Some(std::mem::replace(live, record)),
                    None => {
                        self.collisions.push((hash, record));
                        None
                    }
                }
            }
        }
    }

    /// Renumbers every indexed record through `new_of` (old → new).
    fn renumber(&mut self, new_of: &[usize]) {
        let records = self.by_hash.values_mut();
        for record in records.chain(self.collisions.iter_mut().map(|(_, r)| r)) {
            *record = new_of[*record];
        }
    }
}

/// Cached process-registry handles for the store's observability
/// counters: looked up once per opened store, so the append/flush
/// path adds only lock-free atomic increments.
#[derive(Debug)]
struct StoreMetrics {
    appends: bichrome_obs::Counter,
    flushes: bichrome_obs::Counter,
    flush_nanos: bichrome_obs::Histogram,
    checkpoints: bichrome_obs::Counter,
    segments_loaded: bichrome_obs::Counter,
    salvage_dropped_bytes: bichrome_obs::Counter,
}

impl StoreMetrics {
    fn new() -> StoreMetrics {
        StoreMetrics {
            appends: bichrome_obs::counter("bichrome_store_appends_total"),
            flushes: bichrome_obs::counter("bichrome_store_flushes_total"),
            flush_nanos: bichrome_obs::histogram("bichrome_store_flush_nanos"),
            checkpoints: bichrome_obs::counter("bichrome_store_checkpoints_total"),
            segments_loaded: bichrome_obs::counter("bichrome_store_segments_loaded_total"),
            salvage_dropped_bytes: bichrome_obs::counter(
                "bichrome_store_salvage_dropped_bytes_total",
            ),
        }
    }
}

/// A persistent trial store rooted at one directory. See the
/// [module docs](self) for the layout and durability model.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    config: StoreConfig,
    /// One buffer per segment file, oldest first, mirroring the file
    /// byte for byte. Records are read in place from these frames, so
    /// resident memory is the segment bytes plus `records` and
    /// `index`: a few dozen bytes per record.
    segments: Vec<SegmentBuf>,
    /// Every loaded/appended record in log order, including dead
    /// (superseded) ones.
    records: Vec<Slot>,
    /// The live record per key, by content hash.
    index: KeyIndex,
    salvage: Option<Salvage>,
    active: Option<ActiveSegment>,
    /// Whether the newest segment, as loaded, may take appends again
    /// (until the first roll or compaction).
    reuse_tail: bool,
    /// Id for the next segment file to create.
    next_segment: u64,
    /// Cached observability handles (see [`StoreMetrics`]).
    metrics: StoreMetrics,
    /// The armed one-shot fault, if any (see [`StoreFault`]).
    fault: Option<StoreFault>,
}

impl Store {
    /// Opens the store at `dir` with default tuning, creating the
    /// directory and an empty store if nothing is there yet. Loads
    /// every segment (in parallel), truncating each damaged file
    /// (atomically) at its first malformed record — see
    /// [`Store::salvage`] for what, if anything, was dropped.
    ///
    /// A directory whose `meta.json` exists but that still holds a
    /// pre-segment `trials.jsonl` log is refused with
    /// [`StoreError::BadMeta`] naming the file.
    pub fn open_or_create(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        Store::open_or_create_with(dir, StoreConfig::default())
    }

    /// [`Store::open_or_create`] with explicit tuning.
    pub fn open_or_create_with(
        dir: impl Into<PathBuf>,
        config: StoreConfig,
    ) -> Result<Store, StoreError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| StoreError::Io(dir.clone(), e))?;
        let meta_path = dir.join(META_FILE);
        if meta_path.exists() {
            check_meta(&meta_path)?;
            let log = dir.join(LOG_FILE);
            if log.exists() {
                return Err(StoreError::BadMeta(format!(
                    "{} is a pre-segment trial log, which this build no longer reads \
                     (refusing to open the store without its records)",
                    log.display()
                )));
            }
        } else {
            let mut w = json::Writer::object();
            w.field_str("magic", MAGIC);
            w.field_u64("format_version", FORMAT_VERSION);
            atomic_write(&meta_path, (w.finish() + "\n").as_bytes())?;
        }
        recover_compaction(&dir)?;
        let segments_dir = dir.join(SEGMENTS_DIR);
        fs::create_dir_all(&segments_dir).map_err(|e| StoreError::Io(segments_dir, e))?;
        let mut store = Store {
            dir,
            config,
            segments: Vec::new(),
            records: Vec::new(),
            index: KeyIndex::default(),
            salvage: None,
            active: None,
            reuse_tail: false,
            next_segment: 0,
            metrics: StoreMetrics::new(),
            fault: None,
        };
        store.load()?;
        Ok(store)
    }

    /// Opens an *existing* store at `dir`; unlike
    /// [`Store::open_or_create`] this fails if the directory is not
    /// already a store (the right behavior for read commands like
    /// `report` and `diff`, where a typo'd path should error, not
    /// materialize an empty store).
    pub fn open_existing(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let dir = dir.into();
        let meta_path = dir.join(META_FILE);
        if !meta_path.exists() {
            return Err(StoreError::BadMeta(format!(
                "{} is not a bichrome store (no {META_FILE})",
                dir.display()
            )));
        }
        Store::open_or_create(dir)
    }

    /// The directory this store lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The store's tuning knobs.
    pub fn config(&self) -> &StoreConfig {
        &self.config
    }

    /// Number of live stored trials (one per distinct key).
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the store holds no trials.
    pub fn is_empty(&self) -> bool {
        self.index.len() == 0
    }

    /// Records on disk that are superseded by a later write for the
    /// same key — reclaimable by [`Store::compact`].
    pub fn dead_records(&self) -> usize {
        self.records.len() - self.index.len()
    }

    /// The fraction of on-disk records that are dead (0.0 for an
    /// empty store).
    pub fn dead_ratio(&self) -> f64 {
        if self.records.is_empty() {
            0.0
        } else {
            self.dead_records() as f64 / self.records.len() as f64
        }
    }

    /// The live entries, in log (append) order of their current
    /// version, each copied out of its frame as it is reached.
    pub fn iter(&self) -> impl Iterator<Item = Entry> + '_ {
        self.records
            .iter()
            .filter(|slot| slot.live)
            .map(|slot| frame_at(&self.segments, slot).entry())
    }

    /// The record payload stored for `key`, if any, borrowed from its
    /// segment buffer.
    pub fn get(&self, key: &TrialKey) -> Option<&str> {
        self.get_hashed(key.content_hash(), key)
    }

    /// [`Store::get`] with the key's content hash given.
    fn get_hashed(&self, hash: u64, key: &TrialKey) -> Option<&str> {
        let frame = |i: usize| frame_at(&self.segments, &self.records[i]);
        let i = self.index.find(hash, |i| frame(i).has_key(key))?;
        Some(frame(i).record())
    }

    /// Logs the frame at `offset` of segment buffer `segment` as the
    /// newest record and makes it its key's live record.
    fn push_record(&mut self, hash: u64, segment: usize, offset: usize) {
        let slot = Slot {
            segment: u32::try_from(segment).expect("fewer than 2^32 segments"),
            live: true,
            offset,
        };
        let i = self.records.len();
        self.records.push(slot);
        let (segments, records) = (&self.segments, &self.records);
        let frame = frame_at(segments, &slot);
        let is_key = |j: usize| frame_at(segments, &records[j]).same_key(&frame);
        if let Some(old) = self.index.insert(hash, i, is_key) {
            self.records[old].live = false;
        }
    }

    /// What the last load dropped from corrupt files (`None` when
    /// everything was fully intact).
    pub fn salvage(&self) -> Option<&Salvage> {
        self.salvage.as_ref()
    }

    /// Arms a one-shot [`StoreFault`]: the next operation it applies
    /// to fires it (once) and fails as the real I/O failure would.
    /// Arming again replaces an unfired fault.
    pub fn inject_fault(&mut self, fault: StoreFault) {
        self.fault = Some(fault);
    }

    /// Fires the armed fault if it matches, consuming it.
    fn take_fault(&mut self, want: impl Fn(&StoreFault) -> bool) -> Option<StoreFault> {
        if self.fault.as_ref().is_some_and(want) {
            let fault = self.fault.take();
            bichrome_obs::counter("bichrome_store_faults_injected_total").inc();
            return fault;
        }
        None
    }

    /// The store's v2 segment files, oldest first (the active segment
    /// included once it has received an append).
    pub fn segments(&self) -> Result<Vec<PathBuf>, StoreError> {
        list_segments(&self.dir.join(SEGMENTS_DIR))
    }

    /// Appends one record to the active v2 segment, rolling to a new
    /// segment at the configured size bound. The write is flushed per
    /// [`StoreConfig::flush_every`]. A key already present is
    /// overwritten in the index (last write wins, the old record
    /// becomes dead) but producers are expected to append only
    /// missing keys.
    pub fn append(&mut self, key: TrialKey, record_json: String) -> Result<(), StoreError> {
        self.append_hashed(key.content_hash(), &key, &record_json)
    }

    /// [`Store::append`] with the key's content hash given.
    fn append_hashed(
        &mut self,
        hash: u64,
        key: &TrialKey,
        record_json: &str,
    ) -> Result<(), StoreError> {
        debug_assert!(
            !record_json.contains('\n'),
            "record payloads must be single-line JSON"
        );
        let frame = segment::encode(key, record_json).map_err(|msg| {
            StoreError::Io(
                self.dir.clone(),
                std::io::Error::new(std::io::ErrorKind::InvalidData, msg),
            )
        })?;
        if let Some(StoreFault::TornAppend { keep_bytes }) =
            self.take_fault(|f| matches!(f, StoreFault::TornAppend { .. }))
        {
            // The "crash": part of the frame reaches the disk, the
            // append fails, and the record is never indexed. The next
            // open salvages the segment back to its good prefix.
            let keep = keep_bytes.min(frame.len());
            let (segment, _) = self.write_active(&frame[..keep])?;
            let active = self.active.as_mut().expect("write_active opened it");
            let path = &self.segments[segment].path;
            active
                .writer
                .flush()
                .map_err(|e| StoreError::Io(path.clone(), e))?;
            return Err(StoreError::Io(
                path.clone(),
                std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    format!(
                        "injected fault: append torn after {keep} of {} frame bytes",
                        frame.len()
                    ),
                ),
            ));
        }
        if let Some(active) = &self.active {
            let bytes = self.segments[active.segment].bytes.len();
            if bytes + frame.len() > self.config.segment_bytes
                && bytes > segment::SEGMENT_MAGIC.len()
            {
                self.roll()?;
            }
        }
        let (segment, offset) = self.write_active(&frame)?;
        self.metrics.appends.inc();
        let active = self.active.as_mut().expect("write_active opened it");
        active.unflushed += 1;
        if active.unflushed >= self.config.flush_every.max(1) {
            let flush_started = std::time::Instant::now();
            active
                .writer
                .flush()
                .map_err(|e| StoreError::Io(self.segments[segment].path.clone(), e))?;
            active.unflushed = 0;
            self.metrics.flushes.inc();
            self.metrics
                .flush_nanos
                .observe(flush_started.elapsed().as_nanos() as u64);
        }
        self.push_record(hash, segment, offset);
        Ok(())
    }

    /// Writes `bytes` to the active segment (opening one first if
    /// needed) and mirrors them into its buffer; returns the buffer's
    /// position and the offset the bytes start at.
    fn write_active(&mut self, bytes: &[u8]) -> Result<(usize, usize), StoreError> {
        let segment = self.ensure_active()?.segment;
        let buf = &mut self.segments[segment];
        let active = self.active.as_mut().expect("active just ensured");
        active
            .writer
            .write_all(bytes)
            .map_err(|e| StoreError::Io(buf.path.clone(), e))?;
        let offset = buf.bytes.len();
        buf.bytes.extend_from_slice(bytes);
        Ok((segment, offset))
    }

    /// Flushes any buffered appends to the OS. Called automatically
    /// per [`StoreConfig::flush_every`], on roll, and on drop; call
    /// it explicitly on idle when batching is enabled.
    pub fn flush(&mut self) -> Result<(), StoreError> {
        if let Some(active) = &mut self.active {
            let flush_started = std::time::Instant::now();
            active
                .writer
                .flush()
                .map_err(|e| StoreError::Io(self.segments[active.segment].path.clone(), e))?;
            active.unflushed = 0;
            self.metrics.flushes.inc();
            self.metrics
                .flush_nanos
                .observe(flush_started.elapsed().as_nanos() as u64);
        }
        Ok(())
    }

    /// Flushes and seals the active segment; the next append starts a
    /// fresh one.
    pub fn roll(&mut self) -> Result<(), StoreError> {
        self.flush()?;
        self.active = None;
        self.reuse_tail = false;
        Ok(())
    }

    /// A full durability point: flushes and rolls the active segment,
    /// rewrites `meta.json` atomically, and runs
    /// [`Store::maybe_compact`]. This is what graceful shutdown calls.
    pub fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.metrics.checkpoints.inc();
        self.roll()?;
        let mut w = json::Writer::object();
        w.field_str("magic", MAGIC);
        w.field_u64("format_version", FORMAT_VERSION);
        let meta = self.dir.join(META_FILE);
        if self
            .take_fault(|f| matches!(f, StoreFault::FailRename))
            .is_some()
        {
            // The "crash": the temp file is written but the rename
            // never installs it — the atomic-write window. The old
            // meta.json stays valid, so a reopen loads everything the
            // roll above already flushed.
            let tmp = meta.with_extension("tmp");
            fs::write(&tmp, (w.finish() + "\n").as_bytes())
                .map_err(|e| StoreError::Io(tmp.clone(), e))?;
            return Err(StoreError::Io(
                meta,
                std::io::Error::new(
                    std::io::ErrorKind::Interrupted,
                    "injected fault: meta.json rename failed",
                ),
            ));
        }
        atomic_write(&meta, (w.finish() + "\n").as_bytes())?;
        self.maybe_compact()?;
        Ok(())
    }

    /// Runs [`Store::compact`] if the dead-record ratio has reached
    /// [`StoreConfig::compact_dead_ratio`] (and the store is at least
    /// [`StoreConfig::compact_min_records`] records). Returns whether
    /// a compaction ran.
    pub fn maybe_compact(&mut self) -> Result<bool, StoreError> {
        if self.records.len() >= self.config.compact_min_records
            && self.dead_ratio() >= self.config.compact_dead_ratio
        {
            self.compact()?;
            return Ok(true);
        }
        Ok(false)
    }

    /// Rewrites the store to exactly its live records: fresh v2
    /// segments are staged in `segments.tmp/` and installed with an
    /// atomic rename dance, after which dead records are gone.
    /// Crash-safe: opening a store repairs any interrupted window of
    /// the dance (see `recover_compaction` internals), ending with
    /// either the old data or the complete new data.
    pub fn compact(&mut self) -> Result<(), StoreError> {
        self.roll()?;
        let err = |p: &Path| {
            let p = p.to_path_buf();
            move |e| StoreError::Io(p, e)
        };
        let tmp = self.dir.join(SEGMENTS_TMP);
        if tmp.exists() {
            fs::remove_dir_all(&tmp).map_err(err(&tmp))?;
        }
        fs::create_dir_all(&tmp).map_err(err(&tmp))?;

        // Stage the live frames, byte for byte, into fresh segments.
        let segments = self.dir.join(SEGMENTS_DIR);
        let mut staged: Vec<SegmentBuf> = Vec::new();
        let mut records = Vec::with_capacity(self.len());
        let mut new_of = vec![usize::MAX; self.records.len()];
        for (i, slot) in self.records.iter().enumerate().filter(|(_, s)| s.live) {
            let frame = Frame::bytes(&self.segments[slot.segment as usize].bytes, slot.offset);
            let needs_new = staged.last().is_none_or(|seg| {
                seg.bytes.len() + frame.len() > self.config.segment_bytes
                    && seg.bytes.len() > segment::SEGMENT_MAGIC.len()
            });
            if needs_new {
                staged.push(SegmentBuf {
                    path: segments.join(segment_name(staged.len() as u64)),
                    bytes: segment::SEGMENT_MAGIC.to_vec(),
                });
            }
            let segment = u32::try_from(staged.len() - 1).expect("fewer than 2^32 segments");
            let seg = staged.last_mut().expect("segment just ensured");
            new_of[i] = records.len();
            records.push(Slot {
                segment,
                live: true,
                offset: seg.bytes.len(),
            });
            seg.bytes.extend_from_slice(frame);
        }
        for seg in &staged {
            let path = tmp.join(seg.path.file_name().expect("segment paths name a file"));
            fs::write(&path, &seg.bytes).map_err(err(&path))?;
        }

        // Install: segments → segments.old, segments.tmp → segments,
        // then delete the superseded data. `open` repairs any crash
        // window in between.
        let old = self.dir.join(SEGMENTS_OLD);
        if old.exists() {
            fs::remove_dir_all(&old).map_err(err(&old))?;
        }
        fs::rename(&segments, &old).map_err(err(&segments))?;
        fs::rename(&tmp, &segments).map_err(err(&tmp))?;
        fs::remove_dir_all(&old).map_err(err(&old))?;

        // The in-memory state now mirrors the compacted disk.
        self.index.renumber(&new_of);
        self.next_segment = staged.len() as u64;
        self.segments = staged;
        self.records = records;
        self.reuse_tail = false;
        Ok(())
    }

    /// Unions two stores into a third at `out_dir` (created via
    /// [`Store::open_or_create`], so it may also be an existing store
    /// to merge *into*). Records agreeing on key and payload dedupe;
    /// two different payloads for the same key are a
    /// [`StoreError::MergeConflict`] — the key pins the computation
    /// completely, so disagreement means one side is wrong and no
    /// silent winner is picked. On conflict the output directory is
    /// left with whatever was merged before the conflict was found.
    pub fn merge(a: &Store, b: &Store, out_dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
        let mut out = Store::open_or_create(out_dir)?;
        for entry in a.iter().chain(b.iter()) {
            match out.get(&entry.key) {
                Some(existing) if existing == entry.record_json => {}
                Some(_) => return Err(StoreError::MergeConflict { key: entry.key }),
                None => out.append(entry.key, entry.record_json)?,
            }
        }
        out.flush()?;
        Ok(out)
    }

    /// Opens (or creates) the segment that appends go to: the loaded
    /// tail segment if it still has room, else a fresh file.
    fn ensure_active(&mut self) -> Result<&mut ActiveSegment, StoreError> {
        if self.active.is_none() {
            let reuse = std::mem::take(&mut self.reuse_tail)
                && self
                    .segments
                    .last()
                    .is_some_and(|seg| seg.bytes.len() < self.config.segment_bytes);
            let path = match self.segments.last() {
                Some(tail) if reuse => tail.path.clone(),
                _ => {
                    let name = segment_name(self.next_segment);
                    self.next_segment += 1;
                    self.dir.join(SEGMENTS_DIR).join(name)
                }
            };
            let err = |e| StoreError::Io(path.clone(), e);
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .open(&path)
                .map_err(err)?;
            let mut writer = BufWriter::new(file);
            if !reuse {
                writer
                    .write_all(segment::SEGMENT_MAGIC)
                    .and_then(|()| writer.flush())
                    .map_err(err)?;
                self.segments.push(SegmentBuf {
                    path,
                    bytes: segment::SEGMENT_MAGIC.to_vec(),
                });
            }
            self.active = Some(ActiveSegment {
                segment: self.segments.len() - 1,
                writer,
                unflushed: 0,
            });
        }
        Ok(self.active.as_mut().expect("active just ensured"))
    }

    /// Loads every segment: each file's bytes become its buffer and
    /// every verified frame in it a record. Damage is truncated away
    /// per file (atomically) and aggregated into one [`Salvage`]
    /// report.
    fn load(&mut self) -> Result<(), StoreError> {
        let mut dropped_bytes = 0usize;
        let mut first_error: Option<String> = None;

        // The segments, oldest first; verified in parallel, applied in
        // order.
        let paths = list_segments(&self.dir.join(SEGMENTS_DIR))?;
        self.metrics.segments_loaded.add(paths.len() as u64);
        for (path, loaded) in paths.iter().zip(load_segments(&paths)) {
            let (mut bytes, scan) = loaded.map_err(|e| StoreError::Io(path.clone(), e))?;
            if let Some(e) = scan.error {
                dropped_bytes += bytes.len() - scan.good_bytes;
                first_error.get_or_insert(e);
                // Repair: truncate this segment to its good prefix
                // (drop it entirely if even the header is gone) so
                // future appends extend clean data. Other segments
                // are unaffected.
                if scan.good_bytes == 0 {
                    fs::remove_file(path).map_err(|e| StoreError::Io(path.clone(), e))?;
                    continue;
                }
                bytes.truncate(scan.good_bytes);
                atomic_write(path, &bytes)?;
            }
            let segment = self.segments.len();
            self.segments.push(SegmentBuf {
                path: path.clone(),
                bytes,
            });
            for (offset, hash) in scan.frames {
                self.push_record(hash, segment, offset);
            }
        }

        // The newest surviving segment is the append tail.
        self.reuse_tail = true;
        self.next_segment = paths
            .last()
            .and_then(|p| segment_id(p))
            .map_or(0, |id| id + 1);

        if let Some(error) = first_error {
            self.metrics.salvage_dropped_bytes.add(dropped_bytes as u64);
            self.salvage = Some(Salvage {
                kept: self.index.len(),
                dropped_bytes,
                error,
            });
        }
        Ok(())
    }
}

impl Drop for Store {
    fn drop(&mut self) {
        // Best-effort: push any batched appends to the OS. (BufWriter
        // would flush on drop anyway; doing it here keeps the intent
        // explicit and ignores errors in one place.)
        let _ = self.flush();
    }
}

/// Reads and verifies every segment, in the given order. The paths are
/// cut into one contiguous share per available core, and each share
/// is read on its own scoped thread (the calling thread takes the
/// first), so one core loads serially.
fn load_segments(paths: &[PathBuf]) -> Vec<std::io::Result<(Vec<u8>, segment::SegmentScan)>> {
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let load = |share: &[PathBuf]| -> Vec<_> {
        share
            .iter()
            .map(|path| {
                let bytes = fs::read(path)?;
                let scan = segment::decode_all(&bytes);
                Ok((bytes, scan))
            })
            .collect()
    };
    let mut shares = paths.chunks(paths.len().div_ceil(cores).max(1));
    std::thread::scope(|scope| {
        let first = shares.next().unwrap_or_default();
        let rest: Vec<_> = shares
            .map(|share| scope.spawn(move || load(share)))
            .collect();
        let mut loaded = load(first);
        for handle in rest {
            match handle.join() {
                Ok(share) => loaded.extend(share),
                Err(panic) => std::panic::resume_unwind(panic),
            }
        }
        loaded
    })
}

/// The frame a slot points at.
fn frame_at<'a>(segments: &'a [SegmentBuf], slot: &Slot) -> Frame<'a> {
    Frame::at(&segments[slot.segment as usize].bytes, slot.offset)
}

/// The canonical filename for segment `id`.
fn segment_name(id: u64) -> String {
    format!("seg-{id:08}.bcs")
}

/// Parses a segment id back out of a filename (ignores foreign
/// files).
fn segment_id(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix("seg-")?
        .strip_suffix(".bcs")?
        .parse()
        .ok()
}

/// The store's segment files, sorted oldest-id first. A missing
/// directory is an empty list.
fn list_segments(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut paths: Vec<(u64, PathBuf)> = Vec::new();
    let read = match fs::read_dir(dir) {
        Ok(read) => read,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(StoreError::Io(dir.to_path_buf(), e)),
    };
    for dirent in read {
        let dirent = dirent.map_err(|e| StoreError::Io(dir.to_path_buf(), e))?;
        let path = dirent.path();
        if let Some(id) = segment_id(&path) {
            paths.push((id, path));
        }
    }
    paths.sort();
    Ok(paths.into_iter().map(|(_, p)| p).collect())
}

/// Repairs a compaction interrupted by a crash. The dance in
/// [`Store::compact`] is: stage `segments.tmp`, rename `segments` →
/// `segments.old`, rename `segments.tmp` → `segments`, delete
/// `segments.old`. Each window leaves a distinct directory shape, so
/// recovery is unambiguous:
///
/// * `tmp` + `segments` (no `old`): crashed before the commit point —
///   the staging dir may be incomplete, discard it.
/// * `tmp` + `old` (no `segments`): crashed mid-commit — the staging
///   dir is complete (it's written and flushed before any rename), so
///   finish the dance.
/// * `old` + `segments` (no `tmp`): crashed after the commit — just
///   delete the superseded data.
fn recover_compaction(dir: &Path) -> Result<(), StoreError> {
    let err = |p: &Path| {
        let p = p.to_path_buf();
        move |e| StoreError::Io(p, e)
    };
    let segments = dir.join(SEGMENTS_DIR);
    let tmp = dir.join(SEGMENTS_TMP);
    let old = dir.join(SEGMENTS_OLD);
    if tmp.exists() {
        if !segments.exists() && old.exists() {
            fs::rename(&tmp, &segments).map_err(err(&tmp))?;
        } else {
            fs::remove_dir_all(&tmp).map_err(err(&tmp))?;
            return Ok(());
        }
    }
    if old.exists() {
        if segments.exists() {
            fs::remove_dir_all(&old).map_err(err(&old))?;
        } else {
            // No promoted segments at all: restore the superseded
            // data rather than lose it.
            fs::rename(&old, &segments).map_err(err(&old))?;
        }
    }
    Ok(())
}

/// Verifies an existing `meta.json`.
fn check_meta(path: &Path) -> Result<(), StoreError> {
    let text = fs::read_to_string(path).map_err(|e| StoreError::Io(path.to_path_buf(), e))?;
    let v = json::Value::parse(&text)
        .map_err(|e| StoreError::BadMeta(format!("meta.json does not parse: {e}")))?;
    let obj = v
        .as_object()
        .ok_or_else(|| StoreError::BadMeta("meta.json is not an object".to_string()))?;
    match obj.get("magic").and_then(json::Value::as_str) {
        Some(MAGIC) => {}
        other => {
            return Err(StoreError::BadMeta(format!(
                "meta.json magic is {other:?}, expected {MAGIC:?}"
            )))
        }
    }
    let found = obj
        .get("format_version")
        .and_then(json::Value::as_u64)
        .ok_or_else(|| StoreError::BadMeta("meta.json has no format_version".to_string()))?;
    if found != FORMAT_VERSION {
        return Err(StoreError::VersionMismatch {
            found,
            expected: FORMAT_VERSION,
        });
    }
    Ok(())
}

/// Writes a file atomically: content goes to a sibling temp file
/// which is then renamed over the target, so readers (and crashes)
/// see either the old content or the new, never a torn write.
fn atomic_write(path: &Path, content: &[u8]) -> Result<(), StoreError> {
    let err = |e| StoreError::Io(path.to_path_buf(), e);
    let tmp = path.with_extension("tmp");
    {
        let mut file = File::create(&tmp).map_err(err)?;
        file.write_all(content)
            .and_then(|()| file.flush())
            .map_err(err)?;
    }
    fs::rename(&tmp, path).map_err(err)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A unique scratch directory (removed on drop).
    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            use std::sync::atomic::{AtomicU64, Ordering};
            static COUNTER: AtomicU64 = AtomicU64::new(0);
            let dir = std::env::temp_dir().join(format!(
                "bichrome-store-test-{tag}-{}-{}",
                std::process::id(),
                COUNTER.fetch_add(1, Ordering::Relaxed)
            ));
            TempDir(dir)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(seed: u64) -> TrialKey {
        TrialKey {
            protocol: "edge/theorem2".to_string(),
            graph: "near-regular(n=24,d=4)".to_string(),
            partitioner: "alternating".to_string(),
            seed,
        }
    }

    /// The newest segment file of a store directory.
    fn newest_segment(dir: &Path) -> PathBuf {
        list_segments(&dir.join(SEGMENTS_DIR))
            .expect("list segments")
            .last()
            .cloned()
            .expect("at least one segment")
    }

    #[test]
    fn append_then_reopen_round_trips() {
        let tmp = TempDir::new("roundtrip");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        assert!(store.is_empty());
        store
            .append(key(0), r#"{"bits":12,"ok":true}"#.to_string())
            .expect("append");
        store
            .append(key(1), r#"{"bits":9,"ok":true}"#.to_string())
            .expect("append");
        drop(store);

        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 2);
        assert!(store.salvage().is_none());
        assert_eq!(store.get(&key(0)), Some(r#"{"bits":12,"ok":true}"#));
        assert_eq!(store.get(&key(1)), Some(r#"{"bits":9,"ok":true}"#));
        assert_eq!(store.get(&key(2)), None);
        let keys: Vec<u64> = store.iter().map(|e| e.key.seed).collect();
        assert_eq!(keys, vec![0, 1], "log order is append order");
    }

    #[test]
    fn obs_counters_track_appends_flushes_and_checkpoints() {
        // The registry is process-wide and other tests append too, so
        // assert deltas, not absolutes.
        let appends = bichrome_obs::counter("bichrome_store_appends_total");
        let flushes = bichrome_obs::counter("bichrome_store_flushes_total");
        let checkpoints = bichrome_obs::counter("bichrome_store_checkpoints_total");
        let (a0, f0, c0) = (appends.get(), flushes.get(), checkpoints.get());
        let tmp = TempDir::new("obs");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        for seed in 0..5 {
            store
                .append(key(seed), r#"{"bits":1,"ok":true}"#.to_string())
                .expect("append");
        }
        store.checkpoint().expect("checkpoint");
        assert!(appends.get() >= a0 + 5, "five appends recorded");
        assert!(flushes.get() >= f0 + 5, "flush_every=1 flushes per append");
        assert!(checkpoints.get() > c0, "one checkpoint recorded");
    }

    #[test]
    fn content_hash_distinguishes_every_field() {
        let base = key(3);
        let mut variants = vec![base.clone()];
        variants.push(TrialKey {
            protocol: "vertex/theorem1".to_string(),
            ..base.clone()
        });
        variants.push(TrialKey {
            graph: "near-regular(n=24,d=5)".to_string(),
            ..base.clone()
        });
        variants.push(TrialKey {
            partitioner: "all-to-bob".to_string(),
            ..base.clone()
        });
        variants.push(TrialKey { seed: 4, ..base });
        let hashes: Vec<u64> = variants.iter().map(TrialKey::content_hash).collect();
        for i in 0..hashes.len() {
            for j in i + 1..hashes.len() {
                assert_ne!(hashes[i], hashes[j], "{} vs {}", variants[i], variants[j]);
            }
        }
        // And a field boundary shift does not collide: moving a
        // character between adjacent fields changes the hash.
        let a = TrialKey {
            protocol: "ab".to_string(),
            graph: "c".to_string(),
            ..key(0)
        };
        let b = TrialKey {
            protocol: "a".to_string(),
            graph: "bc".to_string(),
            ..key(0)
        };
        assert_ne!(a.content_hash(), b.content_hash());
    }

    #[test]
    fn truncated_segment_salvages_the_good_prefix() {
        let tmp = TempDir::new("salvage");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        for seed in 0..5 {
            store
                .append(key(seed), format!(r#"{{"seed":{seed}}}"#))
                .expect("append");
        }
        drop(store);

        // Tear the segment mid-frame, as a crash mid-append would.
        let seg = newest_segment(&tmp.0);
        let bytes = fs::read(&seg).expect("read segment");
        fs::write(&seg, &bytes[..bytes.len() - 17]).expect("truncate");

        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 4, "good prefix survives");
        let salvage = store.salvage().expect("salvage reported");
        assert_eq!(salvage.kept, 4);
        assert!(salvage.dropped_bytes > 0);
        assert!(store.get(&key(3)).is_some());
        assert_eq!(store.get(&key(4)), None, "torn record is gone");
        drop(store);

        // The repair rewrote the segment: a fresh open is clean.
        let store = Store::open_or_create(&tmp.0).expect("after repair");
        assert_eq!(store.len(), 4);
        assert!(store.salvage().is_none(), "repaired segment loads clean");
    }

    #[test]
    fn injected_torn_append_salvages_and_resume_recomputes_the_lost_tail() {
        let tmp = TempDir::new("inject-torn");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        for seed in 0..3 {
            store
                .append(key(seed), format!(r#"{{"seed":{seed}}}"#))
                .expect("append");
        }

        // The chaos point: the next append "crashes" nine bytes in.
        store.inject_fault(StoreFault::TornAppend { keep_bytes: 9 });
        let err = store
            .append(key(3), r#"{"seed":3}"#.to_string())
            .expect_err("injected tear must surface as an append failure");
        assert!(err.to_string().contains("injected fault"), "{err}");
        assert_eq!(store.get(&key(3)), None, "the torn record is not indexed");
        drop(store);

        // Reopen: the salvage keeps exactly the pre-tear records and
        // truncates the partial frame away.
        let mut store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 3, "good prefix survives the tear");
        let salvage = store.salvage().expect("salvage reported");
        assert_eq!(salvage.kept, 3);
        assert_eq!(salvage.dropped_bytes, 9, "exactly the torn bytes dropped");

        // Resume recomputes exactly the lost tail: one append makes
        // the store whole, and the next open is pristine.
        store
            .append(key(3), r#"{"seed":3}"#.to_string())
            .expect("resume append");
        drop(store);
        let store = Store::open_or_create(&tmp.0).expect("after resume");
        assert_eq!(store.len(), 4);
        assert!(store.salvage().is_none(), "resumed store loads clean");
        assert_eq!(store.get(&key(3)), Some(r#"{"seed":3}"#));
    }

    #[test]
    fn injected_rename_failure_never_loses_flushed_records() {
        let tmp = TempDir::new("inject-rename");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        for seed in 0..4 {
            store
                .append(key(seed), format!(r#"{{"seed":{seed}}}"#))
                .expect("append");
        }

        // The chaos point: the checkpoint's meta.json install fails
        // inside the atomic-write window (temp written, no rename).
        store.inject_fault(StoreFault::FailRename);
        let err = store
            .checkpoint()
            .expect_err("injected rename failure must surface");
        assert!(err.to_string().contains("injected fault"), "{err}");
        drop(store);

        // The old meta is still valid and the roll flushed every
        // record: a reopen loses nothing.
        let mut store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 4);
        assert!(store.salvage().is_none());
        // The fault was one-shot: the next checkpoint succeeds.
        store.checkpoint().expect("clean checkpoint");
    }

    #[test]
    fn damage_is_contained_to_one_segment() {
        // Tearing one segment must not discard records in any other —
        // the per-segment salvage that makes a million-record store
        // robust.
        let tmp = TempDir::new("contained");
        let config = StoreConfig {
            segment_bytes: 1, // every record rolls a new segment
            ..StoreConfig::default()
        };
        let mut store = Store::open_or_create_with(&tmp.0, config).expect("create");
        for seed in 0..4 {
            store
                .append(key(seed), format!(r#"{{"seed":{seed}}}"#))
                .expect("append");
        }
        drop(store);
        let segments = list_segments(&tmp.0.join(SEGMENTS_DIR)).expect("list");
        assert_eq!(segments.len(), 4, "one record per segment");

        // Corrupt the *second* segment.
        let bytes = fs::read(&segments[1]).expect("read");
        fs::write(&segments[1], &bytes[..bytes.len() - 5]).expect("truncate");

        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 3, "only the torn segment's record is lost");
        assert!(store.get(&key(0)).is_some());
        assert_eq!(store.get(&key(1)), None);
        assert!(store.get(&key(2)).is_some(), "later segments survive");
        assert!(store.get(&key(3)).is_some());
        assert!(store.salvage().is_some());
    }

    #[test]
    fn garbage_segment_tail_ends_its_prefix_and_is_dropped() {
        let tmp = TempDir::new("garbage");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        store
            .append(key(0), r#"{"seed":0}"#.to_string())
            .expect("append");
        drop(store);
        let seg = newest_segment(&tmp.0);
        let mut bytes = fs::read(&seg).expect("read");
        bytes.extend_from_slice(b"this is not a frame");
        fs::write(&seg, bytes).expect("write");

        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 1);
        assert!(store.salvage().is_some());
    }

    #[test]
    fn tampered_payload_is_rejected() {
        // Corruption of the *record payload* must fail the frame's
        // integrity hash — a flipped measurement is as wrong as a
        // flipped identity.
        let tmp = TempDir::new("tamper");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        store
            .append(key(0), r#"{"bits":12}"#.to_string())
            .expect("append");
        drop(store);
        let seg = newest_segment(&tmp.0);
        let mut bytes = fs::read(&seg).expect("read");
        let at = bytes.len() - 3; // inside the payload
        bytes[at] ^= 0x01;
        fs::write(&seg, bytes).expect("write");

        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 0, "hash mismatch drops the frame");
        let salvage = store.salvage().expect("salvage reported");
        assert!(
            salvage.error.contains("integrity hash"),
            "{}",
            salvage.error
        );
    }

    #[test]
    fn version_mismatch_is_an_error_not_a_reinterpretation() {
        let tmp = TempDir::new("version");
        Store::open_or_create(&tmp.0).expect("create");
        let meta = tmp.0.join(META_FILE);
        fs::write(&meta, r#"{"magic":"bichrome-store","format_version":999}"#).expect("write meta");
        match Store::open_or_create(&tmp.0) {
            Err(StoreError::VersionMismatch { found, expected }) => {
                assert_eq!(found, 999);
                assert_eq!(expected, FORMAT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }

    #[test]
    fn a_leftover_pre_segment_log_is_refused_not_ignored() {
        let tmp = TempDir::new("oldlog");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        store
            .append(key(0), r#"{"seed":0}"#.to_string())
            .expect("append");
        drop(store);
        fs::write(tmp.0.join(LOG_FILE), "{}\n").expect("write log");
        let opens: [fn(PathBuf) -> Result<Store, StoreError>; 2] =
            [Store::open_or_create, Store::open_existing];
        for open in opens {
            match open(tmp.0.clone()) {
                Err(StoreError::BadMeta(msg)) => assert!(msg.contains(LOG_FILE), "{msg}"),
                other => panic!("expected BadMeta naming {LOG_FILE}, got {other:?}"),
            }
        }
    }

    #[test]
    fn open_existing_rejects_non_stores() {
        let tmp = TempDir::new("existing");
        assert!(matches!(
            Store::open_existing(&tmp.0),
            Err(StoreError::BadMeta(_))
        ));
        Store::open_or_create(&tmp.0).expect("create");
        assert!(Store::open_existing(&tmp.0).is_ok());
    }

    #[test]
    fn record_payloads_with_nested_structure_round_trip() {
        let tmp = TempDir::new("nested");
        let payload =
            r#"{"label":"gnp(n=30,p=0.15)","metrics":{"rct_remaining":0.5},"error":null}"#;
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        store.append(key(7), payload.to_string()).expect("append");
        drop(store);
        let store = Store::open_or_create(&tmp.0).expect("reopen");
        // The payload is stored as raw bytes, so it round-trips
        // byte-exactly.
        assert_eq!(store.get(&key(7)), Some(payload));
    }

    #[test]
    fn full_range_seeds_round_trip_exactly() {
        // u64::MAX does not fit in an f64; the binary frame stores
        // the seed as a little-endian u64, so the full range must
        // survive (the content hash would fail otherwise and the
        // frame would be dropped as corrupt).
        let tmp = TempDir::new("bigseed");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        for seed in [u64::MAX, u64::MAX - 1, 1 << 60] {
            store
                .append(key(seed), r#"{"ok":true}"#.to_string())
                .expect("append");
        }
        drop(store);
        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert!(store.salvage().is_none());
        for seed in [u64::MAX, u64::MAX - 1, 1 << 60] {
            assert_eq!(store.get(&key(seed)), Some(r#"{"ok":true}"#), "{seed}");
        }
    }

    #[test]
    fn segments_roll_at_the_size_bound() {
        let tmp = TempDir::new("roll");
        let config = StoreConfig {
            segment_bytes: 256,
            ..StoreConfig::default()
        };
        let mut store = Store::open_or_create_with(&tmp.0, config).expect("create");
        for seed in 0..20 {
            store
                .append(key(seed), format!(r#"{{"seed":{seed}}}"#))
                .expect("append");
        }
        let segments = store.segments().expect("list");
        assert!(
            segments.len() > 1,
            "20 × ~90-byte records at a 256-byte bound must roll"
        );
        for path in &segments {
            let len = fs::metadata(path).expect("stat").len();
            // Bound + one frame of slack (rolls happen before the
            // append that would overflow).
            assert!(len <= 256 + 128, "{}: {len} bytes", path.display());
        }
        drop(store);
        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 20, "all records load across segments");
    }

    #[test]
    fn reopen_continues_the_tail_segment_until_full() {
        let tmp = TempDir::new("tailreuse");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        store
            .append(key(0), r#"{"seed":0}"#.to_string())
            .expect("append");
        drop(store);
        let mut store = Store::open_or_create(&tmp.0).expect("reopen");
        store
            .append(key(1), r#"{"seed":1}"#.to_string())
            .expect("append");
        drop(store);
        assert_eq!(
            list_segments(&tmp.0.join(SEGMENTS_DIR))
                .expect("list")
                .len(),
            1,
            "a small tail segment keeps taking appends across opens"
        );
        let store = Store::open_or_create(&tmp.0).expect("final");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn batched_writes_stay_buffered_until_flush() {
        let tmp = TempDir::new("batch");
        let config = StoreConfig {
            flush_every: 100,
            ..StoreConfig::default()
        };
        let mut store = Store::open_or_create_with(&tmp.0, config).expect("create");
        for seed in 0..5 {
            store
                .append(key(seed), format!(r#"{{"seed":{seed}}}"#))
                .expect("append");
        }
        let seg = newest_segment(&tmp.0);
        let on_disk = fs::metadata(&seg).expect("stat").len() as usize;
        assert_eq!(
            on_disk,
            segment::SEGMENT_MAGIC.len(),
            "with flush_every=100, 5 appends sit in the buffer"
        );
        store.flush().expect("flush");
        let on_disk = fs::metadata(&seg).expect("stat").len() as usize;
        assert!(on_disk > segment::SEGMENT_MAGIC.len(), "flush lands them");
        drop(store);
        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 5);
    }

    #[test]
    fn drop_flushes_batched_writes() {
        let tmp = TempDir::new("dropflush");
        let config = StoreConfig {
            flush_every: 1_000,
            ..StoreConfig::default()
        };
        let mut store = Store::open_or_create_with(&tmp.0, config).expect("create");
        for seed in 0..7 {
            store
                .append(key(seed), format!(r#"{{"seed":{seed}}}"#))
                .expect("append");
        }
        drop(store);
        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 7, "drop flushed the batch");
    }

    #[test]
    fn checkpoint_rolls_and_rewrites_meta() {
        let tmp = TempDir::new("checkpoint");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        store
            .append(key(0), r#"{"seed":0}"#.to_string())
            .expect("append");
        store.checkpoint().expect("checkpoint");
        store
            .append(key(1), r#"{"seed":1}"#.to_string())
            .expect("append");
        drop(store);
        assert_eq!(
            list_segments(&tmp.0.join(SEGMENTS_DIR))
                .expect("list")
                .len(),
            2,
            "checkpoint seals the active segment"
        );
        let meta = fs::read_to_string(tmp.0.join(META_FILE)).expect("meta");
        assert!(meta.contains("bichrome-store"));
        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 2);
    }

    #[test]
    fn compaction_drops_dead_records() {
        let tmp = TempDir::new("compact");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        store
            .append(key(0), r#"{"v":"old"}"#.to_string())
            .expect("append");
        drop(store);
        let mut store = Store::open_or_create(&tmp.0).expect("reopen");
        // Supersede the stored record and add a fresh one.
        store
            .append(key(0), r#"{"v":"new"}"#.to_string())
            .expect("append");
        store
            .append(key(1), r#"{"v":"b"}"#.to_string())
            .expect("append");
        assert_eq!(store.dead_records(), 1);
        assert!(store.dead_ratio() > 0.3);
        store.compact().expect("compact");
        assert_eq!(store.dead_records(), 0);
        assert_eq!(store.len(), 2);
        assert_eq!(store.get(&key(0)), Some(r#"{"v":"new"}"#));
        assert!(!tmp.0.join(SEGMENTS_OLD).exists());
        assert!(!tmp.0.join(SEGMENTS_TMP).exists());
        drop(store);
        let store = Store::open_or_create(&tmp.0).expect("reopen");
        assert_eq!(store.len(), 2);
        assert_eq!(store.dead_records(), 0);
        assert_eq!(store.get(&key(0)), Some(r#"{"v":"new"}"#));
        assert_eq!(store.get(&key(1)), Some(r#"{"v":"b"}"#));
    }

    #[test]
    fn maybe_compact_respects_the_thresholds() {
        let tmp = TempDir::new("maybe");
        let config = StoreConfig {
            compact_min_records: 4,
            compact_dead_ratio: 0.5,
            ..StoreConfig::default()
        };
        let mut store = Store::open_or_create_with(&tmp.0, config).expect("create");
        store
            .append(key(0), r#"{"v":1}"#.to_string())
            .expect("append");
        store
            .append(key(0), r#"{"v":2}"#.to_string())
            .expect("append");
        // 50% dead but below min_records.
        assert!(!store.maybe_compact().expect("check"), "too few records");
        store
            .append(key(0), r#"{"v":3}"#.to_string())
            .expect("append");
        store
            .append(key(0), r#"{"v":4}"#.to_string())
            .expect("append");
        // 4 records, 75% dead.
        assert!(store.maybe_compact().expect("check"), "threshold reached");
        assert_eq!(store.len(), 1);
        assert_eq!(store.get(&key(0)), Some(r#"{"v":4}"#));
    }

    #[test]
    fn interrupted_compaction_recovers_at_open() {
        // Simulate every crash window of the rename dance and check
        // that reopening sees either the old data or the complete new
        // data — never a loss.
        let records: Vec<(TrialKey, String)> = (0..3)
            .map(|seed| (key(seed), format!(r#"{{"seed":{seed}}}"#)))
            .collect();
        let populate = |dir: &Path| {
            let mut store = Store::open_or_create(dir).expect("create");
            for (k, r) in &records {
                store.append(k.clone(), r.clone()).expect("append");
            }
        };
        let check_all = |dir: &Path| {
            let store = Store::open_or_create(dir).expect("recovering open");
            assert_eq!(store.len(), 3);
            for (k, r) in &records {
                assert_eq!(store.get(k), Some(r.as_str()));
            }
            assert!(!dir.join(SEGMENTS_TMP).exists());
            assert!(!dir.join(SEGMENTS_OLD).exists());
        };

        // Window 1: crash before the commit point (tmp staged,
        // segments still in place). The half-staged tmp is discarded.
        let tmp = TempDir::new("crash1");
        populate(&tmp.0);
        fs::create_dir_all(tmp.0.join(SEGMENTS_TMP)).expect("stage");
        fs::write(tmp.0.join(SEGMENTS_TMP).join(segment_name(0)), b"junk").expect("junk");
        check_all(&tmp.0);

        // Window 2: crash mid-commit (segments renamed away, tmp not
        // yet promoted). The complete tmp is promoted.
        let tmp = TempDir::new("crash2");
        populate(&tmp.0);
        fs::rename(tmp.0.join(SEGMENTS_DIR), tmp.0.join(SEGMENTS_TMP)).expect("stage=real");
        // A leftover "old" from the dance: stale junk that must lose.
        fs::create_dir_all(tmp.0.join(SEGMENTS_OLD)).expect("old");
        check_all(&tmp.0);

        // Window 3: crash after the commit (old not yet deleted).
        let tmp = TempDir::new("crash3");
        populate(&tmp.0);
        fs::create_dir_all(tmp.0.join(SEGMENTS_OLD)).expect("old");
        fs::write(tmp.0.join(SEGMENTS_OLD).join(segment_name(0)), b"junk").expect("junk");
        check_all(&tmp.0);
    }

    #[test]
    fn merge_unions_disjoint_and_agreeing_stores() {
        let (ta, tb, tout) = (
            TempDir::new("merge-a"),
            TempDir::new("merge-b"),
            TempDir::new("merge-out"),
        );
        let mut a = Store::open_or_create(&ta.0).expect("a");
        a.append(key(0), r#"{"v":"x"}"#.to_string()).expect("a0");
        a.append(key(1), r#"{"v":"y"}"#.to_string()).expect("a1");
        let mut b = Store::open_or_create(&tb.0).expect("b");
        b.append(key(1), r#"{"v":"y"}"#.to_string()).expect("b1");
        b.append(key(2), r#"{"v":"z"}"#.to_string()).expect("b2");

        let out = Store::merge(&a, &b, &tout.0).expect("merge");
        assert_eq!(out.len(), 3, "agreeing overlap dedupes");
        assert_eq!(out.get(&key(0)), Some(r#"{"v":"x"}"#));
        assert_eq!(out.get(&key(1)), Some(r#"{"v":"y"}"#));
        assert_eq!(out.get(&key(2)), Some(r#"{"v":"z"}"#));
        drop(out);
        let out = Store::open_or_create(&tout.0).expect("reopen");
        assert_eq!(out.len(), 3, "merged store persists");
    }

    #[test]
    fn keys_sharing_a_content_hash_stay_two_records() {
        // Force three different keys onto one content hash: the index
        // must tell them apart by the keys in their frames.
        const HASH: u64 = 42;
        let tmp = TempDir::new("collide");
        let mut store = Store::open_or_create(&tmp.0).expect("create");
        for (seed, v) in [(0, "a"), (1, "b"), (2, "c")] {
            store
                .append_hashed(HASH, &key(seed), &format!(r#"{{"v":"{v}"}}"#))
                .expect("append");
        }
        assert_eq!(store.index.collisions.len(), 2, "two keys overflow");
        let check = |store: &Store, want: [&str; 3], dead: usize| {
            assert_eq!(store.len(), 3);
            assert_eq!(store.dead_records(), dead);
            for (seed, v) in (0..3).zip(want) {
                let record = format!(r#"{{"v":"{v}"}}"#);
                assert_eq!(store.get_hashed(HASH, &key(seed)), Some(record.as_str()));
            }
            assert_eq!(store.get_hashed(HASH, &key(3)), None, "a fourth key misses");
        };
        check(&store, ["a", "b", "c"], 0);

        // Superseding one key leaves the keys sharing its hash alone,
        // whether it sits in the map or in the overflow list.
        store
            .append_hashed(HASH, &key(1), r#"{"v":"b2"}"#)
            .expect("supersede b");
        check(&store, ["a", "b2", "c"], 1);
        store
            .append_hashed(HASH, &key(0), r#"{"v":"a2"}"#)
            .expect("supersede a");
        check(&store, ["a2", "b2", "c"], 2);
        let order = |store: &Store| store.iter().map(|e| e.key.seed).collect::<Vec<_>>();
        assert_eq!(order(&store), vec![2, 1, 0]);

        // Compaction renumbers the map and the overflow list alike.
        store.compact().expect("compact");
        check(&store, ["a2", "b2", "c"], 0);
        assert_eq!(order(&store), vec![2, 1, 0]);
    }

    /// One CRC-32 over every segment file's bytes, oldest first.
    fn segments_crc(store: &Store) -> u32 {
        let files: Vec<Vec<u8>> = store
            .segments()
            .expect("list")
            .iter()
            .map(|path| fs::read(path).expect("read segment"))
            .collect();
        let parts: Vec<&[u8]> = files.iter().map(Vec::as_slice).collect();
        bichrome_comm::transport::crc32(&parts)
    }

    #[test]
    fn segment_bytes_are_pinned_across_appends_and_compaction() {
        // The on-disk format pin: fixed records, written by appends
        // (rolling at a small bound, one key superseded) and again
        // after a compaction, must produce these exact bytes.
        let tmp = TempDir::new("format-pin");
        let config = StoreConfig {
            segment_bytes: 256,
            ..StoreConfig::default()
        };
        let mut store = Store::open_or_create_with(&tmp.0, config).expect("create");
        for seed in [0, 1, 2, u64::MAX] {
            store
                .append(key(seed), format!(r#"{{"seed":{seed},"ok":true}}"#))
                .expect("append");
        }
        let other = TrialKey {
            protocol: "vertex/theorem1".to_string(),
            graph: "gnp(n=30,p=0.15)".to_string(),
            partitioner: "random(7)".to_string(),
            seed: 9,
        };
        store
            .append(other, r#"{"bits":12,"colors":[0,1]}"#.to_string())
            .expect("append");
        store
            .append(key(1), r#"{"seed":1,"ok":false}"#.to_string())
            .expect("supersede");
        store.flush().expect("flush");
        assert_eq!(store.segments().expect("list").len(), 3);
        assert_eq!(segments_crc(&store), 0xF771_F677, "appended segment bytes");
        store.compact().expect("compact");
        assert_eq!(store.segments().expect("list").len(), 3);
        assert_eq!(segments_crc(&store), 0xE585_9CCB, "compacted segment bytes");
    }

    #[test]
    fn merge_refuses_conflicting_records() {
        let (ta, tb, tout) = (
            TempDir::new("conflict-a"),
            TempDir::new("conflict-b"),
            TempDir::new("conflict-out"),
        );
        let mut a = Store::open_or_create(&ta.0).expect("a");
        a.append(key(0), r#"{"v":"left"}"#.to_string()).expect("a0");
        let mut b = Store::open_or_create(&tb.0).expect("b");
        b.append(key(0), r#"{"v":"right"}"#.to_string())
            .expect("b0");
        match Store::merge(&a, &b, &tout.0) {
            Err(StoreError::MergeConflict { key: k }) => assert_eq!(k, key(0)),
            other => panic!("expected MergeConflict, got {other:?}"),
        }
    }
}
