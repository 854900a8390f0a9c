//! Content-addressed verdict caching.
//!
//! Every analysis verdict is a pure function of (program, verdict-
//! relevant feature toggles, session bound). This module derives a
//! stable 256-bit [`CacheKey`] from those inputs and stores encoded
//! reports ([`crate::AnalysisResult::encode_report`]) in a two-tier
//! [`VerdictCache`]:
//!
//! * an **in-memory LRU** serving repeat submissions within one process
//!   without touching the disk, and
//! * an **on-disk store** (one `<hex-key>.c4r` file per entry under a
//!   cache directory, plus a flushable `index.tsv`) surviving daemon
//!   restarts.
//!
//! Key derivation hashes the *canonical* CCL text
//! (`c4_lang::canonical`), so lossless reformats — whitespace, comments,
//! declaration interleaving — map to the same key, while any semantic
//! edit changes the hash. The fingerprint covers exactly the
//! verdict-relevant [`AnalysisFeatures`] fields; execution-strategy
//! fields (`parallelism`, `time_budget_secs`) are excluded, because the
//! determinism suites guarantee they cannot change the verdict — a
//! report computed at one worker count is served byte-identically at
//! any other. Partial (deadline-hit) results are never stored, so the
//! budget exclusion is sound.
//!
//! Stale entries can never produce a wrong verdict: lookups decode the
//! stored bytes, and a [`crate::report::DecodeError::VersionMismatch`]
//! (or any malformed content) is treated as a miss and the entry
//! evicted.

use std::collections::HashMap;
use std::fmt;
use std::fs;
use std::io::{self, Write as _};
use std::path::PathBuf;
use std::sync::Mutex;

use crate::check::AnalysisFeatures;
use crate::report::AnalysisResult;

/// SHA-256 (FIPS 180-4). Hand-rolled because the offline registry rules
/// out external crates; the cache needs a hash that is stable across
/// processes, platforms and compiler versions (which `DefaultHasher` is
/// not) and collision-resistant enough to address verdicts by content.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    const K: [u32; 64] = [
        0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4,
        0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe,
        0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f,
        0x4a7484aa, 0x5cb0a9dc, 0x76f988da, 0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7,
        0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc,
        0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
        0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070, 0x19a4c116,
        0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
        0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7,
        0xc67178f2,
    ];
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    // Padded message: data ‖ 0x80 ‖ zeros ‖ bit-length (64-bit BE).
    let bit_len = (data.len() as u64).wrapping_mul(8);
    let mut msg = data.to_vec();
    msg.push(0x80);
    while msg.len() % 64 != 56 {
        msg.push(0);
    }
    msg.extend_from_slice(&bit_len.to_be_bytes());
    let mut w = [0u32; 64];
    for chunk in msg.chunks_exact(64) {
        for (i, word) in w.iter_mut().take(16).enumerate() {
            *word = u32::from_be_bytes(chunk[4 * i..4 * i + 4].try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            hh = g;
            g = f;
            f = e;
            e = d.wrapping_add(t1);
            d = c;
            c = b;
            b = a;
            a = t1.wrapping_add(t2);
        }
        for (slot, v) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *slot = slot.wrapping_add(v);
        }
    }
    let mut out = [0u8; 32];
    for (i, v) in h.iter().enumerate() {
        out[4 * i..4 * i + 4].copy_from_slice(&v.to_be_bytes());
    }
    out
}

/// Version of the key-derivation scheme, mixed into every hash so that
/// changing the derivation (or the report format it addresses) retires
/// the whole keyspace at once.
pub const KEY_SCHEMA_VERSION: u32 = 1;

/// A 256-bit content-addressed cache key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CacheKey([u8; 32]);

impl CacheKey {
    /// Derives the key for analyzing `canonical_source` (the
    /// `c4_lang::canonical` rendering of the program) under `features`,
    /// in the analysis context named by `tag` (`"program"` for a whole-
    /// program run; the suite uses `"unfiltered"` / `"filtered/<i>"` for
    /// its per-view runs). Length-prefixed fields make the encoding
    /// injective — no concatenation ambiguity between source and tag.
    pub fn derive(canonical_source: &str, tag: &str, features: &AnalysisFeatures) -> CacheKey {
        let mut buf = Vec::with_capacity(canonical_source.len() + tag.len() + 64);
        buf.extend_from_slice(b"c4-verdict-key");
        buf.extend_from_slice(&KEY_SCHEMA_VERSION.to_be_bytes());
        buf.extend_from_slice(&(crate::report::REPORT_WIRE_VERSION as u32).to_be_bytes());
        buf.extend_from_slice(&(canonical_source.len() as u64).to_be_bytes());
        buf.extend_from_slice(canonical_source.as_bytes());
        buf.extend_from_slice(&(tag.len() as u64).to_be_bytes());
        buf.extend_from_slice(tag.as_bytes());
        buf.extend_from_slice(&features_fingerprint(features));
        CacheKey(sha256(&buf))
    }

    /// The raw 256-bit digest.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// The key's first eight bytes as a big-endian integer: the point a
    /// consistent-hash ring places this verdict at. Computable before
    /// any analysis runs (the key is derived from the canonical source
    /// alone), stable across processes and platforms (it is a SHA-256
    /// prefix), and uniform enough that ring placement inherits the
    /// hash's distribution. Routing by this point gives a sharded
    /// cluster cache affinity for free: resubmissions of the same
    /// canonicalized program always land on the same backend.
    pub fn ring_point(&self) -> u64 {
        u64::from_be_bytes(self.0[..8].try_into().unwrap())
    }

    /// The key as lowercase hex (used for on-disk file names).
    pub fn hex(&self) -> String {
        let mut s = String::with_capacity(64);
        for b in self.0 {
            let _ = fmt::Write::write_fmt(&mut s, format_args!("{b:02x}"));
        }
        s
    }

    /// Parses a 64-digit lowercase hex key (inverse of [`hex`](Self::hex)).
    pub fn from_hex(s: &str) -> Option<CacheKey> {
        if s.len() != 64 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        let mut out = [0u8; 32];
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok()?;
        }
        Some(CacheKey(out))
    }
}

/// The verdict-relevant feature fields, serialized for key derivation.
///
/// `parallelism` and `time_budget_secs` are excluded: the worker count
/// is an execution strategy with differentially-tested identical output,
/// and budget-truncated (partial) results are never cached, so the
/// budget cannot influence any cached verdict.
fn features_fingerprint(f: &AnalysisFeatures) -> [u8; 16] {
    let bits: u64 = (f.commutativity as u64)
        | (f.absorption as u64) << 1
        | (f.constraints as u64) << 2
        | (f.control_flow as u64) << 3
        | (f.asymmetric as u64) << 4
        | (f.freshness as u64) << 5
        | (f.ret_justification as u64) << 6
        | (f.validate_counterexamples as u64) << 7;
    let mut out = [0u8; 16];
    out[..8].copy_from_slice(&bits.to_be_bytes());
    out[8..].copy_from_slice(&(f.max_k as u64).to_be_bytes());
    out
}

/// Hit/miss accounting of a [`VerdictCache`] (monotone counters).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the in-memory LRU.
    pub mem_hits: u64,
    /// Lookups served from the on-disk store (and promoted to memory).
    pub disk_hits: u64,
    /// Lookups that found nothing usable.
    pub misses: u64,
    /// Reports stored (after a miss and a completed analysis).
    pub stores: u64,
    /// In-memory entries evicted by the LRU policy.
    pub evictions: u64,
    /// On-disk entries dropped as stale or malformed (version bumps,
    /// truncated writes); each such lookup also counts as a miss.
    pub stale_drops: u64,
}

impl CacheCounters {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.mem_hits + self.disk_hits + self.misses
    }

    /// The counter delta since an `earlier` snapshot of the same cache
    /// (per-request or per-benchmark accounting).
    pub fn since(&self, earlier: &CacheCounters) -> CacheCounters {
        CacheCounters {
            mem_hits: self.mem_hits - earlier.mem_hits,
            disk_hits: self.disk_hits - earlier.disk_hits,
            misses: self.misses - earlier.misses,
            stores: self.stores - earlier.stores,
            evictions: self.evictions - earlier.evictions,
            stale_drops: self.stale_drops - earlier.stale_drops,
        }
    }

    /// Accumulates another counter snapshot.
    pub fn absorb(&mut self, o: &CacheCounters) {
        self.mem_hits += o.mem_hits;
        self.disk_hits += o.disk_hits;
        self.misses += o.misses;
        self.stores += o.stores;
        self.evictions += o.evictions;
        self.stale_drops += o.stale_drops;
    }
}

/// Which tier, if any, served a lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-memory LRU hit.
    Memory,
    /// On-disk hit.
    Disk,
    /// Miss — the analysis has to run.
    Miss,
}

impl fmt::Display for CacheTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheTier::Memory => "hit (memory)",
            CacheTier::Disk => "hit (disk)",
            CacheTier::Miss => "miss",
        })
    }
}

/// One in-memory entry: the encoded report plus an LRU stamp.
struct MemEntry {
    bytes: Vec<u8>,
    stamp: u64,
}

struct Inner {
    mem: HashMap<CacheKey, MemEntry>,
    /// Monotone logical clock for LRU stamps.
    tick: u64,
    /// Keys known to exist on disk, with their byte sizes (loaded from
    /// the index plus a directory scan; kept in sync with stores/drops).
    disk: HashMap<CacheKey, u64>,
    counters: CacheCounters,
}

/// The two-tier content-addressed verdict cache.
///
/// Thread-safe; all tiers sit behind one mutex (entries are small and
/// lookups are hash-table probes plus at most one small file read, so
/// contention is negligible next to an analysis run).
pub struct VerdictCache {
    dir: Option<PathBuf>,
    mem_capacity: usize,
    inner: Mutex<Inner>,
}

/// File extension of on-disk report entries.
const ENTRY_EXT: &str = "c4r";
/// Name of the flushable on-disk index.
const INDEX_NAME: &str = "index.tsv";

impl VerdictCache {
    /// A purely in-memory cache holding at most `mem_capacity` reports.
    pub fn in_memory(mem_capacity: usize) -> VerdictCache {
        VerdictCache {
            dir: None,
            mem_capacity: mem_capacity.max(1),
            inner: Mutex::new(Inner {
                mem: HashMap::new(),
                tick: 0,
                disk: HashMap::new(),
                counters: CacheCounters::default(),
            }),
        }
    }

    /// Opens (creating if needed) a cache persisted under `dir`, with an
    /// in-memory LRU of `mem_capacity` entries in front of it.
    ///
    /// The set of disk entries is the union of the flushed `index.tsv`
    /// and a directory scan, so entries written by a crashed daemon (no
    /// index flush) are still found.
    ///
    /// # Errors
    ///
    /// I/O errors creating or reading the directory.
    pub fn open(dir: impl Into<PathBuf>, mem_capacity: usize) -> io::Result<VerdictCache> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        let mut disk = HashMap::new();
        let index_path = dir.join(INDEX_NAME);
        if let Ok(text) = fs::read_to_string(&index_path) {
            for line in text.lines().skip(1) {
                let mut cols = line.split('\t');
                if let (Some(hexkey), Some(size)) = (cols.next(), cols.next()) {
                    if let (Some(key), Ok(size)) = (CacheKey::from_hex(hexkey), size.parse()) {
                        disk.insert(key, size);
                    }
                }
            }
        }
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some(ENTRY_EXT) {
                continue;
            }
            let Some(stem) = path.file_stem().and_then(|s| s.to_str()) else { continue };
            if let Some(key) = CacheKey::from_hex(stem) {
                let size = entry.metadata().map(|m| m.len()).unwrap_or(0);
                disk.insert(key, size);
            }
        }
        Ok(VerdictCache {
            dir: Some(dir),
            mem_capacity: mem_capacity.max(1),
            inner: Mutex::new(Inner {
                mem: HashMap::new(),
                tick: 0,
                disk,
                counters: CacheCounters::default(),
            }),
        })
    }

    fn entry_path(&self, key: &CacheKey) -> Option<PathBuf> {
        self.dir.as_ref().map(|d| d.join(format!("{}.{ENTRY_EXT}", key.hex())))
    }

    /// Looks `key` up. Returns the stored report bytes and the tier that
    /// served them, or `None` on a miss. Disk hits are validated by
    /// decoding: a version-mismatched or corrupt entry is deleted,
    /// counted in `stale_drops`, and reported as a miss — never served.
    pub fn lookup(&self, key: &CacheKey) -> Option<(Vec<u8>, CacheTier)> {
        let mut inner = self.inner.lock().unwrap();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.mem.get_mut(key) {
            e.stamp = tick;
            let bytes = e.bytes.clone();
            inner.counters.mem_hits += 1;
            return Some((bytes, CacheTier::Memory));
        }
        if inner.disk.contains_key(key) {
            let path = self.entry_path(key).expect("disk tier implies a directory");
            match fs::read(&path) {
                Ok(bytes) if AnalysisResult::decode_report(&bytes).is_ok() => {
                    inner.counters.disk_hits += 1;
                    Self::insert_mem(&mut inner, self.mem_capacity, *key, bytes.clone());
                    return Some((bytes, CacheTier::Disk));
                }
                Ok(_) => {
                    // Stale (version-mismatched) or corrupt: evict so
                    // the slot is rebuilt by the next store.
                    let _ = fs::remove_file(&path);
                    inner.disk.remove(key);
                    inner.counters.stale_drops += 1;
                }
                Err(_) => {
                    inner.disk.remove(key);
                    inner.counters.stale_drops += 1;
                }
            }
        }
        inner.counters.misses += 1;
        None
    }

    /// Stores an encoded report under `key` in both tiers. Disk writes
    /// go through a temp file + rename so readers never observe a torn
    /// entry. Callers must not store partial (deadline-hit) results —
    /// the daemon and suite integration enforce this.
    pub fn store(&self, key: &CacheKey, bytes: &[u8]) {
        let mut inner = self.inner.lock().unwrap();
        inner.counters.stores += 1;
        if let Some(path) = self.entry_path(key) {
            let tmp = path.with_extension("tmp");
            let write = fs::File::create(&tmp)
                .and_then(|mut f| f.write_all(bytes).and_then(|()| f.sync_all()))
                .and_then(|()| fs::rename(&tmp, &path));
            if write.is_ok() {
                inner.disk.insert(*key, bytes.len() as u64);
            }
        }
        Self::insert_mem(&mut inner, self.mem_capacity, *key, bytes.to_vec());
    }

    fn insert_mem(inner: &mut Inner, capacity: usize, key: CacheKey, bytes: Vec<u8>) {
        inner.tick += 1;
        let stamp = inner.tick;
        inner.mem.insert(key, MemEntry { bytes, stamp });
        while inner.mem.len() > capacity {
            let victim = inner
                .mem
                .iter()
                .min_by_key(|(_, e)| e.stamp)
                .map(|(k, _)| *k)
                .expect("non-empty over capacity");
            inner.mem.remove(&victim);
            inner.counters.evictions += 1;
        }
    }

    /// Current counter snapshot.
    pub fn counters(&self) -> CacheCounters {
        self.inner.lock().unwrap().counters
    }

    /// Entries currently resident in the memory tier.
    pub fn mem_len(&self) -> usize {
        self.inner.lock().unwrap().mem.len()
    }

    /// Entries known on disk.
    pub fn disk_len(&self) -> usize {
        self.inner.lock().unwrap().disk.len()
    }

    /// Flushes the on-disk index (`index.tsv`: header line, then one
    /// `<hex-key>\t<bytes>` line per entry). A no-op for in-memory
    /// caches. Called by the daemon on graceful shutdown; losing the
    /// index is harmless (entries are self-describing and re-scanned),
    /// it only speeds up the next startup and records sizes.
    ///
    /// # Errors
    ///
    /// I/O errors writing the index.
    pub fn flush_index(&self) -> io::Result<()> {
        let Some(dir) = &self.dir else { return Ok(()) };
        let inner = self.inner.lock().unwrap();
        let mut text = format!("c4-cache-index\tv{KEY_SCHEMA_VERSION}\n");
        let mut entries: Vec<_> = inner.disk.iter().collect();
        entries.sort();
        for (key, size) in entries {
            text.push_str(&key.hex());
            text.push('\t');
            text.push_str(&size.to_string());
            text.push('\n');
        }
        let tmp = dir.join(format!("{INDEX_NAME}.tmp"));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, dir.join(INDEX_NAME))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::REPORT_WIRE_VERSION;

    /// FIPS 180-4 test vectors.
    #[test]
    fn sha256_matches_reference_vectors() {
        let hex = |d: &[u8]| CacheKey(sha256(d)).hex();
        assert_eq!(
            hex(b""),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
        assert_eq!(
            hex(b"abc"),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
        assert_eq!(
            hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
        // A >64-byte input exercises multi-block padding.
        assert_eq!(
            hex(&[b'a'; 1_000_000]),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn hex_roundtrips() {
        let k = CacheKey(sha256(b"x"));
        assert_eq!(CacheKey::from_hex(&k.hex()), Some(k));
        assert_eq!(CacheKey::from_hex("zz"), None);
    }

    #[test]
    fn key_separates_source_tag_and_features() {
        let f = AnalysisFeatures::default();
        let base = CacheKey::derive("store { map M; }\n", "program", &f);
        assert_eq!(base, CacheKey::derive("store { map M; }\n", "program", &f));
        assert_ne!(base, CacheKey::derive("store { set M; }\n", "program", &f));
        assert_ne!(base, CacheKey::derive("store { map M; }\n", "unfiltered", &f));
        let mut f2 = f.clone();
        f2.max_k = f.max_k + 1;
        assert_ne!(base, CacheKey::derive("store { map M; }\n", "program", &f2));
        let mut f3 = f.clone();
        f3.absorption = !f3.absorption;
        assert_ne!(base, CacheKey::derive("store { map M; }\n", "program", &f3));
        // Length prefixes prevent source/tag concatenation ambiguity.
        assert_ne!(
            CacheKey::derive("ab", "c", &f),
            CacheKey::derive("a", "bc", &f)
        );
    }

    #[test]
    fn key_ignores_execution_strategy_fields() {
        let f = AnalysisFeatures::default();
        let base = CacheKey::derive("src", "program", &f);
        let mut g = f.clone();
        g.parallelism = 7;
        assert_eq!(base, CacheKey::derive("src", "program", &g));
        g.time_budget_secs = 1;
        assert_eq!(base, CacheKey::derive("src", "program", &g));
    }

    fn report(max_k: usize) -> Vec<u8> {
        let mut r = AnalysisResult::default();
        r.max_k = max_k;
        r.generalized = true;
        r.encode_report()
    }

    #[test]
    fn memory_tier_hits_and_evicts_lru() {
        let cache = VerdictCache::in_memory(2);
        let f = AnalysisFeatures::default();
        let k1 = CacheKey::derive("a", "program", &f);
        let k2 = CacheKey::derive("b", "program", &f);
        let k3 = CacheKey::derive("c", "program", &f);
        assert!(cache.lookup(&k1).is_none());
        cache.store(&k1, &report(2));
        cache.store(&k2, &report(3));
        assert_eq!(cache.lookup(&k1).unwrap().1, CacheTier::Memory);
        // k2 is now least-recently used; storing k3 evicts it.
        cache.store(&k3, &report(4));
        assert!(cache.lookup(&k2).is_none());
        assert_eq!(cache.lookup(&k1).unwrap().0, report(2));
        let c = cache.counters();
        assert_eq!(c.evictions, 1);
        assert_eq!(c.misses, 2);
        assert_eq!(c.mem_hits, 2);
        assert_eq!(c.stores, 3);
    }

    #[test]
    fn disk_tier_survives_reopen_and_flushes_index() {
        let dir = std::env::temp_dir().join(format!("c4-cache-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let f = AnalysisFeatures::default();
        let key = CacheKey::derive("prog", "program", &f);
        {
            let cache = VerdictCache::open(&dir, 4).unwrap();
            assert!(cache.lookup(&key).is_none());
            cache.store(&key, &report(2));
            assert_eq!(cache.lookup(&key).unwrap().1, CacheTier::Memory);
            cache.flush_index().unwrap();
        }
        // A fresh process (simulated by reopening) has a cold memory
        // tier; the first hit comes from disk and is promoted.
        let cache = VerdictCache::open(&dir, 4).unwrap();
        assert_eq!(cache.disk_len(), 1);
        let (bytes, tier) = cache.lookup(&key).unwrap();
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(bytes, report(2));
        assert_eq!(cache.lookup(&key).unwrap().1, CacheTier::Memory);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn version_mismatched_disk_entries_are_misses_not_wrong_verdicts() {
        let dir =
            std::env::temp_dir().join(format!("c4-cache-stale-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let f = AnalysisFeatures::default();
        let key = CacheKey::derive("prog", "program", &f);
        {
            let cache = VerdictCache::open(&dir, 4).unwrap();
            // Forge an entry whose wire version is one ahead.
            let mut bytes = report(2);
            let v = (REPORT_WIRE_VERSION + 1).to_be_bytes();
            bytes[4] = v[0];
            bytes[5] = v[1];
            cache.store(&key, &bytes);
            cache.flush_index().unwrap();
        }
        let cache = VerdictCache::open(&dir, 4).unwrap();
        assert!(cache.lookup(&key).is_none(), "stale entry must be a miss");
        let c = cache.counters();
        assert_eq!(c.stale_drops, 1);
        assert_eq!(c.misses, 1);
        assert_eq!(cache.disk_len(), 0, "stale entry is deleted");
        // And a corrupt (truncated) entry likewise.
        let key2 = CacheKey::derive("prog2", "program", &f);
        cache.store(&key2, &report(3));
        let path = dir.join(format!("{}.{ENTRY_EXT}", key2.hex()));
        fs::write(&path, &report(3)[..5]).unwrap();
        let cold = VerdictCache::open(&dir, 4).unwrap();
        assert!(cold.lookup(&key2).is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
