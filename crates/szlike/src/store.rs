//! Random-access region reads over blocked containers.
//!
//! [`SzStore`] parses a blocked container's directory **once** at open
//! time, then serves [`SzStore::read_region`] calls by decoding **only the
//! blocks whose footprint intersects the requested region** and assembling
//! the output with strided copies — a full-field buffer is never
//! materialized. Any v2+ blocked container works: the v4 chunk-grid layout
//! makes 2-D/3-D regions touch few blocks, while v2/v3 slab containers are
//! served as degenerate 1×…×N grids (region reads still skip
//! non-intersecting slabs along axis 0).
//!
//! Decoded blocks sit behind a sharded, byte-budgeted LRU cache of
//! `Arc<[T]>`-style entries, so the store is `Sync`: concurrent readers
//! share one decode per block, the hot hit path takes only its shard's
//! mutex for a map probe, and a *cold* block is decoded exactly once even
//! when many threads request it simultaneously (single-flight: later
//! requesters block on a condvar until the first decode publishes its
//! result). Eviction is lazy textbook LRU — touches append `(block,
//! stamp)` tickets to a deque and stale tickets are skipped/compacted —
//! with the budget split evenly across shards.
//!
//! Every cache and decode event feeds both a store-local atomic counter
//! set ([`SzStore::stats`], used by tests to reconcile hit/miss accounting
//! exactly) and the process-wide `fpsnr-obs` registry under `store.*`
//! (used by `fpsnr serve` for its hit-rate / bytes-decoded-per-byte-served
//! report).

use crate::blocked::{self, BlockedParams, Directory, Section};
use crate::compressor::{check_type_and_limits, split_and_check_crc, DecodeLimits};
use crate::error::SzError;
use crate::format::{self, Mode};
use crate::grid::{ChunkGrid, Region};
use losslesskit::huffman::HuffmanCodec;
use ndfield::{Field, Scalar};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

/// Cache shards. A power of two so the block-index modulo is a mask; 16
/// keeps shard contention negligible at typical reader counts while the
/// per-shard budget stays coarse enough to hold multi-megabyte blocks.
const SHARDS: usize = 16;

/// Tuning knobs for [`SzStore::open_with`].
#[derive(Debug, Clone, Copy)]
pub struct StoreOptions {
    /// Byte budget for decoded blocks across all cache shards (default
    /// 64 MiB). `0` disables caching entirely: every read decodes its
    /// blocks afresh (concurrent requests for the same block still share
    /// one in-flight decode).
    pub cache_budget: usize,
    /// Resource caps applied while parsing and decoding untrusted bytes.
    pub limits: DecodeLimits,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            cache_budget: 64 << 20,
            limits: DecodeLimits::default(),
        }
    }
}

/// Monotonic counter snapshot returned by [`SzStore::stats`].
///
/// The invariants tests reconcile: `hits + misses + waits` equals the
/// total block requests issued by `read_region`/`block` calls, and
/// `blocks_decoded == misses` on an undamaged container (a miss is the
/// requester that performed the decode; a wait piggybacked on one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Block requests served straight from the cache.
    pub hits: u64,
    /// Block requests that decoded the block themselves.
    pub misses: u64,
    /// Block requests that blocked on another thread's in-flight decode.
    pub waits: u64,
    /// Cache entries evicted to stay inside the byte budget.
    pub evictions: u64,
    /// Blocks decoded successfully.
    pub blocks_decoded: u64,
    /// Decoded-sample bytes produced by those block decodes.
    pub bytes_decoded: u64,
    /// `read_region` calls completed.
    pub regions: u64,
    /// Output-sample bytes returned by those calls.
    pub bytes_served: u64,
    /// Blocks currently resident in the cache.
    pub cached_blocks: u64,
    /// Bytes currently resident in the cache.
    pub cached_bytes: u64,
}

impl StoreStats {
    /// Total block requests (hits + misses + waits).
    pub fn block_requests(&self) -> u64 {
        self.hits + self.misses + self.waits
    }

    /// Fraction of block requests served without decoding (hits + waits
    /// count a wait as a shared decode). 1.0 when no requests were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.block_requests();
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Bytes decoded per byte served — the random-access win metric. A
    /// full-field decode scores ≥ 1; warm-cache region reads approach 0.
    pub fn decode_amplification(&self) -> f64 {
        self.bytes_decoded as f64 / self.bytes_served.max(1) as f64
    }
}

#[derive(Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    evictions: AtomicU64,
    blocks_decoded: AtomicU64,
    bytes_decoded: AtomicU64,
    regions: AtomicU64,
    bytes_served: AtomicU64,
}

/// A finished or in-flight decode other threads can rendezvous on.
struct Flight<T> {
    done: Mutex<Option<Result<Arc<Vec<T>>, SzError>>>,
    cv: Condvar,
}

struct CacheEntry<T> {
    data: Arc<Vec<T>>,
    bytes: usize,
    stamp: u64,
}

struct Shard<T> {
    map: HashMap<usize, CacheEntry<T>>,
    /// Lazy-LRU tickets: `(block, stamp)`; a ticket is live only while it
    /// matches the map entry's current stamp.
    lru: VecDeque<(usize, u64)>,
    bytes: usize,
    tick: u64,
    inflight: HashMap<usize, Arc<Flight<T>>>,
}

impl<T> Shard<T> {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            lru: VecDeque::new(),
            bytes: 0,
            tick: 0,
            inflight: HashMap::new(),
        }
    }

    fn touch(&mut self, b: usize) -> Option<Arc<Vec<T>>> {
        self.tick += 1;
        let tick = self.tick;
        let e = self.map.get_mut(&b)?;
        e.stamp = tick;
        let data = Arc::clone(&e.data);
        self.lru.push_back((b, tick));
        self.maybe_compact();
        Some(data)
    }

    /// Drop stale tickets once they dominate the deque, bounding its
    /// length at a small multiple of the live entry count.
    fn maybe_compact(&mut self) {
        if self.lru.len() > 4 * self.map.len() + 8 {
            let map = &self.map;
            self.lru
                .retain(|&(b, stamp)| map.get(&b).is_some_and(|e| e.stamp == stamp));
        }
    }
}

/// A thread-safe random-access view of one compressed blocked container.
///
/// See the module docs for the architecture; [`SzStore::read_region`] is
/// the workhorse. The store is cheap to share (`Arc<SzStore<T>>`) and all
/// methods take `&self`.
pub struct SzStore<T: Scalar> {
    bytes: Vec<u8>,
    version: u8,
    params: BlockedParams,
    codec: Option<HuffmanCodec>,
    sections: Vec<Section>,
    max_body: usize,
    budget_per_shard: usize,
    shards: Vec<Mutex<Shard<T>>>,
    counters: Counters,
}

impl<T: Scalar> SzStore<T> {
    /// Open a blocked container for random access with default options.
    ///
    /// # Errors
    /// [`SzError`] when the bytes are not a clean blocked container of
    /// scalar type `T` with a per-block directory (v2+). v1 blocked
    /// containers and the monolithic modes have no random-access
    /// directory — re-encode to serve region reads.
    pub fn open(bytes: &[u8]) -> Result<Self, SzError> {
        Self::open_with(bytes.to_vec(), StoreOptions::default())
    }

    /// [`SzStore::open`] taking ownership of the bytes, with explicit
    /// cache-budget and decode-limit options.
    ///
    /// # Errors
    /// As [`SzStore::open`].
    pub fn open_with(bytes: Vec<u8>, opts: StoreOptions) -> Result<Self, SzError> {
        // Parse phase: everything below borrows `bytes`, so collect plain
        // offsets/owned values first and build the store after.
        let max_body = opts.limits.max_body_bytes();
        let (version, params, codec, sections) = {
            let (body, _crc_ok) = split_and_check_crc(&bytes, true)?;
            let mut pos = 0usize;
            let header = format::read_header(body, &mut pos)?;
            check_type_and_limits::<T>(&header, &opts.limits)?;
            if header.mode != Mode::Blocked {
                return Err(SzError::Format(
                    "random-access store requires a blocked container",
                ));
            }
            let (version, params) = blocked::read_params(body, &mut pos, &header)?;
            if version < 2 {
                return Err(SzError::Format(
                    "v1 blocked containers have no per-block directory; re-encode for random access",
                ));
            }
            let dir = Directory::read(body, pos, &params)?;
            dir.check_meta()?;
            let codec = dir.shared_table(body, max_body)?;
            (version, params, codec, dir.blocks)
        };
        Ok(SzStore {
            bytes,
            version,
            params,
            codec,
            sections,
            max_body,
            budget_per_shard: if opts.cache_budget == 0 {
                0
            } else {
                (opts.cache_budget / SHARDS).max(1)
            },
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            counters: Counters::default(),
        })
    }

    /// The stored field's shape.
    pub fn shape(&self) -> ndfield::Shape {
        self.params.grid.shape()
    }

    /// The container's chunk-grid partition.
    pub fn grid(&self) -> &ChunkGrid {
        &self.params.grid
    }

    /// The blocked-container version byte (2 through 5).
    pub fn version(&self) -> u8 {
        self.version
    }

    /// Decode the sub-field covered by `region`, touching only the blocks
    /// that intersect it.
    ///
    /// Bit-identical to slicing the same region out of a full
    /// [`crate::decompress`] of the container (Theorem 1 holds per block,
    /// and blocks decode independently of which region requested them).
    ///
    /// # Errors
    /// [`SzError::BadConfig`] when the region's rank or extent doesn't fit
    /// the stored shape; decode errors when an intersecting block is
    /// damaged.
    pub fn read_region(&self, region: &Region) -> Result<Field<T>, SzError> {
        let _span = fpsnr_obs::span("store.read");
        if !region.fits(self.shape()) {
            return Err(SzError::BadConfig(format!(
                "region (rank {}) does not fit the stored shape {:?}",
                region.rank(),
                self.shape().dims()
            )));
        }
        let out_shape = region.shape();
        let mut out = vec![T::default(); out_shape.len()];
        for b in self.params.grid.blocks_intersecting(region) {
            let block = self.block(b)?;
            self.params
                .grid
                .copy_block_region(&block, b, region, &mut out);
        }
        self.counters.regions.fetch_add(1, Ordering::Relaxed);
        let served = (out.len() * T::BYTES) as u64;
        self.counters
            .bytes_served
            .fetch_add(served, Ordering::Relaxed);
        fpsnr_obs::add("store.read.regions", 1);
        fpsnr_obs::add("store.read.bytes_served", served);
        Ok(Field::from_vec(out_shape, out))
    }

    /// Fetch one decoded block (cache-aware, single-flight). The `Arc` is
    /// shared with the cache and any concurrent requester.
    ///
    /// # Errors
    /// Decode errors when the block payload is damaged (errors are
    /// propagated to concurrent waiters but never cached — a transient
    /// reader pile-up on a damaged block retries the decode).
    pub fn block(&self, b: usize) -> Result<Arc<Vec<T>>, SzError> {
        debug_assert!(b < self.sections.len());
        let shard_i = b % SHARDS;
        let mut shard = self.shards[shard_i].lock().expect("store shard lock");
        if let Some(data) = shard.touch(b) {
            drop(shard);
            self.counters.hits.fetch_add(1, Ordering::Relaxed);
            fpsnr_obs::add("store.cache.hit", 1);
            return Ok(data);
        }
        if let Some(flight) = shard.inflight.get(&b) {
            let flight = Arc::clone(flight);
            drop(shard);
            self.counters.waits.fetch_add(1, Ordering::Relaxed);
            fpsnr_obs::add("store.cache.wait", 1);
            let mut done = flight.done.lock().expect("flight lock");
            while done.is_none() {
                done = flight.cv.wait(done).expect("flight wait");
            }
            return done.clone().expect("flight published");
        }
        // Cold miss: claim the flight, decode outside the shard lock,
        // publish to cache and waiters.
        let flight = Arc::new(Flight {
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        shard.inflight.insert(b, Arc::clone(&flight));
        drop(shard);
        self.counters.misses.fetch_add(1, Ordering::Relaxed);
        fpsnr_obs::add("store.cache.miss", 1);

        let result = self.decode_block_uncached(b).map(Arc::new);

        let mut shard = self.shards[shard_i].lock().expect("store shard lock");
        shard.inflight.remove(&b);
        if let Ok(data) = &result {
            self.insert_and_evict(&mut shard, b, Arc::clone(data));
        }
        drop(shard);
        *flight.done.lock().expect("flight lock") = Some(result.clone());
        flight.cv.notify_all();
        result
    }

    fn insert_and_evict(&self, shard: &mut Shard<T>, b: usize, data: Arc<Vec<T>>) {
        if self.budget_per_shard == 0 {
            return;
        }
        shard.tick += 1;
        let stamp = shard.tick;
        let bytes = data.len() * T::BYTES;
        shard.bytes += bytes;
        shard.map.insert(b, CacheEntry { data, bytes, stamp });
        shard.lru.push_back((b, stamp));
        // Evict least-recently-used live entries until back inside the
        // budget, always retaining the entry just inserted (a block larger
        // than the whole per-shard budget still caches — evicting it
        // immediately would defeat warm repeats).
        while shard.bytes > self.budget_per_shard && shard.map.len() > 1 {
            let Some((victim, vstamp)) = shard.lru.pop_front() else {
                break;
            };
            let live = shard.map.get(&victim).is_some_and(|e| e.stamp == vstamp);
            if live && victim != b {
                let e = shard.map.remove(&victim).expect("live victim");
                shard.bytes -= e.bytes;
                self.counters.evictions.fetch_add(1, Ordering::Relaxed);
                fpsnr_obs::add("store.cache.evict", 1);
            } else if live {
                // The just-inserted entry reached the front: everything
                // else is stale tickets. Put it back and stop.
                shard.lru.push_front((victim, vstamp));
                break;
            }
        }
        shard.maybe_compact();
    }

    /// Decode block `b` straight from the container bytes (CRC check,
    /// lossless undo, shared per-block decode routine).
    fn decode_block_uncached(&self, b: usize) -> Result<Vec<T>, SzError> {
        let _span = fpsnr_obs::span("store.decode");
        let samples = self.sections[b].decode_block::<T>(
            &self.bytes,
            b,
            &self.params,
            self.codec.as_ref(),
            self.max_body,
        )?;
        self.counters.blocks_decoded.fetch_add(1, Ordering::Relaxed);
        let decoded = (samples.len() * T::BYTES) as u64;
        self.counters
            .bytes_decoded
            .fetch_add(decoded, Ordering::Relaxed);
        fpsnr_obs::add("store.decode.blocks", 1);
        fpsnr_obs::add("store.decode.bytes", decoded);
        Ok(samples)
    }

    /// Snapshot the store's counters (plus current cache residency).
    pub fn stats(&self) -> StoreStats {
        let mut cached_blocks = 0u64;
        let mut cached_bytes = 0u64;
        for shard in &self.shards {
            let s = shard.lock().expect("store shard lock");
            cached_blocks += s.map.len() as u64;
            cached_bytes += s.bytes as u64;
        }
        StoreStats {
            hits: self.counters.hits.load(Ordering::Relaxed),
            misses: self.counters.misses.load(Ordering::Relaxed),
            waits: self.counters.waits.load(Ordering::Relaxed),
            evictions: self.counters.evictions.load(Ordering::Relaxed),
            blocks_decoded: self.counters.blocks_decoded.load(Ordering::Relaxed),
            bytes_decoded: self.counters.bytes_decoded.load(Ordering::Relaxed),
            regions: self.counters.regions.load(Ordering::Relaxed),
            bytes_served: self.counters.bytes_served.load(Ordering::Relaxed),
            cached_blocks,
            cached_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compressor::{compress, decompress};
    use crate::config::{ErrorBound, SzConfig};
    use losslesskit::crc32::crc32;
    use ndfield::{Field, Shape};

    fn field_3d(d0: usize, d1: usize, d2: usize) -> Field<f32> {
        Field::from_fn_3d(d0, d1, d2, |i, j, k| {
            ((i as f32) * 0.11).sin() + ((j as f32) * 0.07).cos() * ((k as f32) * 0.05).sin()
        })
    }

    fn grid_container(d: usize, chunk: usize) -> (Field<f32>, Vec<u8>) {
        let field = field_3d(d, d, d);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3)).with_chunk_dims([chunk; 3]);
        let bytes = compress(&field, &cfg).unwrap();
        (field, bytes)
    }

    #[test]
    fn region_read_matches_full_decode_slice() {
        let (_, bytes) = grid_container(24, 8);
        let full: Field<f32> = decompress(&bytes).unwrap();
        let store: SzStore<f32> = SzStore::open(&bytes).unwrap();
        let region = Region::new(&[5..14, 0..24, 7..9]).unwrap();
        let got = store.read_region(&region).unwrap();
        assert_eq!(got.shape(), Shape::D3(9, 24, 2));
        let mut k = 0;
        for i in 5..14 {
            for j in 0..24 {
                for l in 7..9 {
                    let want = full.as_slice()[(i * 24 + j) * 24 + l];
                    assert_eq!(got.as_slice()[k].to_bits(), want.to_bits());
                    k += 1;
                }
            }
        }
    }

    #[test]
    fn small_region_decodes_few_blocks() {
        let (_, bytes) = grid_container(24, 8); // 3×3×3 = 27 blocks
        let store: SzStore<f32> = SzStore::open(&bytes).unwrap();
        let region = Region::new(&[0..8, 8..16, 16..24]).unwrap();
        store.read_region(&region).unwrap();
        let s = store.stats();
        assert_eq!(s.blocks_decoded, 1, "chunk-aligned region is one block");
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 0);
    }

    #[test]
    fn warm_repeat_reads_do_zero_decodes() {
        let (_, bytes) = grid_container(16, 8);
        let store: SzStore<f32> = SzStore::open(&bytes).unwrap();
        let region = Region::new(&[2..14, 2..14, 2..14]).unwrap();
        let a = store.read_region(&region).unwrap();
        let decoded_cold = store.stats().blocks_decoded;
        assert!(decoded_cold > 0);
        let b = store.read_region(&region).unwrap();
        assert_eq!(a.as_slice(), b.as_slice());
        let s = store.stats();
        assert_eq!(s.blocks_decoded, decoded_cold, "warm read decoded blocks");
        assert!(s.hits >= decoded_cold);
        assert_eq!(s.block_requests(), s.hits + s.misses);
    }

    #[test]
    fn zero_budget_disables_caching_but_still_reads() {
        let (_, bytes) = grid_container(16, 8);
        let store = SzStore::<f32>::open_with(
            bytes,
            StoreOptions {
                cache_budget: 0,
                ..StoreOptions::default()
            },
        )
        .unwrap();
        let region = Region::new(&[0..16, 0..16, 0..16]).unwrap();
        store.read_region(&region).unwrap();
        store.read_region(&region).unwrap();
        let s = store.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 16);
        assert_eq!(s.cached_blocks, 0);
    }

    #[test]
    fn tiny_budget_evicts_but_stays_correct() {
        let (_, bytes) = grid_container(24, 6); // 4³ = 64 blocks of 6³ f32 = 864 B
        let full: Field<f32> = decompress(&bytes).unwrap();
        let store = SzStore::<f32>::open_with(
            bytes,
            StoreOptions {
                cache_budget: 8 * 1024, // far below the ~55 KiB working set
                ..StoreOptions::default()
            },
        )
        .unwrap();
        for pass in 0..3 {
            let region = Region::new(&[0..24, 0..24, 0..24]).unwrap();
            let got = store.read_region(&region).unwrap();
            assert_eq!(got.as_slice(), full.as_slice(), "pass {pass}");
        }
        let s = store.stats();
        assert!(s.evictions > 0, "budget never forced an eviction");
        // Per-shard budget is 512 B < one 864 B block, and each shard
        // retains its most recent entry: steady state is one block per
        // shard, far below the 55 KiB working set.
        assert!(s.cached_bytes <= 16 * 864, "cache blew its floor");
        assert!(s.cached_blocks <= 16);
        assert_eq!(s.block_requests(), s.hits + s.misses);
    }

    #[test]
    fn slab_containers_serve_region_reads() {
        let field = field_3d(20, 12, 10);
        let cfg = SzConfig::new(ErrorBound::Abs(1e-3))
            .with_threads(2)
            .with_block_rows(4);
        let bytes = compress(&field, &cfg).unwrap();
        let full: Field<f32> = decompress(&bytes).unwrap();
        let store: SzStore<f32> = SzStore::open(&bytes).unwrap();
        assert_eq!(store.version(), 3);
        assert!(store.grid().is_slab());
        let region = Region::new(&[9..12, 3..7, 0..10]).unwrap();
        let got = store.read_region(&region).unwrap();
        let mut k = 0;
        for i in 9..12 {
            for j in 3..7 {
                for l in 0..10 {
                    assert_eq!(
                        got.as_slice()[k].to_bits(),
                        full.as_slice()[(i * 12 + j) * 10 + l].to_bits()
                    );
                    k += 1;
                }
            }
        }
        // Rows 9..12 with block_rows 4 touch one slab (rows 8..12).
        assert_eq!(store.stats().blocks_decoded, 1);
    }

    #[test]
    fn open_rejects_monolithic_and_wrong_type() {
        let field = field_3d(8, 8, 8);
        let mono = compress(&field, &SzConfig::new(ErrorBound::Abs(1e-3))).unwrap();
        assert!(SzStore::<f32>::open(&mono).is_err());
        let (_, blocked) = grid_container(16, 8);
        assert!(SzStore::<f64>::open(&blocked).is_err());
        assert!(SzStore::<f32>::open(&blocked).is_ok());
    }

    #[test]
    fn open_rejects_corrupt_container() {
        let (_, mut bytes) = grid_container(16, 8);
        let n = bytes.len();
        bytes[n - 2] ^= 0x40; // outer CRC trailer
        assert!(SzStore::<f32>::open(&bytes).is_err());
    }

    #[test]
    fn damaged_block_errors_only_regions_touching_it() {
        let (_, bytes) = grid_container(24, 8);
        let store_clean: SzStore<f32> = SzStore::open(&bytes).unwrap();
        // Find block 0's payload offset by decoding it once, then flip a
        // byte inside it and rebuild the outer CRC so open() succeeds.
        let sec0 = (store_clean.sections[0].off, store_clean.sections[0].len);
        let mut dam = bytes.clone();
        dam[sec0.0 + sec0.1 / 2] ^= 0xFF;
        let body_len = dam.len() - 4;
        let crc = crc32(&dam[..body_len]).to_le_bytes();
        dam[body_len..].copy_from_slice(&crc);
        let store: SzStore<f32> = SzStore::open(&dam).unwrap();
        // Block 0 covers [0..8]³; a far-away region still reads fine.
        let far = Region::new(&[16..24, 16..24, 16..24]).unwrap();
        assert!(store.read_region(&far).is_ok());
        let near = Region::new(&[0..4, 0..4, 0..4]).unwrap();
        assert!(store.read_region(&near).is_err());
        // Errors are not cached: stats show a decode attempt per try.
        assert!(store.read_region(&near).is_err());
        let s = store.stats();
        assert_eq!(s.misses, 3);
        assert_eq!(s.blocks_decoded, 1, "only the clean far block decoded");
    }

    #[test]
    fn region_must_fit_shape() {
        let (_, bytes) = grid_container(16, 8);
        let store: SzStore<f32> = SzStore::open(&bytes).unwrap();
        assert!(store
            .read_region(&Region::new(&[0..17, 0..16, 0..16]).unwrap())
            .is_err());
        assert!(store
            .read_region(&Region::new(&[0..4, 0..4]).unwrap())
            .is_err());
    }

    #[test]
    fn concurrent_readers_share_decodes() {
        use std::sync::Arc;
        let (_, bytes) = grid_container(24, 8);
        let full: Field<f32> = decompress(&bytes).unwrap();
        let store = Arc::new(SzStore::<f32>::open(&bytes).unwrap());
        let full = Arc::new(full);
        let mut handles = Vec::new();
        for t in 0..4 {
            let store = Arc::clone(&store);
            let full = Arc::clone(&full);
            handles.push(std::thread::spawn(move || {
                for r in 0..6 {
                    let lo = (t + r) % 12;
                    let region = Region::new(&[lo..lo + 9, 0..24, lo..lo + 12]).unwrap();
                    let got = store.read_region(&region).unwrap();
                    let mut k = 0;
                    for i in lo..lo + 9 {
                        for j in 0..24 {
                            for l in lo..lo + 12 {
                                assert_eq!(
                                    got.as_slice()[k].to_bits(),
                                    full.as_slice()[(i * 24 + j) * 24 + l].to_bits()
                                );
                                k += 1;
                            }
                        }
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = store.stats();
        assert_eq!(s.block_requests(), s.hits + s.misses + s.waits);
        assert_eq!(s.blocks_decoded, s.misses);
        // The cache fits everything: 27 blocks decode at most once each.
        assert!(s.blocks_decoded <= 27, "{} decodes", s.blocks_decoded);
    }
}
