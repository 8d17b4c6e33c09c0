//! The shared last-level cache.
//!
//! Write-allocate, writeback, per-set LRU, with MSHR merging: concurrent
//! misses to one line share a single memory request. Misses and dirty
//! writebacks surface as [`UncoreRequest`]s that the simulator forwards to
//! the memory controller; fills come back through [`SharedLlc::on_fill`].
//!
//! The two in-flight maps (MSHRs and uncached loads) are keyed by line
//! address and are only ever probed, never iterated, so their hash cannot
//! reach any result: they use [`LineHasher`], one fixed multiply, instead
//! of std's randomly seeded SipHash.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};

use serde::{Deserialize, Serialize};

use crate::core::SimpleO3Core;

/// LLC geometry and latency (Table 2 defaults).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes (8 MiB).
    pub capacity: usize,
    /// Associativity (8).
    pub ways: usize,
    /// Line size in bytes (64).
    pub line_bytes: usize,
    /// Hit latency in CPU cycles.
    pub hit_latency: u32,
    /// Maximum outstanding misses.
    pub mshrs: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            capacity: 8 << 20,
            ways: 8,
            line_bytes: 64,
            hit_latency: 24,
            mshrs: 64,
        }
    }
}

impl CacheConfig {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity / self.line_bytes / self.ways
    }

    /// The Fig. 14/15 configuration: the 4.5× larger LLC of [Kim+, CAL'25].
    pub fn large_kim25() -> Self {
        Self {
            capacity: 36 << 20,
            ..Self::default()
        }
    }
}

/// A multiplicative hasher for line-address keys: each word is xored into
/// the state and multiplied by 2^64 / φ. Line addresses are multiples of the
/// line size, and a product's low bits depend only on the key's low bits,
/// so `finish` rotates the well-mixed high half down to where `HashMap`
/// takes its bucket index.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0 ^ word).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// A map keyed by line address.
type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

/// Tag-word flag: the way holds a line. Line addresses are line-aligned,
/// so a tag word's two low bits are free for the flags.
const VALID: u64 = 1;
/// Tag-word flag: the line is dirty.
const DIRTY: u64 = 2;

/// Result of a load probe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadResult {
    /// In cache; data ready after the hit latency.
    Hit,
    /// Miss; the waiter token will be released by a future fill.
    Miss,
    /// No MSHR available. The access changed nothing, and retrying it is
    /// pointless until the next [`SharedLlc::on_fill`]: occupancy only
    /// falls there, and a full file admits no new line in the meantime.
    Rejected,
}

/// A memory request the LLC wants the controller to perform.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UncoreRequest {
    /// Line-aligned byte address.
    pub line_addr: u64,
    /// True for writebacks.
    pub write: bool,
    /// True if the read must bypass the cache (non-cacheable load); the
    /// completion routes straight back to the waiter.
    pub uncached: bool,
    /// The core that initiated the miss (the first waiter for merged
    /// misses). Purely attributional — routing still goes through waiter
    /// tokens — so downstream per-core accounting can label the request.
    pub core: u8,
}

#[derive(Debug)]
struct Mshr {
    waiters: Vec<u64>,
    /// At least one waiter wants the line cached (demand load/store);
    /// pure-writeback-allocate entries fill without waiters.
    fill: bool,
    /// A store merged into this miss: the line installs dirty
    /// (write-allocate semantics).
    dirty: bool,
}

/// The shared LLC.
#[derive(Debug)]
pub struct SharedLlc {
    cfg: CacheConfig,
    /// Per set, the number of its block in `blocks`, counting from 1; 0
    /// while the set has never installed a line. Zero-initialised, so a
    /// fresh cache writes none of it: a run pays for the sets it touches.
    block_of: Vec<u32>,
    /// The touched sets' blocks, in first-install order: block `b` is
    /// `blocks[(b - 1) * 2 * ways..][..2 * ways]`, its `ways` tag words
    /// (line address | [`VALID`] | [`DIRTY`]) then its `ways` LRU stamps
    /// (bigger = more recent; 0 = never filled). A lookup scans only the
    /// tag words: 64 B at 8 ways.
    blocks: Vec<u64>,
    /// `line_bytes - 1` complement, precomputed (line alignment mask).
    line_mask: u64,
    /// `log2(line_bytes)`, precomputed (line → line-index shift).
    line_shift: u32,
    /// Number of sets, precomputed (not necessarily a power of two — the
    /// Kim'25 36 MiB configuration has 73728 sets — so indexing stays a
    /// modulo, but of a cached value).
    num_sets: u64,
    mshr: LineMap<Mshr>,
    /// Uncached loads in flight: line address → waiter FIFO. Unlike MSHRs,
    /// uncached loads never merge (clflush-hammer semantics): every load
    /// is its own DRAM access, and each fill wakes exactly one waiter.
    uncached: LineMap<VecDeque<u64>>,
    uncached_outstanding: usize,
    /// Requests awaiting forwarding to the memory controller.
    outbox: VecDeque<UncoreRequest>,
    lru_clock: u64,
    hits: u64,
    misses: u64,
}

impl SharedLlc {
    /// An empty cache.
    ///
    /// # Panics
    ///
    /// If the line size is not a power of two of at least 4 bytes (a tag
    /// word keeps its flags in the line offset's two low bits), if there
    /// are more sets than a `u32` block number can count, or if `mshrs` is
    /// zero (no miss could ever issue, so the run would never finish).
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two() && cfg.line_bytes >= 4,
            "line size must be a power of two of at least 4 bytes"
        );
        assert!(cfg.mshrs > 0, "LLC needs at least one MSHR (mshrs 0)");
        let sets = cfg.sets();
        assert!(
            u32::try_from(sets).is_ok(),
            "{sets} LLC sets exceed u32 block numbers"
        );
        Self {
            cfg,
            block_of: vec![0; sets],
            blocks: Vec::new(),
            line_mask: !(cfg.line_bytes as u64 - 1),
            line_shift: cfg.line_bytes.trailing_zeros(),
            num_sets: sets as u64,
            mshr: LineMap::default(),
            uncached: LineMap::default(),
            uncached_outstanding: 0,
            outbox: VecDeque::new(),
            lru_clock: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The cache configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    fn line_addr(&self, addr: u64) -> u64 {
        addr & self.line_mask
    }

    fn set_of(&self, line_addr: u64) -> usize {
        ((line_addr >> self.line_shift) % self.num_sets) as usize
    }

    /// Where the block of the set holding `line_addr` starts in `blocks`,
    /// allocating it (all ways never filled) on the set's first install.
    fn block_for_install(&mut self, line_addr: u64) -> usize {
        let (set, len) = (self.set_of(line_addr), 2 * self.cfg.ways);
        if self.block_of[set] == 0 {
            self.blocks.resize(self.blocks.len() + len, 0);
            self.block_of[set] = (self.blocks.len() / len) as u32;
        }
        (self.block_of[set] as usize - 1) * len
    }

    /// Looks `line_addr` up and, on a hit, stamps it most recently used
    /// and returns its tag word's index in `blocks`. A set that never
    /// installed a line misses without allocating. A miss leaves the LRU
    /// clock alone — stamps only need to be ordered, and a miss the MSHR
    /// file then rejects must not change anything.
    fn probe(&mut self, line_addr: u64) -> Option<usize> {
        let ways = self.cfg.ways;
        let block = self.block_of[self.set_of(line_addr)].checked_sub(1)?;
        let base = block as usize * 2 * ways;
        let way = self.blocks[base..base + ways]
            .iter()
            .position(|&tag| tag & !DIRTY == line_addr | VALID)?;
        self.lru_clock += 1;
        self.blocks[base + ways + way] = self.lru_clock;
        Some(base + way)
    }

    /// Probes for a cacheable load. On a miss, `token` is parked on the
    /// line's MSHR (merged with any existing miss).
    pub fn load(&mut self, addr: u64, token: u64) -> LoadResult {
        let line = self.line_addr(addr);
        if self.probe(line).is_some() {
            self.hits += 1;
            return LoadResult::Hit;
        }
        // One hash walk for merge + capacity check + allocation: capacity
        // only gates *new* entries, so it is read before the entry borrow.
        let at_capacity = self.mshr.len() >= self.cfg.mshrs;
        match self.mshr.entry(line) {
            Entry::Occupied(mut e) => {
                let m = e.get_mut();
                m.waiters.push(token);
                m.fill = true;
                self.misses += 1;
                LoadResult::Miss
            }
            Entry::Vacant(v) => {
                if at_capacity {
                    return LoadResult::Rejected;
                }
                self.misses += 1;
                v.insert(Mshr {
                    waiters: vec![token],
                    fill: true,
                    dirty: false,
                });
                self.outbox.push_back(UncoreRequest {
                    line_addr: line,
                    write: false,
                    uncached: false,
                    core: SimpleO3Core::token_core(token),
                });
                LoadResult::Miss
            }
        }
    }

    /// A store (write-allocate) from `core`: hit marks dirty and
    /// completes; a miss allocates an MSHR for the read-for-ownership but
    /// the store itself is posted (returns `true`). Returns `false` when
    /// the store must retry (MSHR pressure).
    pub fn store(&mut self, addr: u64, core: u8) -> bool {
        let line = self.line_addr(addr);
        if let Some(tag) = self.probe(line) {
            self.blocks[tag] |= DIRTY;
            self.hits += 1;
            return true;
        }
        let at_capacity = self.mshr.len() >= self.cfg.mshrs;
        match self.mshr.entry(line) {
            Entry::Occupied(mut e) => {
                let m = e.get_mut();
                m.fill = true;
                m.dirty = true;
                self.misses += 1;
                true
            }
            Entry::Vacant(v) => {
                if at_capacity {
                    return false;
                }
                self.misses += 1;
                v.insert(Mshr {
                    waiters: Vec::new(),
                    fill: true,
                    dirty: true,
                });
                self.outbox.push_back(UncoreRequest {
                    line_addr: line,
                    write: false,
                    uncached: false,
                    core,
                });
                true
            }
        }
    }

    /// Marks a previously filled line dirty (deferred store completion on
    /// RFO fill). No-op if the line is absent.
    pub fn mark_dirty(&mut self, addr: u64) {
        let line = self.line_addr(addr);
        if let Some(tag) = self.probe(line) {
            self.blocks[tag] |= DIRTY;
        }
    }

    /// A non-cacheable load: always produces its own DRAM read (no
    /// merging); `token` is woken when that read returns.
    pub fn load_uncached(&mut self, addr: u64, token: u64) -> LoadResult {
        if self.uncached_outstanding >= self.cfg.mshrs {
            return LoadResult::Rejected;
        }
        let line = self.line_addr(addr);
        self.uncached.entry(line).or_default().push_back(token);
        self.uncached_outstanding += 1;
        self.outbox.push_back(UncoreRequest {
            line_addr: line,
            write: false,
            uncached: true,
            core: SimpleO3Core::token_core(token),
        });
        LoadResult::Miss
    }

    /// The next request to forward to the memory controller, if any.
    pub fn peek_request(&self) -> Option<&UncoreRequest> {
        self.outbox.front()
    }

    /// Removes the request previously returned by
    /// [`SharedLlc::peek_request`] once the controller accepted it.
    pub fn pop_request(&mut self) -> Option<UncoreRequest> {
        self.outbox.pop_front()
    }

    /// A line read completed. Installs the line (cacheable fills), wakes
    /// waiters, and reports any dirty eviction; the caller turns the
    /// returned writeback into a memory write.
    ///
    /// `waiters` is a caller-owned scratch buffer: it is cleared, then
    /// filled with the tokens to wake. Reusing one buffer across fills
    /// keeps this path allocation-free (the uncached path runs once per
    /// attack access).
    pub fn on_fill(
        &mut self,
        line_addr: u64,
        uncached: bool,
        waiters: &mut Vec<u64>,
    ) -> Option<u64> {
        waiters.clear();
        if uncached {
            if let Some(q) = self.uncached.get_mut(&line_addr) {
                if let Some(t) = q.pop_front() {
                    waiters.push(t);
                    self.uncached_outstanding -= 1;
                }
                if q.is_empty() {
                    self.uncached.remove(&line_addr);
                }
            }
            return None;
        }
        let m = self.mshr.remove(&line_addr)?;
        waiters.extend_from_slice(&m.waiters);
        let mut writeback = None;
        if m.fill {
            let (base, ways) = (self.block_for_install(line_addr), self.cfg.ways);
            let (tags, stamps) = self.blocks[base..base + 2 * ways].split_at_mut(ways);
            // The first never-filled way (stamp 0), else the least recent.
            let way = (0..ways).min_by_key(|&w| stamps[w]).expect("ways >= 1");
            if tags[way] & DIRTY != 0 {
                writeback = Some(tags[way] & !(VALID | DIRTY));
            }
            self.lru_clock += 1;
            tags[way] = line_addr | VALID | if m.dirty { DIRTY } else { 0 };
            stamps[way] = self.lru_clock;
        }
        writeback
    }

    /// (hits, misses) so far.
    pub fn hit_miss(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Outstanding MSHR entries (cacheable + uncached).
    pub fn inflight(&self) -> usize {
        self.mshr.len() + self.uncached_outstanding
    }

    /// Sets that have installed a line (each holds one block).
    #[cfg(test)]
    pub(crate) fn allocated_sets(&self) -> usize {
        self.blocks.len() / (2 * self.cfg.ways)
    }

    /// Everything an access can change, short of the blocks themselves
    /// (whose every write also moves `lru_clock` or a counter).
    #[cfg(test)]
    pub(crate) fn fingerprint(&self) -> impl PartialEq + std::fmt::Debug {
        (
            self.inflight(),
            self.outbox.len(),
            self.hit_miss(),
            self.lru_clock,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> SharedLlc {
        SharedLlc::new(CacheConfig {
            capacity: 4096, // 4 sets of 8 ways… wait, 4096/64/8 = 8 sets
            ways: 2,
            line_bytes: 64,
            hit_latency: 10,
            mshrs: 4,
        })
    }

    /// Test convenience over the scratch-buffer API.
    fn fill(c: &mut SharedLlc, line: u64, uncached: bool) -> (Vec<u64>, Option<u64>) {
        let mut waiters = Vec::new();
        let wb = c.on_fill(line, uncached, &mut waiters);
        (waiters, wb)
    }

    #[test]
    fn default_config_matches_table2() {
        let c = CacheConfig::default();
        assert_eq!(c.sets(), 16_384);
        assert_eq!(c.capacity, 8 << 20);
        assert_eq!(c.ways, 8);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = small();
        assert_eq!(c.load(0x1000, 7), LoadResult::Miss);
        let req = c.pop_request().unwrap();
        assert_eq!(req.line_addr, 0x1000);
        assert!(!req.write);
        assert_eq!(req.core, 0);
        let (waiters, _) = fill(&mut c, 0x1000, false);
        assert_eq!(waiters, vec![7]);
        assert_eq!(c.load(0x1000, 8), LoadResult::Hit);
    }

    #[test]
    fn concurrent_misses_merge() {
        let mut c = small();
        assert_eq!(c.load(0x1000, 1), LoadResult::Miss);
        assert_eq!(c.load(0x1040, 2), LoadResult::Miss);
        assert_eq!(c.load(0x1000, 3), LoadResult::Miss); // merges
        assert_eq!(c.outbox.len(), 2, "merged miss sends one request");
        let (waiters, _) = fill(&mut c, 0x1000, false);
        assert_eq!(waiters, vec![1, 3]);
    }

    #[test]
    fn mshr_capacity_rejects() {
        let mut c = small();
        for i in 0..4u64 {
            assert_eq!(c.load(0x10000 + i * 64, i), LoadResult::Miss);
        }
        assert_eq!(c.load(0x90000, 99), LoadResult::Rejected);
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let mut c = small();
        // Fill both ways of one set with dirty lines, then force eviction.
        let set_stride = 64 * 32; // 2048-byte stride maps to the same set (32 sets)
        let a = 0x0;
        let b = a + set_stride;
        let d = b + set_stride;
        for addr in [a, b] {
            assert!(c.store(addr, 0));
            fill(&mut c, addr, false);
        }
        assert_eq!(c.load(d, 5), LoadResult::Miss);
        let (_, writeback) = fill(&mut c, d, false);
        assert!(writeback.is_some(), "a dirty victim must write back");
    }

    #[test]
    fn store_miss_installs_dirty_line() {
        // Write-allocate: the RFO fill must carry the store's dirty bit so
        // the eventual eviction writes back to DRAM.
        let mut c = small();
        assert!(c.store(0x1000, 2));
        let req = c.pop_request().unwrap();
        assert!(!req.write, "RFO is a read");
        assert_eq!(req.core, 2, "RFO attributed to the storing core");
        fill(&mut c, 0x1000, false);
        // Evict it via two more fills into the same set.
        let stride = 64 * 32;
        for i in 1..=2u64 {
            c.load(0x1000 + i * stride, i);
            let (_, writeback) = fill(&mut c, 0x1000 + i * stride, false);
            if i == 2 {
                assert_eq!(writeback, Some(0x1000), "store data lost");
            }
        }
    }

    #[test]
    fn uncached_loads_never_install() {
        let mut c = small();
        assert_eq!(c.load_uncached(0x5000, 9), LoadResult::Miss);
        let req = c.pop_request().unwrap();
        assert!(req.uncached);
        let (waiters, _) = fill(&mut c, 0x5000, true);
        assert_eq!(waiters, vec![9]);
        // Still a miss afterwards: nothing was cached.
        assert_eq!(c.load(0x5000, 10), LoadResult::Miss);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small();
        let stride = 64 * 32;
        let (a, b, d) = (0u64, stride, 2 * stride);
        c.load(a, 1);
        fill(&mut c, a, false);
        c.load(b, 2);
        fill(&mut c, b, false);
        // Touch `a` so `b` is LRU.
        assert_eq!(c.load(a, 3), LoadResult::Hit);
        c.load(d, 4);
        fill(&mut c, d, false);
        assert_eq!(c.load(a, 5), LoadResult::Hit, "a must survive");
        assert_eq!(c.load(b, 6), LoadResult::Miss, "b was evicted");
    }

    #[test]
    fn fill_scratch_buffer_is_cleared_between_calls() {
        let mut c = small();
        c.load(0x1000, 1);
        c.load(0x2000, 2);
        let mut waiters = vec![99, 98, 97]; // stale contents must vanish
        c.on_fill(0x1000, false, &mut waiters);
        assert_eq!(waiters, vec![1]);
        c.on_fill(0x2000, false, &mut waiters);
        assert_eq!(waiters, vec![2]);
        // A fill with no MSHR leaves the buffer empty, not stale.
        c.on_fill(0x9000, false, &mut waiters);
        assert!(waiters.is_empty());
    }

    #[test]
    fn rejection_is_side_effect_free_and_holds_until_a_fill() {
        // What lets a core sleep through an MSHR stall: once an access is
        // rejected, no interleaving of other accesses (from any core) can
        // turn it into an accepted one — only `on_fill` can — and the
        // retries themselves leave the cache untouched.
        #[derive(Clone, Copy, Debug)]
        enum Kind {
            Load,
            Store,
            LoadNc,
        }
        fn access(c: &mut SharedLlc, kind: Kind, addr: u64, token: u64) -> bool {
            match kind {
                Kind::Load => c.load(addr, token) != LoadResult::Rejected,
                Kind::Store => c.store(addr, (token >> 48) as u8),
                Kind::LoadNc => c.load_uncached(addr, token) != LoadResult::Rejected,
            }
        }
        let mut rng = crate::TestRng(0x11c);
        let mut rejections = 0;
        for case in 0..200u64 {
            let mut c = SharedLlc::new(CacheConfig {
                capacity: 4096,
                ways: 2,
                line_bytes: 64,
                hit_latency: 10,
                mshrs: [1, 2, 4][(case % 3) as usize],
            });
            let mut token = 0u64;
            let mut draw = |rng: &mut crate::TestRng| {
                token += 1;
                let kind = [Kind::Load, Kind::Store, Kind::LoadNc][rng.below(3) as usize];
                // 64 lines over 32 sets × 2 ways: hits, merges, evictions.
                let addr = rng.below(64) * 64 + rng.below(64);
                (kind, addr, (rng.below(4) << 48) | token)
            };
            let mut outstanding: Vec<UncoreRequest> = Vec::new();
            let mut waiters = Vec::new();
            for _ in 0..40 {
                let (kind, addr, tok) = draw(&mut rng);
                if access(&mut c, kind, addr, tok) {
                    while let Some(req) = c.pop_request() {
                        outstanding.push(req);
                    }
                    // Sometimes answer a request so lines get installed.
                    if !outstanding.is_empty() && rng.below(3) == 0 {
                        let req =
                            outstanding.swap_remove(rng.below(outstanding.len() as u64) as usize);
                        c.on_fill(req.line_addr, req.uncached, &mut waiters);
                    }
                    continue;
                }
                rejections += 1;
                for _ in 0..30 {
                    let (k2, a2, t2) = draw(&mut rng);
                    access(&mut c, k2, a2, t2);
                    let state = c.fingerprint();
                    assert!(
                        !access(&mut c, kind, addr, tok),
                        "case {case}: rejected {kind:?} {addr:#x} accepted after {k2:?} {a2:#x} with no fill"
                    );
                    assert_eq!(
                        c.fingerprint(),
                        state,
                        "case {case}: a rejected retry changed the cache"
                    );
                }
                break;
            }
        }
        assert!(
            rejections > 100,
            "only {rejections} cases reached a rejection"
        );
    }

    #[test]
    #[should_panic(expected = "LLC needs at least one MSHR")]
    fn zero_mshrs_are_rejected_at_construction() {
        SharedLlc::new(CacheConfig {
            mshrs: 0,
            ..CacheConfig::default()
        });
    }

    /// One way of [`LineArrayLlc`].
    #[derive(Debug, Clone, Copy, Default)]
    struct Line {
        tag: u64,
        dirty: bool,
        /// LRU stamp (bigger = more recent).
        lru: u64,
        valid: bool,
    }

    /// The LLC that the lazily allocated set blocks replaced: every line
    /// of every set in one dense, set-major array built up front. Kept as
    /// the reference the product cache is checked against.
    struct LineArrayLlc {
        cfg: CacheConfig,
        lines: Vec<Line>,
        mshr: HashMap<u64, Mshr>,
        uncached: HashMap<u64, VecDeque<u64>>,
        uncached_outstanding: usize,
        outbox: VecDeque<UncoreRequest>,
        lru_clock: u64,
        hits: u64,
        misses: u64,
    }

    impl LineArrayLlc {
        fn new(cfg: CacheConfig) -> Self {
            Self {
                cfg,
                lines: vec![Line::default(); cfg.sets() * cfg.ways],
                mshr: HashMap::new(),
                uncached: HashMap::new(),
                uncached_outstanding: 0,
                outbox: VecDeque::new(),
                lru_clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn set_ways(&mut self, line: u64) -> &mut [Line] {
            let base = self.set_base(line);
            &mut self.lines[base..base + self.cfg.ways]
        }

        fn set_base(&self, line: u64) -> usize {
            let set = line / self.cfg.line_bytes as u64 % self.cfg.sets() as u64;
            set as usize * self.cfg.ways
        }

        fn probe(&mut self, line: u64) -> Option<&mut Line> {
            let base = self.set_base(line);
            let hit = self.lines[base..base + self.cfg.ways]
                .iter_mut()
                .find(|l| l.valid && l.tag == line)?;
            self.lru_clock += 1;
            hit.lru = self.lru_clock;
            Some(hit)
        }

        /// A cacheable miss of `line`: merged, allocated or refused.
        fn miss(&mut self, line: u64, waiter: Option<u64>, dirty: bool, core: u8) -> bool {
            if let Some(m) = self.mshr.get_mut(&line) {
                m.waiters.extend(waiter);
                m.fill = true;
                m.dirty |= dirty;
            } else if self.mshr.len() >= self.cfg.mshrs {
                return false;
            } else {
                let waiters = waiter.into_iter().collect();
                self.mshr.insert(
                    line,
                    Mshr {
                        waiters,
                        fill: true,
                        dirty,
                    },
                );
                let write = false;
                let uncached = false;
                self.outbox.push_back(UncoreRequest {
                    line_addr: line,
                    write,
                    uncached,
                    core,
                });
            }
            self.misses += 1;
            true
        }

        fn load(&mut self, addr: u64, token: u64) -> LoadResult {
            let line = addr & !(self.cfg.line_bytes as u64 - 1);
            if self.probe(line).is_some() {
                self.hits += 1;
                LoadResult::Hit
            } else if self.miss(line, Some(token), false, SimpleO3Core::token_core(token)) {
                LoadResult::Miss
            } else {
                LoadResult::Rejected
            }
        }

        fn store(&mut self, addr: u64, core: u8) -> bool {
            let line = addr & !(self.cfg.line_bytes as u64 - 1);
            if let Some(l) = self.probe(line) {
                l.dirty = true;
                self.hits += 1;
                return true;
            }
            self.miss(line, None, true, core)
        }

        fn mark_dirty(&mut self, addr: u64) {
            let line = addr & !(self.cfg.line_bytes as u64 - 1);
            if let Some(l) = self.probe(line) {
                l.dirty = true;
            }
        }

        fn load_uncached(&mut self, addr: u64, token: u64) -> LoadResult {
            if self.uncached_outstanding >= self.cfg.mshrs {
                return LoadResult::Rejected;
            }
            let line = addr & !(self.cfg.line_bytes as u64 - 1);
            self.uncached.entry(line).or_default().push_back(token);
            self.uncached_outstanding += 1;
            let core = SimpleO3Core::token_core(token);
            let (write, uncached) = (false, true);
            self.outbox.push_back(UncoreRequest {
                line_addr: line,
                write,
                uncached,
                core,
            });
            LoadResult::Miss
        }

        fn on_fill(&mut self, line: u64, uncached: bool, waiters: &mut Vec<u64>) -> Option<u64> {
            waiters.clear();
            if uncached {
                if let Some(q) = self.uncached.get_mut(&line) {
                    if let Some(t) = q.pop_front() {
                        waiters.push(t);
                        self.uncached_outstanding -= 1;
                    }
                    if q.is_empty() {
                        self.uncached.remove(&line);
                    }
                }
                return None;
            }
            let m = self.mshr.remove(&line)?;
            waiters.extend_from_slice(&m.waiters);
            if !m.fill {
                return None;
            }
            self.lru_clock += 1;
            let lru = self.lru_clock;
            let victim = (self.set_ways(line).iter_mut())
                .min_by_key(|l| if l.valid { l.lru } else { 0 })
                .expect("ways >= 1");
            let writeback = (victim.valid && victim.dirty).then_some(victim.tag);
            *victim = Line {
                tag: line,
                dirty: m.dirty,
                lru,
                valid: true,
            };
            writeback
        }
    }

    /// Random load, store, uncached-load, fill and `mark_dirty` streams
    /// through the product cache and [`LineArrayLlc`], at 2 ways × 8 sets
    /// (every set thrashes) and at Table 2's geometry (addresses drawn
    /// over 32 sets, 12 lines each, so its sets evict too): every answer,
    /// forwarded request, woken waiter, writeback and counter is the same.
    #[test]
    fn set_blocks_match_the_line_array() {
        let mut rng = crate::TestRng(0x5e7);
        let tiny = CacheConfig {
            capacity: 1024,
            ways: 2,
            line_bytes: 64,
            hit_latency: 10,
            mshrs: 4,
        };
        let (mut writebacks, mut hits) = (0, 0);
        for cfg in [tiny, CacheConfig::default()] {
            let sets = cfg.sets() as u64;
            for case in 0..100 {
                let (mut c, mut r) = (SharedLlc::new(cfg), LineArrayLlc::new(cfg));
                let (mut outstanding, mut wc, mut wr) = (Vec::new(), Vec::new(), Vec::new());
                for step in 0..400u64 {
                    let line = (rng.below(32) + rng.below(12) * sets) * 64;
                    let addr = line + rng.below(64);
                    let token = (rng.below(4) << 48) | step;
                    let ctx = format!("{} sets, case {case}, step {step}", sets);
                    match rng.below(8) {
                        0 | 1 => assert_eq!(c.load(addr, token), r.load(addr, token), "{ctx}"),
                        2 => {
                            let core = rng.below(4) as u8;
                            assert_eq!(c.store(addr, core), r.store(addr, core), "{ctx}");
                        }
                        3 => {
                            let got = c.load_uncached(addr, token);
                            assert_eq!(got, r.load_uncached(addr, token), "{ctx}");
                        }
                        4 => {
                            c.mark_dirty(addr);
                            r.mark_dirty(addr);
                        }
                        _ if !outstanding.is_empty() => {
                            let i = rng.below(outstanding.len() as u64) as usize;
                            let req: UncoreRequest = outstanding.swap_remove(i);
                            let wb = c.on_fill(req.line_addr, req.uncached, &mut wc);
                            assert_eq!(wb, r.on_fill(req.line_addr, req.uncached, &mut wr));
                            assert_eq!(wc, wr, "{ctx}: waiters");
                            writebacks += u32::from(wb.is_some());
                        }
                        _ => {}
                    }
                    while let Some(req) = c.pop_request() {
                        assert_eq!(Some(req), r.outbox.pop_front(), "{ctx}: request");
                        outstanding.push(req);
                    }
                    assert!(
                        r.outbox.is_empty(),
                        "{ctx}: a request the cache did not send"
                    );
                    assert_eq!(c.hit_miss(), (r.hits, r.misses), "{ctx}");
                    assert_eq!(c.inflight(), r.mshr.len() + r.uncached_outstanding, "{ctx}");
                }
                hits += c.hit_miss().0;
            }
        }
        assert!(
            writebacks > 200 && hits > 2000,
            "{writebacks} writebacks, {hits} hits"
        );
    }

    #[test]
    fn sets_allocate_their_block_on_first_install() {
        let mut c = SharedLlc::new(CacheConfig::default());
        assert_eq!(c.allocated_sets(), 0, "a fresh cache holds no block");
        assert_eq!(c.load(0x1000, 1), LoadResult::Miss);
        assert!(c.store(0x2000, 0));
        c.mark_dirty(0x3000);
        assert_eq!(c.load_uncached(0x4000, 2), LoadResult::Miss);
        let mut waiters = Vec::new();
        c.on_fill(0x4000, true, &mut waiters);
        assert_eq!(waiters, [2]);
        assert_eq!(
            c.allocated_sets(),
            0,
            "probe misses and uncached loads allocate none"
        );
        c.on_fill(0x1000, false, &mut waiters);
        assert_eq!(
            c.allocated_sets(),
            1,
            "a set's first fill allocates one block"
        );
        // A second line of the same set reuses its block.
        let same_set = 0x1000 + (c.config().sets() * 64) as u64;
        assert_eq!(c.load(same_set, 3), LoadResult::Miss);
        c.on_fill(same_set, false, &mut waiters);
        assert_eq!(c.allocated_sets(), 1);
        assert_eq!(c.load(0x1000, 4), LoadResult::Hit);
        c.on_fill(0x2000, false, &mut waiters);
        assert_eq!(c.allocated_sets(), 2);
    }

    #[test]
    fn merged_miss_is_attributed_to_the_first_waiter() {
        let mut c = small();
        let t = |core: u8, n: u64| ((core as u64) << 48) | n;
        assert_eq!(c.load(0x1000, t(3, 1)), LoadResult::Miss);
        assert_eq!(c.load(0x1000, t(5, 2)), LoadResult::Miss); // merges
        let req = c.pop_request().unwrap();
        assert_eq!(req.core, 3, "one request, first core's label");
    }
}
