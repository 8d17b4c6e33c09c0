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

#[derive(Debug, Clone, Copy)]
struct Line {
    tag: u64,
    dirty: bool,
    /// LRU stamp (bigger = more recent).
    lru: u64,
    valid: bool,
}

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
    /// All lines in one flat allocation, set-major: set `s` occupies
    /// `lines[s * ways .. (s + 1) * ways]`. One contiguous block keeps the
    /// per-access way scan on a single cache line instead of chasing a
    /// per-set `Vec` pointer.
    lines: Vec<Line>,
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
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(
            cfg.line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        let sets = cfg.sets();
        Self {
            cfg,
            lines: vec![
                Line {
                    tag: 0,
                    dirty: false,
                    lru: 0,
                    valid: false,
                };
                sets * cfg.ways
            ],
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

    /// The ways of the set holding `line_addr`, as one contiguous slice.
    fn set_ways(&mut self, line_addr: u64) -> &mut [Line] {
        let base = self.set_of(line_addr) * self.cfg.ways;
        &mut self.lines[base..base + self.cfg.ways]
    }

    /// Looks `line_addr` up and, on a hit, stamps it most recently used.
    /// A miss leaves the LRU clock alone — stamps only need to be ordered,
    /// and a miss the MSHR file then rejects must not change anything.
    fn probe(&mut self, line_addr: u64) -> Option<&mut Line> {
        let base = self.set_of(line_addr) * self.cfg.ways;
        let line = self.lines[base..base + self.cfg.ways]
            .iter_mut()
            .find(|l| l.valid && l.tag == line_addr)?;
        self.lru_clock += 1;
        line.lru = self.lru_clock;
        Some(line)
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
        if let Some(l) = self.probe(line) {
            l.dirty = true;
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
        if let Some(l) = self.probe(line) {
            l.dirty = true;
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
            self.lru_clock += 1;
            let clock = self.lru_clock;
            let victim = self
                .set_ways(line_addr)
                .iter_mut()
                .min_by_key(|l| if l.valid { l.lru } else { 0 })
                .expect("ways >= 1");
            if victim.valid && victim.dirty {
                writeback = Some(victim.tag);
            }
            *victim = Line {
                tag: line_addr,
                dirty: m.dirty,
                lru: clock,
                valid: true,
            };
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

    /// Everything an access can change, short of the line array itself
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
    fn merged_miss_is_attributed_to_the_first_waiter() {
        let mut c = small();
        let t = |core: u8, n: u64| ((core as u64) << 48) | n;
        assert_eq!(c.load(0x1000, t(3, 1)), LoadResult::Miss);
        assert_eq!(c.load(0x1000, t(5, 2)), LoadResult::Miss); // merges
        let req = c.pop_request().unwrap();
        assert_eq!(req.core, 3, "one request, first core's label");
    }
}
