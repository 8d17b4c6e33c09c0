//! Per-bank indexed request queues for the event-driven controller.
//!
//! The scheduler's FR-FCFS passes only ever care about two requests per
//! bank — the oldest row hit and the oldest non-hit — so the controller
//! keeps demand requests in a stable slab indexed by flat bank id:
//! [`RequestQueue::bank_slots`] yields each bank's requests oldest-first,
//! [`RequestQueue::occupied_banks`] enumerates only banks that have work,
//! and per-entry sequence numbers ([`Entry::seq`]) recover the global age
//! order the flat `Vec` used to encode positionally. Removal is O(bank
//! depth) instead of O(queue) `Vec::remove`.
//!
//! A queue holds one request kind, which the scheduler takes from its
//! caller, and a table of each flat bank's `BankId`.

use chronus_dram::{BankId, Geometry, RowId};

use crate::request::MemRequest;
use crate::scheduler::Entry;

/// Largest flat-bank index the fixed bitsets support. Controllers reject
/// geometries beyond this at construction (a hard error, not a
/// `debug_assert!` — see [`BankSet`]).
pub const MAX_BANKS: usize = 256;

const WORDS: usize = MAX_BANKS / 64;

/// A fixed-capacity set of flat bank ids (up to [`MAX_BANKS`]).
///
/// Replaces the bare `u64` masks the scheduler used to shift into — those
/// silently overflowed for geometries past 64 banks in release builds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BankSet {
    words: [u64; WORDS],
}

impl BankSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `flat` to the set.
    #[inline]
    pub fn insert(&mut self, flat: usize) {
        self.words[flat / 64] |= 1 << (flat % 64);
    }

    /// Removes `flat` from the set.
    #[inline]
    pub fn remove(&mut self, flat: usize) {
        self.words[flat / 64] &= !(1 << (flat % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, flat: usize) -> bool {
        self.words[flat / 64] & (1 << (flat % 64)) != 0
    }

    /// Iterates members in ascending order.
    pub fn iter(&self) -> BankSetIter {
        BankSetIter {
            words: self.words,
            word: 0,
        }
    }
}

/// Iterator over a [`BankSet`], ascending.
pub struct BankSetIter {
    words: [u64; WORDS],
    word: usize,
}

impl Iterator for BankSetIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        while self.word < WORDS {
            let w = self.words[self.word];
            if w != 0 {
                let bit = w.trailing_zeros() as usize;
                self.words[self.word] = w & (w - 1);
                return Some(self.word * 64 + bit);
            }
            self.word += 1;
        }
        None
    }
}

/// A demand queue (reads or writes) indexed by flat bank.
#[derive(Debug)]
pub struct RequestQueue {
    geo: Geometry,
    /// Stable storage; slot ids stay valid until removal.
    slots: Vec<Option<Entry>>,
    free: Vec<u32>,
    /// Per flat bank: slot ids in age order (oldest first), and their rows.
    by_bank: Vec<Vec<u32>>,
    rows: Vec<Vec<RowId>>,
    /// Per flat bank: its `BankId`.
    bank_ids: Vec<BankId>,
    occupied: BankSet,
    rank_len: Vec<usize>,
    len: usize,
    next_seq: u64,
}

impl RequestQueue {
    /// An empty queue for `geo`.
    ///
    /// # Panics
    ///
    /// Panics when the geometry exceeds [`MAX_BANKS`] flat banks — the
    /// scheduler's bank bitsets are fixed-width, so larger geometries must
    /// fail loudly at construction rather than mis-schedule silently.
    pub fn new(geo: Geometry) -> Self {
        assert!(
            geo.total_banks() <= MAX_BANKS,
            "geometry has {} banks; the controller's bank bitsets support \
             at most {MAX_BANKS}",
            geo.total_banks()
        );
        Self {
            geo,
            slots: Vec::new(),
            free: Vec::new(),
            by_bank: vec![Vec::new(); geo.total_banks()],
            rows: vec![Vec::new(); geo.total_banks()],
            bank_ids: (0..geo.total_banks())
                .map(|flat| BankId::from_flat(flat, &geo))
                .collect(),
            occupied: BankSet::new(),
            rank_len: vec![0; geo.ranks],
            len: 0,
            next_seq: 0,
        }
    }

    /// Queued requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no request is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Queued requests whose bank lives in `rank`.
    pub fn rank_len(&self, rank: usize) -> usize {
        self.rank_len[rank]
    }

    /// Appends `req` (it becomes the youngest entry) and returns its slot.
    pub fn push(&mut self, req: MemRequest) -> u32 {
        let entry = Entry {
            req,
            caused_pre: false,
            caused_act: false,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(entry);
                s
            }
            None => {
                self.slots.push(Some(entry));
                (self.slots.len() - 1) as u32
            }
        };
        let flat = req.addr.bank.flat(&self.geo);
        self.by_bank[flat].push(slot);
        self.rows[flat].push(req.addr.row);
        self.occupied.insert(flat);
        self.rank_len[req.addr.bank.rank as usize] += 1;
        self.len += 1;
        slot
    }

    /// The entry stored at `slot`.
    pub fn get(&self, slot: u32) -> &Entry {
        self.slots[slot as usize].as_ref().expect("live slot")
    }

    /// Mutable access to the entry stored at `slot`.
    pub fn get_mut(&mut self, slot: u32) -> &mut Entry {
        self.slots[slot as usize].as_mut().expect("live slot")
    }

    /// Removes and returns the entry at `slot`.
    pub fn remove(&mut self, slot: u32) -> Entry {
        let entry = self.slots[slot as usize].take().expect("live slot");
        let flat = entry.req.addr.bank.flat(&self.geo);
        let list = &mut self.by_bank[flat];
        let pos = list
            .iter()
            .position(|&s| s == slot)
            .expect("slot indexed under its bank");
        list.remove(pos);
        self.rows[flat].remove(pos);
        if list.is_empty() {
            self.occupied.remove(flat);
        }
        self.rank_len[entry.req.addr.bank.rank as usize] -= 1;
        self.len -= 1;
        self.free.push(slot);
        entry
    }

    /// The [`BankId`] of flat bank `flat` (the inverse of `BankId::flat`).
    pub(crate) fn bank_id(&self, flat: usize) -> BankId {
        self.bank_ids[flat]
    }

    /// Flat bank ids that currently hold at least one request, ascending.
    pub fn occupied_banks(&self) -> BankSetIter {
        self.occupied.iter()
    }

    /// Slot ids queued for flat bank `flat`, oldest first.
    pub fn bank_slots(&self, flat: usize) -> &[u32] {
        &self.by_bank[flat]
    }

    /// The row of each of [`Self::bank_slots`]`(flat)`, in the same order.
    pub fn bank_rows(&self, flat: usize) -> &[RowId] {
        &self.rows[flat]
    }

    /// All live `(slot, entry)` pairs, in unspecified order. Sort by
    /// [`Entry::seq`] to recover arrival order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &Entry)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.as_ref().map(|e| (i as u32, e)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::ReqKind;
    use chronus_dram::DramAddr;

    fn req(id: u64, flat: usize, geo: &Geometry) -> MemRequest {
        MemRequest {
            id,
            kind: ReqKind::Read,
            addr: DramAddr::new(BankId::from_flat(flat, geo), id as u32, 0),
            core: 0,
            arrived: id,
        }
    }

    #[test]
    fn bank_lists_stay_age_ordered_across_reuse() {
        let geo = Geometry::tiny();
        let mut q = RequestQueue::new(geo);
        let a = q.push(req(0, 1, &geo));
        let b = q.push(req(1, 1, &geo));
        let c = q.push(req(2, 3, &geo));
        assert_eq!(q.len(), 3);
        assert_eq!(q.rank_len(0), 3);
        assert_eq!(q.occupied_banks().collect::<Vec<_>>(), vec![1, 3]);
        assert_eq!(q.bank_slots(1), &[a, b]);
        // Remove the middle-aged entry; the freed slot is reused but the
        // new entry is still the youngest of its bank.
        let gone = q.remove(a);
        assert_eq!(gone.req.id, 0);
        let d = q.push(req(3, 1, &geo));
        assert_eq!(q.bank_slots(1), &[b, d]);
        assert!(q.get(b).seq < q.get(d).seq, "seq recovers age order");
        let _ = q.remove(b);
        let _ = q.remove(d);
        assert_eq!(q.occupied_banks().collect::<Vec<_>>(), vec![3]);
        let _ = q.remove(c);
        assert!(q.is_empty());
        assert_eq!(q.rank_len(0), 0);
    }

    #[test]
    fn bank_rows_follow_bank_slots() {
        let geo = Geometry::tiny();
        let mut q = RequestQueue::new(geo);
        let slots: Vec<u32> = (0..4).map(|id| q.push(req(id, 2, &geo))).collect();
        assert_eq!(q.bank_rows(2), &[0, 1, 2, 3]);
        let _ = q.remove(slots[1]);
        let _ = q.push(req(7, 2, &geo));
        let _ = q.remove(slots[0]);
        assert_eq!(q.bank_rows(2), &[2, 3, 7]);
        for (&slot, &row) in q.bank_slots(2).iter().zip(q.bank_rows(2)) {
            assert_eq!(q.get(slot).req.addr.row, row);
        }
    }

    #[test]
    fn bank_set_spans_more_than_64_banks() {
        let mut s = BankSet::new();
        for flat in [0usize, 63, 64, 130, 255] {
            s.insert(flat);
        }
        assert!(s.contains(130), "bit 130 must not be shifted out");
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 64, 130, 255]);
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![0, 63, 130, 255]);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_geometry_is_rejected_at_construction() {
        let mut geo = Geometry::ddr5();
        geo.ranks = 16; // 16 × 32 = 512 flat banks
        let _ = RequestQueue::new(geo);
    }
}
