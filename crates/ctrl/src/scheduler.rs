//! FR-FCFS scheduling with a cap on column-over-row reordering.
//!
//! The paper's controller uses FR-FCFS+Cap with a cap of four (Table 2,
//! [Mutlu & Moscibroda, MICRO'07]): row-buffer hits may bypass older
//! row-miss requests at most `cap` consecutive times per bank, bounding the
//! starvation FR-FCFS inflicts on conflict-heavy threads.
//!
//! [`next_demand_event`] is the one production scan: it answers both "what
//! issues at cycle `from`" and "when does anything issue next", because the
//! controller asks the first at `from = now` and the second at
//! `from = now + 1`. It visits only banks that hold work (via
//! [`RequestQueue::occupied_banks`]) and inspects at most two requests per
//! bank. That suffices because within one bank the scheduler's verdict is
//! decided by its *oldest* hit and *oldest* non-hit alone:
//!
//! * all hits to a bank share the same CAS timing and the same streak
//!   counter, and the oldest hit has the weakest bypass condition, so no
//!   younger hit can be admissible-and-issuable when the oldest is not;
//! * all non-hits to a bank map to the same command (`PRE` if a row is
//!   open, `ACT` — whose timing is row-independent — if idle), so the
//!   oldest non-hit dominates.
//!
//! Those two candidates, with their issue times, front choice, bypass flag
//! and cap test, are computed in one place, [`bank_candidates`]. The scan
//! takes their minimum; the controller's wake fold evaluates an arriving
//! request's bank with it alone, because an arrival is its bank's youngest
//! entry and can only *add* a candidate, never displace one. The caller
//! passes the queue's kind, and an empty queue answers at once.
//!
//! [`pick_reference`] retains the original two-pass scan over the flat
//! age-ordered queue; a property test pins `next_demand_event` to it
//! exactly, cycle by cycle.

use chronus_dram::{Command, Cycle, DramDevice};

use crate::queue::{BankSet, RequestQueue};
use crate::request::{MemRequest, ReqKind};

/// A queue entry plus scheduling bookkeeping.
#[derive(Debug, Clone, Copy)]
pub struct Entry {
    /// The request.
    pub req: MemRequest,
    /// This request's service required a precharge (row conflict).
    pub caused_pre: bool,
    /// This request's service required an activation (row miss).
    pub caused_act: bool,
    /// Arrival order within the queue (assigned by [`RequestQueue::push`];
    /// lower is older).
    pub seq: u64,
}

impl Entry {
    /// Wraps a fresh request (sequence number 0; [`RequestQueue::push`]
    /// assigns real ones).
    pub fn new(req: MemRequest) -> Self {
        Self {
            req,
            caused_pre: false,
            caused_act: false,
            seq: 0,
        }
    }

    /// The CAS command that would serve this request.
    pub fn cas_command(&self) -> Command {
        match self.req.kind {
            ReqKind::Read => Command::Rd {
                bank: self.req.addr.bank,
                col: self.req.addr.col,
            },
            ReqKind::Write => Command::Wr {
                bank: self.req.addr.bank,
                col: self.req.addr.col,
            },
        }
    }
}

/// What the scheduler decided to issue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Serve the request's column access (slot id into the queue).
    /// `bypass` is true when an older non-hit request to the same bank was
    /// reordered past (counts toward the cap).
    Cas(u32, bool),
    /// Open the request's row.
    Act(u32),
    /// Close the conflicting row for this request.
    Pre(u32),
}

/// One demand candidate: the first cycle `>= from` it can issue, its
/// sequence number (age), and the command that serves it.
pub(crate) type Candidate = (Cycle, u64, Decision);

/// The two candidates of flat bank `flat` in a queue of writes (`write`)
/// or reads: its oldest row hit, unless it bypasses an older non-hit with
/// the bank's streak at `cap`, and its oldest non-hit (`PRE` if a row is
/// open, else `ACT`), each at its [`DramDevice::earliest_issue_at`] from
/// the rank, group and bank frontiers, clamped to `from`. The one statement
/// of the per-bank rules, shared by [`next_demand_event`] and the wake fold.
#[inline]
pub(crate) fn bank_candidates(
    queue: &RequestQueue,
    dram: &DramDevice,
    flat: usize,
    write: bool,
    from: Cycle,
    cap: u32,
    hit_streak: &[u32],
) -> [Option<Candidate>; 2] {
    let bank = queue.bank_id(flat);
    let (rank, group) = (bank.rank as usize, bank.group as usize);
    let open = dram.open_row(bank);
    // Oldest hit `(slot, bypass)` and oldest non-hit slot, from the rows
    // alone (only the picked entries are read); stop once both are known.
    let mut hit: Option<(u32, bool)> = None;
    let mut other: Option<u32> = None;
    for (&slot, &row) in queue.bank_slots(flat).iter().zip(queue.bank_rows(flat)) {
        if open == Some(row) {
            if hit.is_none() {
                hit = Some((slot, other.is_some()));
            }
        } else if other.is_none() {
            other = Some(slot);
        }
        if hit.is_some() && other.is_some() {
            break;
        }
    }
    let seq = |slot: u32| queue.get(slot).seq;
    let hit = hit
        .filter(|&(_, bypass)| !bypass || hit_streak[flat] < cap)
        .map(|(slot, bypass)| {
            let t = dram
                .rank_cas_floor(rank, write)
                .max(dram.group_cas_floor(rank, group, write))
                .max(dram.bank_cas_at(bank, write));
            (t.max(from), seq(slot), Decision::Cas(slot, bypass))
        });
    let other = other.map(|s| match open {
        Some(_) => (dram.bank_pre_at(bank).max(from), seq(s), Decision::Pre(s)),
        None => {
            let t = dram
                .rank_act_floor(rank)
                .max(dram.group_act_floor(rank, group))
                .max(dram.bank_act_at(bank));
            (t.max(from), seq(s), Decision::Act(s))
        }
    });
    [hit, other]
}

/// The next demand-scheduling event for `queue` under FR-FCFS+Cap: the
/// exact first cycle `t >= from` at which some command is issuable
/// (assuming no issues and no arrivals in the meantime), *and* the
/// decision taken at that cycle. Returns `(Cycle::MAX, None)` when no
/// candidate exists. The decision at `from` itself is the answer when
/// `t == from`.
///
/// `write` is the kind of every request in `queue` (the controller keeps
/// reads and writes in separate queues): the per-bank reduction relies on
/// all row hits to a bank sharing one CAS timing frontier, which `Rd` and
/// `Wr` do not. `hit_streak` holds, per flat bank index, the number of
/// consecutive row-hit bypasses since the last non-hit service;
/// `rank_usable` filters out ranks in recovery (or RAA-blocked).
///
/// Each occupied bank contributes its [`bank_candidates`]. At `t`, the
/// minimum over candidates, the issuable set is precisely the candidates
/// whose clamped time equals it, and the winner follows FR-FCFS+Cap: the
/// oldest admissible row hit beats every non-hit (hits beat non-hits that
/// tie on time), and ties within a class go to the lowest sequence number.
/// A row hit younger than a non-hit to the same bank is admissible only
/// while the bank's bypass streak is below `cap`, so timing-blocked
/// precharges cannot be starved by an endless hit stream (the FR-FCFS+Cap
/// guarantee of [Mutlu & Moscibroda, MICRO'07]). Candidate admissibility
/// (cap, bypass, rank filters) cannot change without an issue or arrival,
/// which is what bounds the result's validity.
pub fn next_demand_event<F: Fn(usize) -> bool>(
    queue: &RequestQueue,
    dram: &DramDevice,
    write: bool,
    from: Cycle,
    cap: u32,
    hit_streak: &[u32],
    rank_usable: &F,
) -> (Cycle, Option<Decision>) {
    if queue.is_empty() {
        return (Cycle::MAX, None);
    }
    let (mut best_hit, mut best_other): (Option<Candidate>, Option<Candidate>) = (None, None);
    let earliest = |&(t, seq, _): &Candidate| (t, seq);
    for flat in queue.occupied_banks() {
        if rank_usable(queue.bank_id(flat).rank as usize) {
            let [hit, other] = bank_candidates(queue, dram, flat, write, from, cap, hit_streak);
            best_hit = best_hit.into_iter().chain(hit).min_by_key(earliest);
            best_other = best_other.into_iter().chain(other).min_by_key(earliest);
        }
    }
    // At the event cycle any ready admissible hit wins pass 1, so hits beat
    // non-hits on ties.
    match (best_hit, best_other) {
        (Some((t, _, d)), o) if o.is_none_or(|(t_o, _, _)| t <= t_o) => (t, Some(d)),
        (_, Some((t, _, d))) => (t, Some(d)),
        _ => (Cycle::MAX, None),
    }
}

/// The original flat two-pass FR-FCFS+Cap scan: the decision at `now`,
/// kept as the semantic reference for [`next_demand_event`]
/// (property-tested against it). Operates on the same [`RequestQueue`] by
/// materializing the age order from `seq`.
pub fn pick_reference<F: Fn(usize) -> bool>(
    queue: &RequestQueue,
    dram: &DramDevice,
    now: Cycle,
    cap: u32,
    hit_streak: &[u32],
    rank_usable: &F,
) -> Option<Decision> {
    let geo = *dram.geometry();
    let mut flat_queue: Vec<(u32, &Entry)> = queue.iter().collect();
    flat_queue.sort_by_key(|(_, e)| e.seq);
    // Pass 1: oldest issuable row-hit, honouring the cap.
    let mut non_hit_seen = BankSet::new(); // banks with an older non-hit
    for &(slot, e) in &flat_queue {
        let bank = e.req.addr.bank;
        if !rank_usable(bank.rank as usize) {
            continue;
        }
        let flat = bank.flat(&geo);
        let is_hit = dram.open_row(bank) == Some(e.req.addr.row);
        if !is_hit {
            non_hit_seen.insert(flat);
            continue;
        }
        let bypass = non_hit_seen.contains(flat);
        if bypass && hit_streak[flat] >= cap {
            continue; // cap reached and an older miss waits
        }
        if dram.can_issue(&e.cas_command(), now) {
            return Some(Decision::Cas(slot, bypass));
        }
    }
    // Pass 2: oldest request that can make progress (FCFS), with the same
    // cap discipline on hits.
    let mut non_hit_seen = BankSet::new();
    for &(slot, e) in &flat_queue {
        let bank = e.req.addr.bank;
        if !rank_usable(bank.rank as usize) {
            continue;
        }
        let flat = bank.flat(&geo);
        match dram.open_row(bank) {
            Some(row) if row == e.req.addr.row => {
                let bypass = non_hit_seen.contains(flat);
                if bypass && hit_streak[flat] >= cap {
                    continue;
                }
                let cmd = e.cas_command();
                if dram.can_issue(&cmd, now) {
                    return Some(Decision::Cas(slot, bypass));
                }
            }
            Some(_) => {
                non_hit_seen.insert(flat);
                let cmd = Command::Pre { bank };
                if dram.can_issue(&cmd, now) {
                    return Some(Decision::Pre(slot));
                }
            }
            None => {
                non_hit_seen.insert(flat);
                let cmd = Command::Act {
                    bank,
                    row: e.req.addr.row,
                };
                if dram.can_issue(&cmd, now) {
                    return Some(Decision::Act(slot));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use chronus_dram::{BankId, DramAddr, DramConfig, DramDevice};
    use proptest::prelude::*;

    fn req(id: u64, bank: BankId, row: u32, col: u32) -> MemRequest {
        MemRequest {
            id,
            kind: ReqKind::Read,
            addr: DramAddr::new(bank, row, col),
            core: 0,
            arrived: id,
        }
    }

    fn dev() -> DramDevice {
        DramDevice::new(DramConfig::tiny())
    }

    fn queue_of(dram: &DramDevice, reqs: &[MemRequest]) -> RequestQueue {
        let mut q = RequestQueue::new(*dram.geometry());
        for r in reqs {
            q.push(*r);
        }
        q
    }

    const B0: BankId = BankId::new(0, 0, 0);

    #[test]
    fn prefers_row_hit_over_older_miss_until_cap() {
        let mut d = dev();
        let t = *d.timings();
        d.issue(&Command::Act { bank: B0, row: 5 }, 0);
        let now = t.rcd;
        // Older request conflicts (row 9), younger is a hit (row 5).
        let q = queue_of(&d, &[req(0, B0, 9, 0), req(1, B0, 5, 0)]);
        let streak = vec![0u32; d.geometry().total_banks()];
        let pick1 = next_demand_event(&q, &d, false, now, 4, &streak, &|_| true);
        assert_eq!(pick1, (now, Some(Decision::Cas(1, true))));
        // With the cap exhausted the older conflict wins (precharge).
        let mut capped = streak.clone();
        capped[B0.flat(d.geometry())] = 4;
        let now = t.ras.max(now);
        let pick2 = next_demand_event(&q, &d, false, now, 4, &capped, &|_| true);
        assert_eq!(pick2, (now, Some(Decision::Pre(0))));
    }

    #[test]
    fn idle_bank_gets_activate_for_oldest() {
        let d = dev();
        let q = queue_of(&d, &[req(0, B0, 9, 0), req(1, B0, 5, 0)]);
        let streak = vec![0u32; d.geometry().total_banks()];
        assert_eq!(
            next_demand_event(&q, &d, false, 0, 4, &streak, &|_| true),
            (0, Some(Decision::Act(0)))
        );
    }

    #[test]
    fn recovery_rank_is_skipped() {
        let d = dev();
        let q = queue_of(&d, &[req(0, B0, 9, 0)]);
        let streak = vec![0u32; d.geometry().total_banks()];
        let event = next_demand_event(&q, &d, false, 0, 4, &streak, &|_| false);
        assert_eq!(event, (Cycle::MAX, None));
    }

    #[test]
    fn blocked_timing_yields_none() {
        let mut d = dev();
        d.issue(&Command::Act { bank: B0, row: 5 }, 0);
        // Row 5 open, but tRCD not yet elapsed and row 9 cannot PRE before
        // tRAS: nothing issuable at cycle 1.
        let q = queue_of(&d, &[req(0, B0, 9, 0), req(1, B0, 5, 0)]);
        let streak = vec![0u32; d.geometry().total_banks()];
        assert!(next_demand_event(&q, &d, false, 1, 4, &streak, &|_| true).0 > 1);
    }

    #[test]
    fn empty_queue_yields_none() {
        let d = dev();
        let q = RequestQueue::new(*d.geometry());
        let streak = vec![0u32; d.geometry().total_banks()];
        let event = next_demand_event(&q, &d, false, 0, 4, &streak, &|_| true);
        assert_eq!(event, (Cycle::MAX, None));
    }

    #[test]
    fn demand_event_is_the_exact_first_pick_cycle_and_verdict() {
        let mut d = dev();
        d.issue(&Command::Act { bank: B0, row: 5 }, 0);
        // A hit gated by tRCD and a conflict gated by tRAS: the wake is the
        // earlier of the two, and the reference flips from None exactly there.
        let q = queue_of(&d, &[req(0, B0, 9, 0), req(1, B0, 5, 0)]);
        let streak = vec![0u32; d.geometry().total_banks()];
        let (wake, predicted) = next_demand_event(&q, &d, false, 1, 4, &streak, &|_| true);
        assert_eq!(wake, d.timings().rcd);
        let reference = |t| pick_reference(&q, &d, t, 4, &streak, &|_| true);
        for t in 1..wake {
            assert_eq!(reference(t), None, "t={t}");
        }
        let at_wake = reference(wake);
        assert!(at_wake.is_some());
        assert_eq!(at_wake, predicted, "fused scan must predict the verdict");
    }

    /// Applies `decision` the way the controller would, keeping the
    /// hit-streak bookkeeping faithful.
    fn apply_decision(
        decision: Decision,
        q: &mut RequestQueue,
        d: &mut DramDevice,
        streak: &mut [u32],
        now: Cycle,
    ) {
        let geo = *d.geometry();
        match decision {
            Decision::Cas(slot, bypass) => {
                let e = q.remove(slot);
                d.issue(&e.cas_command(), now);
                let flat = e.req.addr.bank.flat(&geo);
                if bypass {
                    streak[flat] += 1;
                } else {
                    streak[flat] = 0;
                }
            }
            Decision::Act(slot) => {
                let addr = q.get(slot).req.addr;
                q.get_mut(slot).caused_act = true;
                d.issue(
                    &Command::Act {
                        bank: addr.bank,
                        row: addr.row,
                    },
                    now,
                );
                streak[addr.bank.flat(&geo)] = 0;
            }
            Decision::Pre(slot) => {
                let bank = q.get(slot).req.addr.bank;
                q.get_mut(slot).caused_pre = true;
                d.issue(&Command::Pre { bank }, now);
                streak[bank.flat(&geo)] = 0;
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        // Drives randomized queue/device states and pins the per-bank
        // `next_demand_event` to the flat two-pass `pick_reference` at
        // every step: its decision at `now`, and the cycle-exactness and
        // predicted verdict of its next event.
        #[test]
        fn per_bank_pick_matches_flat_reference(seed: u64, cap in 1u32..6) {
            let mut d = DramDevice::new(DramConfig::tiny());
            let geo = *d.geometry();
            let total = geo.total_banks() as u64;
            let mut q = RequestQueue::new(geo);
            let mut streak = vec![0u32; geo.total_banks()];
            let mut now: Cycle = 0;
            let mut state = seed | 1;
            let mut rng = move |m: u64| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 33) % m
            };
            // One kind per queue, as the controller guarantees (the
            // per-bank reduction assumes a single CAS timing frontier).
            let kind = if rng(2) == 0 { ReqKind::Read } else { ReqKind::Write };
            let write = kind == ReqKind::Write;
            for step in 0..160u64 {
                if q.len() < 10 && rng(3) > 0 {
                    let flat = rng(total) as usize;
                    q.push(MemRequest {
                        id: step,
                        kind,
                        addr: DramAddr::new(
                            BankId::from_flat(flat, &geo),
                            rng(6) as u32,
                            rng(4) as u32,
                        ),
                        core: 0,
                        arrived: now,
                    });
                }
                let mask = rng(1 << geo.ranks.min(4));
                let rank_usable = |r: usize| mask & (1 << r) != 0;
                let fast = match next_demand_event(&q, &d, write, now, cap, &streak, &rank_usable) {
                    (t, decision) if t == now => decision,
                    _ => None,
                };
                let reference = pick_reference(&q, &d, now, cap, &streak, &rank_usable);
                prop_assert_eq!(fast, reference, "step {} now {}", step, now);
                match fast {
                    Some(decision) => {
                        apply_decision(decision, &mut q, &mut d, &mut streak, now);
                        now += 1 + rng(3);
                    }
                    None => {
                        // Jump to the predicted wake and require that the
                        // reference verdict was None on every skipped cycle
                        // and is the predicted decision at the wake.
                        let (wake, predicted) =
                            next_demand_event(&q, &d, write, now + 1, cap, &streak, &rank_usable);
                        if wake == Cycle::MAX {
                            prop_assert!(predicted.is_none());
                            now += 1 + rng(8);
                        } else {
                            for t in now..wake {
                                prop_assert_eq!(
                                    pick_reference(&q, &d, t, cap, &streak, &rank_usable),
                                    None,
                                    "skipped cycle {} acted", t
                                );
                            }
                            now = wake;
                            let at_wake =
                                pick_reference(&q, &d, now, cap, &streak, &rank_usable);
                            prop_assert!(
                                at_wake.is_some(),
                                "wake cycle {} must act", now
                            );
                            prop_assert_eq!(
                                at_wake, predicted,
                                "wake cycle {} verdict must match prediction", now
                            );
                        }
                    }
                }
            }
        }
    }
}
