//! Structural-resource primitives shared by the timing models:
//! capacity-limited windows (ROB, queues, physical registers),
//! per-cycle bandwidth limiters (decode/rename/retire), and execution
//! pipes.

use std::collections::VecDeque;

/// A capacity-limited window (ROB, LQ, SQ, issue queue, physical-register
/// pool). `alloc` returns the earliest cycle at or after `want` when a
/// slot is free; `commit` records when the allocated slot releases.
///
/// The pending releases are kept sorted ascending, so `alloc` pops the
/// earliest ones from the front. In-order structures (ROB, physical
/// registers, LQ, SQ) commit non-decreasing release cycles, which makes
/// `commit` a `push_back`; the issue queue releases out of order and
/// pays a binary-searched insert into at most `cap` entries.
#[derive(Clone, Debug)]
pub struct Window {
    cap: usize,
    releases: VecDeque<u64>,
    /// Total cycles callers were delayed waiting for a slot.
    pub stall_cycles: u64,
}

impl Window {
    /// Creates a window with `cap` entries.
    pub fn new(cap: usize) -> Self {
        Window {
            cap,
            releases: VecDeque::new(),
            stall_cycles: 0,
        }
    }

    /// Earliest cycle ≥ `want` with a free slot.
    pub fn alloc(&mut self, want: u64) -> u64 {
        let mut t = want;
        // drop entries that have already released
        while self.releases.front().is_some_and(|&r| r <= t) {
            self.releases.pop_front();
        }
        // still at capacity: wait for the earliest releases
        while self.releases.len() >= self.cap {
            let r = self.releases.pop_front().expect("non-empty at capacity");
            t = t.max(r);
        }
        self.stall_cycles += t - want;
        t
    }

    /// Records the release cycle of the slot just allocated.
    pub fn commit(&mut self, release: u64) {
        if self.releases.back().is_none_or(|&last| last <= release) {
            self.releases.push_back(release);
        } else {
            let at = self.releases.partition_point(|&r| r <= release);
            self.releases.insert(at, release);
        }
    }
}

/// A per-cycle bandwidth limiter for in-order stages (decode, rename,
/// retire). Requests must arrive with non-decreasing `min_cycle`.
#[derive(Clone, Copy, Debug)]
pub struct Bandwidth {
    width: u64,
    cycle: u64,
    used: u64,
}

impl Bandwidth {
    /// Creates a limiter of `width` slots per cycle.
    pub fn new(width: u64) -> Self {
        Bandwidth {
            width,
            cycle: 0,
            used: 0,
        }
    }

    /// Takes one slot at the earliest cycle ≥ `min_cycle`.
    pub fn take(&mut self, min_cycle: u64) -> u64 {
        self.take_n(min_cycle, 1)
    }

    /// Ends the current group: the remaining slots of this cycle are
    /// discarded (decode-group fragmentation at a taken branch).
    pub fn break_group(&mut self) {
        self.used = self.width;
    }

    /// Takes `n` slots (they may spill into following cycles); returns
    /// the cycle of the first slot.
    pub fn take_n(&mut self, min_cycle: u64, n: u64) -> u64 {
        if min_cycle > self.cycle {
            self.cycle = min_cycle;
            self.used = 0;
        }
        if self.used >= self.width {
            self.cycle += 1 + (self.used - self.width) / self.width;
            self.used %= self.width;
            if self.used >= self.width {
                self.used = 0;
            }
        }
        let first = self.cycle;
        self.used += n;
        first
    }
}

/// A group of identical execution pipes. Pipelined units accept one µop
/// per cycle per pipe; unpipelined units (dividers) block the pipe for
/// the full occupancy.
#[derive(Clone, Debug)]
pub struct PipeGroup {
    next_free: Vec<u64>,
}

impl PipeGroup {
    /// Creates `n` pipes.
    pub fn new(n: usize) -> Self {
        PipeGroup {
            next_free: vec![0; n.max(1)],
        }
    }

    /// Issues a µop that becomes ready at `ready`; the pipe is then busy
    /// for `occupancy` cycles (1 for fully-pipelined units). Returns the
    /// actual issue cycle.
    pub fn issue(&mut self, ready: u64, occupancy: u64) -> u64 {
        let slot = self
            .next_free
            .iter_mut()
            .min()
            .expect("at least one pipe");
        let start = (*slot).max(ready);
        *slot = start + occupancy.max(1);
        start
    }
}

/// How many distinct cycles a [`SlotLimiter`] remembers. This is model
/// behaviour, not a tuning knob: the limiter forgets the oldest cycle
/// (in insertion order) once this many are tracked, and a later request
/// for a forgotten cycle finds it empty. The golden traces and
/// snapshot frames pin this value.
pub const SLOT_HORIZON: usize = 64;

/// Slots in the [`SlotLimiter`] cycle index: a power of two at least
/// twice [`SLOT_HORIZON`], so linear probing stays short and always
/// meets an empty slot.
const INDEX_SLOTS: usize = 2 * SLOT_HORIZON;
const INDEX_MASK: usize = INDEX_SLOTS - 1;
/// Insertion number marking an empty index slot.
const VACANT: u64 = u64::MAX;

/// An out-of-order per-cycle slot limiter (global issue width): unlike
/// [`Bandwidth`], requests arrive in any cycle order.
///
/// The limiter remembers the slot use of the last [`SLOT_HORIZON`]
/// distinct cycles in a FIFO ring. An open-addressed index maps each
/// remembered cycle to its absolute insertion number, so probing a
/// cycle costs O(1) instead of a scan of the ring.
#[derive(Clone, Debug)]
pub struct SlotLimiter {
    width: u32,
    // (cycle, used) ring of recent cycles, oldest first; cycles are unique
    recent: VecDeque<(u64, u32)>,
    /// Absolute insertion number of `recent[0]`.
    base: u64,
    /// Linear-probing table of (cycle, absolute insertion number).
    index: [(u64, u64); INDEX_SLOTS],
}

impl SlotLimiter {
    /// Creates a limiter of `width` slots per cycle.
    pub fn new(width: u32) -> Self {
        SlotLimiter {
            width,
            recent: VecDeque::with_capacity(SLOT_HORIZON),
            base: 0,
            index: [(0, VACANT); INDEX_SLOTS],
        }
    }

    /// Takes a slot at the first cycle ≥ `want` with spare width.
    pub fn take(&mut self, want: u64) -> u64 {
        let mut t = want;
        loop {
            match self.find(t) {
                Some(i) if self.recent[i].1 < self.width => {
                    self.recent[i].1 += 1;
                    return t;
                }
                Some(_) => t += 1,
                None => {
                    self.remember(t, 1);
                    return t;
                }
            }
        }
    }

    fn home(cycle: u64) -> usize {
        // Fibonacci hashing: consecutive cycles land far apart
        (cycle.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - INDEX_SLOTS.trailing_zeros())) as usize
    }

    /// Index slot holding `cycle`, if remembered.
    fn slot_of(&self, cycle: u64) -> Option<usize> {
        let mut i = Self::home(cycle);
        loop {
            let (c, pos) = self.index[i];
            if pos == VACANT {
                return None;
            }
            if c == cycle {
                return Some(i);
            }
            i = (i + 1) & INDEX_MASK;
        }
    }

    /// Ring position of `cycle`, if remembered.
    fn find(&self, cycle: u64) -> Option<usize> {
        self.slot_of(cycle)
            .map(|i| (self.index[i].1 - self.base) as usize)
    }

    /// Appends a cycle the ring does not hold, first forgetting the
    /// oldest one if the ring is at the horizon.
    fn remember(&mut self, cycle: u64, used: u32) {
        if self.recent.len() >= SLOT_HORIZON {
            let (old, _) = self.recent.pop_front().expect("ring at horizon");
            self.unindex(old);
            self.base += 1;
        }
        let mut i = Self::home(cycle);
        while self.index[i].1 != VACANT {
            i = (i + 1) & INDEX_MASK;
        }
        self.index[i] = (cycle, self.base + self.recent.len() as u64);
        self.recent.push_back((cycle, used));
    }

    /// Deletes `cycle` from the index by backward shifting, so no
    /// tombstones accumulate.
    fn unindex(&mut self, cycle: u64) {
        let mut hole = self.slot_of(cycle).expect("ring entries are indexed");
        let mut j = hole;
        loop {
            j = (j + 1) & INDEX_MASK;
            let (c, pos) = self.index[j];
            if pos == VACANT {
                break;
            }
            // the entry at j may fill the hole if the hole lies on its
            // probe path, i.e. between its home slot and j
            let dist_home = j.wrapping_sub(Self::home(c)) & INDEX_MASK;
            let dist_hole = j.wrapping_sub(hole) & INDEX_MASK;
            if dist_home >= dist_hole {
                self.index[hole] = self.index[j];
                hole = j;
            }
        }
        self.index[hole] = (0, VACANT);
    }
}

impl xt_snapshot::SnapshotState for Window {
    /// The releases are serialized as a sorted vector, the order they
    /// are kept in.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.usize(self.cap);
        e.seq(self.releases.len());
        for &r in &self.releases {
            e.u64(r);
        }
        e.u64(self.stall_cycles);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        if d.usize()? != self.cap {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "window capacity",
            });
        }
        let mut rel = d.u64_seq()?;
        rel.sort_unstable();
        self.releases = rel.into();
        self.stall_cycles = d.u64()?;
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for Bandwidth {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.u64(self.width);
        e.u64(self.cycle);
        e.u64(self.used);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        if d.u64()? != self.width {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "bandwidth width",
            });
        }
        self.cycle = d.u64()?;
        self.used = d.u64()?;
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for PipeGroup {
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.u64_seq(&self.next_free);
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        let nf = d.u64_seq()?;
        if nf.len() != self.next_free.len() {
            return Err(xt_snapshot::SnapshotError::Mismatch { what: "pipe count" });
        }
        self.next_free = nf;
        Ok(())
    }
}

impl xt_snapshot::SnapshotState for SlotLimiter {
    /// The ring preserves insertion order (it is part of the limiter's
    /// behavior: full cycles are probed in ring order), so entries are
    /// serialized verbatim, not sorted.
    fn save(&self, e: &mut xt_snapshot::Enc) {
        e.u32(self.width);
        e.seq(self.recent.len());
        for &(cycle, used) in &self.recent {
            e.u64(cycle);
            e.u32(used);
        }
    }

    fn restore(&mut self, d: &mut xt_snapshot::Dec) -> xt_snapshot::Result<()> {
        if d.u32()? != self.width {
            return Err(xt_snapshot::SnapshotError::Mismatch {
                what: "slot limiter width",
            });
        }
        let n = d.len(12)?;
        if n > SLOT_HORIZON {
            return Err(xt_snapshot::SnapshotError::Corrupt {
                what: "slot limiter ring longer than its horizon",
            });
        }
        *self = SlotLimiter::new(self.width);
        for _ in 0..n {
            let cycle = d.u64()?;
            let used = d.u32()?;
            if self.find(cycle).is_some() {
                return Err(xt_snapshot::SnapshotError::Corrupt {
                    what: "slot limiter ring repeats a cycle",
                });
            }
            self.remember(cycle, used);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    use xt_harness::gen::{choose, ints, vec_of};
    use xt_harness::prop::{check_with, Config};
    use xt_snapshot::{Dec, Enc, SnapshotState};

    /// Reference model: the `BinaryHeap` window the sorted ring replaced.
    struct HeapWindow {
        cap: usize,
        releases: BinaryHeap<Reverse<u64>>,
        stall_cycles: u64,
    }

    impl HeapWindow {
        fn alloc(&mut self, want: u64) -> u64 {
            let mut t = want;
            while self.releases.peek().is_some_and(|&Reverse(r)| r <= t) {
                self.releases.pop();
            }
            while self.releases.len() >= self.cap {
                let Reverse(r) = self.releases.pop().expect("non-empty at capacity");
                t = t.max(r);
            }
            self.stall_cycles += t - want;
            t
        }

        fn save(&self) -> Vec<u8> {
            let mut e = Enc::new();
            e.usize(self.cap);
            let mut rel: Vec<u64> = self.releases.iter().map(|&Reverse(r)| r).collect();
            rel.sort_unstable();
            e.u64_seq(&rel);
            e.u64(self.stall_cycles);
            e.into_bytes()
        }
    }

    /// Reference model: the linear-scan ring the indexed limiter replaced.
    struct ScanSlotLimiter {
        width: u32,
        recent: VecDeque<(u64, u32)>,
    }

    impl ScanSlotLimiter {
        fn take(&mut self, want: u64) -> u64 {
            let mut t = want;
            loop {
                match self.recent.iter_mut().find(|(c, _)| *c == t) {
                    Some((_, used)) if *used < self.width => {
                        *used += 1;
                        break;
                    }
                    Some(_) => t += 1,
                    None => {
                        self.recent.push_back((t, 1));
                        if self.recent.len() > 64 {
                            self.recent.pop_front();
                        }
                        break;
                    }
                }
            }
            t
        }

        fn save(&self) -> Vec<u8> {
            let mut e = Enc::new();
            e.u32(self.width);
            e.seq(self.recent.len());
            for &(cycle, used) in &self.recent {
                e.u64(cycle);
                e.u32(used);
            }
            e.into_bytes()
        }
    }

    fn save_bytes<S: SnapshotState>(s: &S) -> Vec<u8> {
        let mut e = Enc::new();
        s.save(&mut e);
        e.into_bytes()
    }

    fn restore_into<S: SnapshotState>(s: &mut S, bytes: &[u8]) {
        let mut d = Dec::new(bytes);
        s.restore(&mut d).expect("restore");
        assert_eq!(d.remaining(), 0, "restore consumed the whole encoding");
    }

    /// Random alloc/commit sequences, with monotone or out-of-order
    /// releases, give the same cycles, stalls and snapshot bytes as the
    /// heap window, across a mid-sequence save/restore.
    #[test]
    fn window_matches_heap_reference() {
        let gen = (
            choose(&[1usize, 2, 3, 8, 48]),
            choose(&[true, false]),
            ints(0usize..300),
            vec_of((ints(0u8..4), ints(0u64..300)), 1..300),
        );
        check_with(
            &Config::seeded(0x51DE_0001),
            "window_matches_heap_reference",
            &gen,
            |(cap, monotone, cut, ops)| {
                let (cap, monotone) = (*cap, *monotone);
                let mut w = Window::new(cap);
                let mut r = HeapWindow {
                    cap,
                    releases: BinaryHeap::new(),
                    stall_cycles: 0,
                };
                let (mut last_t, mut last_rel) = (0u64, 0u64);
                for (i, &(kind, a)) in ops.iter().enumerate() {
                    if i == *cut {
                        assert_eq!(save_bytes(&w), r.save(), "save at op {i}");
                        let mut fresh = Window::new(cap);
                        restore_into(&mut fresh, &save_bytes(&w));
                        w = fresh;
                    }
                    if kind != 2 {
                        let want = i as u64 * 3 + a % 40;
                        last_t = w.alloc(want);
                        assert_eq!(last_t, r.alloc(want), "alloc({want}) at op {i}");
                    }
                    if kind >= 2 {
                        let mut rel = last_t + a % 50;
                        if monotone {
                            rel = rel.max(last_rel);
                        }
                        last_rel = rel;
                        w.commit(rel);
                        r.releases.push(Reverse(rel));
                    }
                    assert_eq!(w.stall_cycles, r.stall_cycles, "stalls at op {i}");
                }
                assert_eq!(save_bytes(&w), r.save(), "final save");
            },
        );
    }

    /// Random wants — near, far behind, far ahead and repeated — give
    /// the same cycles and snapshot bytes as the linear-scan ring, with
    /// the ring wrapping past its horizon, across a mid-sequence
    /// save/restore.
    #[test]
    fn slot_limiter_matches_scan_reference() {
        let gen = (
            choose(&[1u32, 2, 4, 8]),
            ints(0usize..600),
            vec_of((ints(0u8..4), ints(0u64..300)), 1..600),
        );
        check_with(
            &Config::seeded(0x51DE_0002),
            "slot_limiter_matches_scan_reference",
            &gen,
            |(width, cut, ops)| {
                let mut s = SlotLimiter::new(*width);
                let mut r = ScanSlotLimiter {
                    width: *width,
                    recent: VecDeque::new(),
                };
                let mut prev = 0u64;
                for (i, &(kind, a)) in ops.iter().enumerate() {
                    if i == *cut {
                        assert_eq!(save_bytes(&s), r.save(), "save at op {i}");
                        let mut fresh = SlotLimiter::new(*width);
                        restore_into(&mut fresh, &save_bytes(&s));
                        s = fresh;
                    }
                    let clock = 1000 + i as u64;
                    let want = match kind {
                        0 => clock + a % 8,
                        1 => clock.saturating_sub(a),
                        2 => clock + a,
                        _ => prev,
                    };
                    let got = s.take(want);
                    assert_eq!(got, r.take(want), "take({want}) at op {i}");
                    prev = want;
                }
                assert_eq!(save_bytes(&s), r.save(), "final save");
            },
        );
    }

    #[test]
    fn slot_limiter_restore_rejects_frames_save_cannot_write() {
        let frame = |cycles: &[u64]| {
            let mut e = Enc::new();
            e.u32(2);
            e.seq(cycles.len());
            for &c in cycles {
                e.u64(c);
                e.u32(1);
            }
            e.into_bytes()
        };
        let mut s = SlotLimiter::new(2);
        let long: Vec<u64> = (0..SLOT_HORIZON as u64 + 1).collect();
        for bad in [frame(&long), frame(&[5, 7, 5])] {
            let mut d = Dec::new(&bad);
            assert!(matches!(
                s.restore(&mut d),
                Err(xt_snapshot::SnapshotError::Corrupt { .. })
            ));
        }
        let full: Vec<u64> = (0..SLOT_HORIZON as u64).collect();
        restore_into(&mut s, &frame(&full));
        assert_eq!(s.take(3), 3, "cycle 3 has one of two slots left");
        assert_eq!(s.take(3), 4);
    }

    #[test]
    fn window_stalls_when_full() {
        let mut w = Window::new(2);
        assert_eq!(w.alloc(10), 10);
        w.commit(20);
        assert_eq!(w.alloc(10), 10);
        w.commit(30);
        // full: next alloc waits for the earliest release (20)
        assert_eq!(w.alloc(12), 20);
        w.commit(40);
        assert!(w.stall_cycles >= 8);
    }

    #[test]
    fn window_free_slot_no_stall() {
        let mut w = Window::new(4);
        for k in 0..4 {
            assert_eq!(w.alloc(k), k);
            w.commit(k + 100);
        }
        // released entries free slots for later allocs
        assert_eq!(w.alloc(100), 100);
    }

    #[test]
    fn bandwidth_packs_width_per_cycle() {
        let mut b = Bandwidth::new(3);
        assert_eq!(b.take(5), 5);
        assert_eq!(b.take(5), 5);
        assert_eq!(b.take(5), 5);
        assert_eq!(b.take(5), 6, "fourth spills to the next cycle");
        assert_eq!(b.take(10), 10);
    }

    #[test]
    fn bandwidth_take_n() {
        let mut b = Bandwidth::new(4);
        assert_eq!(b.take_n(0, 2), 0);
        assert_eq!(b.take_n(0, 2), 0);
        assert_eq!(b.take(0), 1);
    }

    #[test]
    fn pipes_pick_least_busy() {
        let mut p = PipeGroup::new(2);
        assert_eq!(p.issue(0, 1), 0);
        assert_eq!(p.issue(0, 1), 0, "second pipe");
        assert_eq!(p.issue(0, 1), 1, "both busy");
    }

    #[test]
    fn unpipelined_divider_blocks() {
        let mut p = PipeGroup::new(1);
        assert_eq!(p.issue(0, 20), 0);
        assert_eq!(p.issue(1, 20), 20, "divider busy");
    }

    #[test]
    fn slot_limiter_out_of_order() {
        let mut s = SlotLimiter::new(2);
        assert_eq!(s.take(10), 10);
        assert_eq!(s.take(5), 5);
        assert_eq!(s.take(10), 10);
        assert_eq!(s.take(10), 11, "cycle 10 full");
    }
}
