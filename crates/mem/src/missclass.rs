//! Online 3C + coherence miss classification for the L1 data cache.
//!
//! Every L1D demand miss is attributed to exactly one of the classic
//! "3C" categories extended with a coherence class, giving the exact
//! conservation law the rest of the workspace's counters obey:
//!
//! ```text
//! l1d_misses == compulsory + capacity + conflict + coherence
//! ```
//!
//! The classifier is **always on** (it is part of the modeled state, not
//! of the optional tracer), so the attributed counters are independent
//! of whether a [`crate::trace::MemTracer`] is attached, and replaying a
//! recorded [`crate::system::MemOp`] log reproduces them exactly — which
//! is what keeps traced cluster runs bit-identical across `XT_THREADS`.
//!
//! ## Method
//!
//! Per core, three structures shadow the L1D:
//!
//! * an *ever-seen* set of line addresses — a first-touch miss is
//!   **compulsory**;
//! * a *coherence mark* set — lines removed from this core's L1D by
//!   another core's store (invalidation) are marked, and the next miss
//!   on a marked line is **coherence** (the line would still be resident
//!   had no other core written it);
//! * a *shadow fully-associative cache* with the same total capacity
//!   (in lines) as the real L1D, true-LRU replacement, touched by
//!   demand accesses only — a miss that *hits* in the shadow would have
//!   been a hit under full associativity, so it is **conflict**; a miss
//!   that also misses in the shadow is **capacity**.
//!
//! ## Known limits (documented, deliberate)
//!
//! * Inclusive-L2 back-invalidations remove the line from the shadow
//!   without a coherence mark: the subsequent miss classifies as
//!   capacity (the line was pushed out by aggregate footprint, which is
//!   the closest 3C notion for an inclusion victim).
//! * A full cache flush (`fence.i`-style) clears the shadow and the
//!   marks; post-flush re-misses classify as capacity, not compulsory —
//!   the lines *have* been seen before.
//! * Prefetch fills do not touch the shadow (it models the demand
//!   stream); prefetching therefore shifts real misses away without
//!   perturbing the attribution of the misses that remain.
//!
//! ## Cost
//!
//! The classifier runs on every L1D demand access, so each step is
//! O(1):
//!
//! * the shadow is an arena doubly-linked list in recency order (head =
//!   LRU) with a line → node index; a hit unlinks its node and relinks
//!   it at the MRU end, a miss evicts the head. Each node carries the
//!   touch stamp the snapshot frame records;
//! * the ever-seen set is one `u64` bitmask per aligned region of 64
//!   lines, keyed by region number, so it costs one word per touched
//!   region instead of one hash entry per line;
//! * the maps use the fixed in-tree `linehash` hasher. Their
//!   iteration order never reaches an output: `save` sorts.

use crate::linehash::{LineMap, LineSet};
use xt_snapshot::{Dec, Enc, Result as SnapResult, SnapshotError, SnapshotState};

/// The attributed cause of one L1D demand miss.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MissClass {
    /// First-ever access to the line (cold miss).
    Compulsory,
    /// Would have missed even in a fully-associative cache of the same
    /// capacity: aggregate working set exceeds the cache.
    Capacity,
    /// Hits in the same-capacity fully-associative shadow: lost only to
    /// set-index conflicts in the real (set-associative) array.
    Conflict,
    /// The line was invalidated out of this core's L1D by another
    /// core's write since the last access.
    Coherence,
}

impl MissClass {
    /// Stable display name (used in reports and trace events).
    pub fn name(self) -> &'static str {
        match self {
            MissClass::Compulsory => "compulsory",
            MissClass::Capacity => "capacity",
            MissClass::Conflict => "conflict",
            MissClass::Coherence => "coherence",
        }
    }
}

/// End-of-list marker for [`ShadowFa`] links.
const NIL: u32 = u32::MAX;

/// One resident of the shadow: its line, the stamp of its last touch,
/// and its neighbours in recency order.
#[derive(Clone, Copy, Debug)]
struct Node {
    line: u64,
    stamp: u64,
    prev: u32,
    next: u32,
}

/// Fully-associative true-LRU tag store with a fixed line capacity.
///
/// Residents form a doubly-linked list in an arena (`head` is the LRU
/// victim, `tail` the MRU), and `index` maps a resident line to its
/// node, so a touch, an eviction and a removal are each O(1). Stamps
/// increase along the list, since every touch appends with a fresh
/// one.
#[derive(Clone, Debug)]
struct ShadowFa {
    cap: usize,
    nodes: Vec<Node>,
    /// Arena slots of removed residents, reused before `nodes` grows.
    free: Vec<u32>,
    index: LineMap<u32>,
    head: u32,
    tail: u32,
    next_stamp: u64,
}

impl ShadowFa {
    fn new(cap: usize) -> Self {
        ShadowFa {
            cap,
            nodes: Vec::new(),
            free: Vec::new(),
            index: LineMap::default(),
            head: NIL,
            tail: NIL,
            next_stamp: 0,
        }
    }

    fn contains(&self, line: u64) -> bool {
        self.index.contains_key(&line)
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    fn unlink(&mut self, n: u32) {
        let Node { prev, next, .. } = self.nodes[n as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            q => self.nodes[q as usize].prev = prev,
        }
    }

    /// Links node `n` at the MRU end with the next stamp.
    fn push_mru(&mut self, n: u32) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        let node = &mut self.nodes[n as usize];
        node.stamp = stamp;
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = n,
            t => self.nodes[t as usize].next = n,
        }
        self.tail = n;
    }

    /// Stores a new resident in a free arena slot (unlinked).
    fn alloc(&mut self, line: u64) -> u32 {
        let node = Node {
            line,
            stamp: 0,
            prev: NIL,
            next: NIL,
        };
        let n = match self.free.pop() {
            Some(n) => {
                self.nodes[n as usize] = node;
                n
            }
            None => {
                self.nodes.push(node);
                u32::try_from(self.nodes.len() - 1).expect("shadow residents fit in u32")
            }
        };
        self.index.insert(line, n);
        n
    }

    /// Marks `line` most-recently-used, inserting it (and evicting the
    /// LRU resident) if absent.
    fn touch(&mut self, line: u64) {
        let n = match self.index.get(&line) {
            Some(&n) => {
                self.unlink(n);
                n
            }
            None => {
                if self.len() >= self.cap && self.head != NIL {
                    let victim = self.nodes[self.head as usize].line;
                    self.remove(victim);
                }
                self.alloc(line)
            }
        };
        self.push_mru(n);
    }

    fn remove(&mut self, line: u64) {
        if let Some(n) = self.index.remove(&line) {
            self.unlink(n);
            self.free.push(n);
        }
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.free.clear();
        self.index.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Residents as `(stamp, line)`, LRU first.
    fn residents(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        let mut n = self.head;
        std::iter::from_fn(move || {
            if n == NIL {
                return None;
            }
            let node = self.nodes[n as usize];
            n = node.next;
            Some((node.stamp, node.line))
        })
    }
}

/// Lines per [`SeenLines`] region: one bit each in a `u64`.
const REGION_LINES: u32 = 64;

/// The ever-seen set of line addresses, as one `u64` bitmask per
/// aligned region of [`REGION_LINES`] lines. Line addresses are
/// multiples of the line size, so the low `line_shift` bits carry
/// nothing.
#[derive(Clone, Debug)]
struct SeenLines {
    line_shift: u32,
    regions: LineMap<u64>,
}

impl SeenLines {
    fn new(line_bytes: u32) -> Self {
        assert!(
            line_bytes.is_power_of_two(),
            "line size must be a power of two"
        );
        SeenLines {
            line_shift: line_bytes.trailing_zeros(),
            regions: LineMap::default(),
        }
    }

    /// Whether `line` is aligned to the line size (every address the
    /// memory system passes in is).
    fn aligned(&self, line: u64) -> bool {
        line.trailing_zeros() >= self.line_shift
    }

    /// Adds `line`; true if it was not seen before.
    fn insert(&mut self, line: u64) -> bool {
        let n = line >> self.line_shift;
        let bit = 1u64 << (n % u64::from(REGION_LINES));
        let mask = self.regions.entry(n / u64::from(REGION_LINES)).or_insert(0);
        let fresh = *mask & bit == 0;
        *mask |= bit;
        fresh
    }

    /// Every seen line, ascending.
    fn lines(&self) -> Vec<u64> {
        let mut regions: Vec<(u64, u64)> = self.regions.iter().map(|(&r, &m)| (r, m)).collect();
        regions.sort_unstable();
        let mut out = Vec::new();
        for (region, mut mask) in regions {
            while mask != 0 {
                let bit = u64::from(mask.trailing_zeros());
                mask &= mask - 1;
                out.push((region * u64::from(REGION_LINES) + bit) << self.line_shift);
            }
        }
        out
    }
}

/// Per-core online miss classifier (see the module docs for the
/// method and its limits).
#[derive(Clone, Debug)]
pub struct MissClassifier {
    seen: SeenLines,
    coh: LineSet,
    shadow: ShadowFa,
    /// Misses attributed compulsory.
    pub compulsory: u64,
    /// Misses attributed capacity.
    pub capacity: u64,
    /// Misses attributed conflict.
    pub conflict: u64,
    /// Misses attributed coherence.
    pub coherence: u64,
}

impl MissClassifier {
    /// Creates a classifier shadowing an L1D of `capacity_lines` lines
    /// of `line_bytes` bytes (a power of two).
    pub fn new(capacity_lines: usize, line_bytes: u32) -> Self {
        MissClassifier {
            seen: SeenLines::new(line_bytes),
            coh: LineSet::default(),
            shadow: ShadowFa::new(capacity_lines),
            compulsory: 0,
            capacity: 0,
            conflict: 0,
            coherence: 0,
        }
    }

    /// Sum of all four attributed counters; the conservation law pins
    /// this to the real L1D miss counter.
    pub fn total(&self) -> u64 {
        self.compulsory + self.capacity + self.conflict + self.coherence
    }

    /// Records a demand access that hit in the real L1D (including
    /// write-upgrade hits): keeps the shadow's recency in sync.
    pub fn on_hit(&mut self, line: u64) {
        self.shadow.touch(line);
    }

    /// Classifies a demand miss on `line` (a line-aligned address) and
    /// updates all shadow state.
    pub fn on_miss(&mut self, line: u64) -> MissClass {
        debug_assert!(self.seen.aligned(line), "unaligned line {line:#x}");
        let class = if self.seen.insert(line) {
            MissClass::Compulsory
        } else if self.coh.remove(&line) {
            MissClass::Coherence
        } else if self.shadow.contains(line) {
            MissClass::Conflict
        } else {
            MissClass::Capacity
        };
        match class {
            MissClass::Compulsory => self.compulsory += 1,
            MissClass::Capacity => self.capacity += 1,
            MissClass::Conflict => self.conflict += 1,
            MissClass::Coherence => self.coherence += 1,
        }
        self.shadow.touch(line);
        class
    }

    /// Records that another core's write invalidated `line` out of this
    /// core's L1D: the next miss on it is a coherence miss.
    pub fn on_coherence_invalidate(&mut self, line: u64) {
        self.coh.insert(line);
        self.shadow.remove(line);
    }

    /// Records an inclusive-L2 back-invalidation of `line`: removed
    /// from the shadow without a coherence mark (the subsequent miss
    /// classifies as capacity — documented limit).
    pub fn on_back_invalidate(&mut self, line: u64) {
        self.shadow.remove(line);
    }

    /// Records a whole-cache flush: shadow and coherence marks reset
    /// (post-flush re-misses classify as capacity — documented limit).
    pub fn on_flush(&mut self) {
        self.shadow.clear();
        self.coh.clear();
    }
}

impl SnapshotState for MissClassifier {
    fn save(&self, e: &mut Enc) {
        e.u64_seq(&self.seen.lines());
        let mut coh: Vec<u64> = self.coh.iter().copied().collect();
        coh.sort_unstable();
        e.u64_seq(&coh);
        e.usize(self.shadow.cap);
        // residents in stamp (recency) order so restore rebuilds the
        // identical LRU ordering
        e.seq(self.shadow.len());
        for (stamp, line) in self.shadow.residents() {
            e.u64(stamp);
            e.u64(line);
        }
        e.u64(self.shadow.next_stamp);
        e.u64(self.compulsory);
        e.u64(self.capacity);
        e.u64(self.conflict);
        e.u64(self.coherence);
    }

    /// Rejects, as corrupt, a frame that `save` cannot write: a seen
    /// line not aligned to this classifier's line size, or residents
    /// out of stamp order or repeating a line.
    fn restore(&mut self, d: &mut Dec) -> SnapResult<()> {
        self.seen.regions.clear();
        for line in d.u64_seq()? {
            if !self.seen.aligned(line) {
                return Err(SnapshotError::Corrupt {
                    what: "miss classifier seen line not line-aligned",
                });
            }
            self.seen.insert(line);
        }
        self.coh = d.u64_seq()?.into_iter().collect();
        self.shadow = ShadowFa::new(d.usize()?);
        let n = d.len(16)?;
        let mut last_stamp = None;
        for _ in 0..n {
            let stamp = d.u64()?;
            let line = d.u64()?;
            if last_stamp.is_some_and(|s| s >= stamp) || self.shadow.contains(line) {
                return Err(SnapshotError::Corrupt {
                    what: "miss classifier shadow residents out of order",
                });
            }
            last_stamp = Some(stamp);
            let node = self.shadow.alloc(line);
            self.shadow.next_stamp = stamp;
            self.shadow.push_mru(node);
        }
        self.shadow.next_stamp = d.u64()?;
        self.compulsory = d.u64()?;
        self.capacity = d.u64()?;
        self.conflict = d.u64()?;
        self.coherence = d.u64()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::{BTreeMap, HashMap, HashSet};
    use xt_harness::gen::{choose, ints, vec_of, weighted};
    use xt_harness::prop::{check_with, Config};

    /// Reference model: the `HashMap` + `BTreeMap` shadow and `HashSet`
    /// seen/coherence sets the arena list and bitmaps replaced.
    struct RefClassifier {
        seen: HashSet<u64>,
        coh: HashSet<u64>,
        cap: usize,
        lines: HashMap<u64, u64>,
        stamps: BTreeMap<u64, u64>,
        next_stamp: u64,
        counts: [u64; 4],
    }

    impl RefClassifier {
        fn new(cap: usize) -> Self {
            RefClassifier {
                seen: HashSet::new(),
                coh: HashSet::new(),
                cap,
                lines: HashMap::new(),
                stamps: BTreeMap::new(),
                next_stamp: 0,
                counts: [0; 4],
            }
        }

        fn touch(&mut self, line: u64) {
            if let Some(old) = self.lines.remove(&line) {
                self.stamps.remove(&old);
            } else if self.lines.len() >= self.cap {
                if let Some((&victim_stamp, &victim_line)) = self.stamps.iter().next() {
                    self.stamps.remove(&victim_stamp);
                    self.lines.remove(&victim_line);
                }
            }
            let s = self.next_stamp;
            self.next_stamp += 1;
            self.lines.insert(line, s);
            self.stamps.insert(s, line);
        }

        fn remove(&mut self, line: u64) {
            if let Some(s) = self.lines.remove(&line) {
                self.stamps.remove(&s);
            }
        }

        fn on_miss(&mut self, line: u64) -> MissClass {
            let class = if self.seen.insert(line) {
                MissClass::Compulsory
            } else if self.coh.remove(&line) {
                MissClass::Coherence
            } else if self.lines.contains_key(&line) {
                MissClass::Conflict
            } else {
                MissClass::Capacity
            };
            self.counts[class as usize] += 1;
            self.touch(line);
            class
        }

        fn save(&self) -> Vec<u8> {
            let mut e = Enc::new();
            let mut seen: Vec<u64> = self.seen.iter().copied().collect();
            seen.sort_unstable();
            e.u64_seq(&seen);
            let mut coh: Vec<u64> = self.coh.iter().copied().collect();
            coh.sort_unstable();
            e.u64_seq(&coh);
            e.usize(self.cap);
            e.seq(self.stamps.len());
            for (&stamp, &line) in &self.stamps {
                e.u64(stamp);
                e.u64(line);
            }
            e.u64(self.next_stamp);
            for c in self.counts {
                e.u64(c);
            }
            e.into_bytes()
        }
    }

    fn save_bytes(c: &MissClassifier) -> Vec<u8> {
        let mut e = Enc::new();
        c.save(&mut e);
        e.into_bytes()
    }

    /// Random hit/miss/invalidate/flush sequences give the same classes,
    /// counters and snapshot bytes as the reference model, for every
    /// line size and shadow capacity, across a mid-sequence
    /// save/restore.
    #[test]
    fn classifier_matches_map_reference() {
        const KINDS: &[(u32, u8)] = &[(6, 0), (6, 1), (2, 2), (2, 3), (1, 4)];
        let gen = (
            choose(&[32u32, 64, 128]),
            choose(&[0usize, 1, 2, 16, 1024]),
            ints(0usize..500),
            vec_of((weighted(KINDS), ints(0u64..4096)), 1..500),
        );
        check_with(
            &Config::seeded(0x51DE_0003),
            "classifier_matches_map_reference",
            &gen,
            |(line_bytes, cap, cut, ops)| {
                let mut c = MissClassifier::new(*cap, *line_bytes);
                let mut r = RefClassifier::new(*cap);
                for (i, &(kind, a)) in ops.iter().enumerate() {
                    if i == *cut {
                        let bytes = save_bytes(&c);
                        assert_eq!(bytes, r.save(), "save at op {i}");
                        let mut fresh = MissClassifier::new(0, *line_bytes);
                        let mut d = Dec::new(&bytes);
                        fresh.restore(&mut d).expect("restore");
                        assert_eq!(d.remaining(), 0);
                        c = fresh;
                    }
                    // mostly a small pool (reuse, conflicts, region
                    // sharing), sometimes a far line in its own region
                    let n = if a < 3800 { a % 300 } else { a << 20 };
                    let line = n * u64::from(*line_bytes);
                    match kind {
                        0 => {
                            c.on_hit(line);
                            r.touch(line);
                        }
                        1 => {
                            assert_eq!(c.on_miss(line), r.on_miss(line), "miss {line:#x} at op {i}")
                        }
                        2 => {
                            c.on_coherence_invalidate(line);
                            r.coh.insert(line);
                            r.remove(line);
                        }
                        3 => {
                            c.on_back_invalidate(line);
                            r.remove(line);
                        }
                        _ => {
                            c.on_flush();
                            r.lines.clear();
                            r.stamps.clear();
                            r.coh.clear();
                        }
                    }
                }
                assert_eq!(save_bytes(&c), r.save(), "final save");
            },
        );
    }

    #[test]
    fn restore_rejects_frames_save_cannot_write() {
        let frame = |seen: &[u64], residents: &[(u64, u64)]| {
            let mut e = Enc::new();
            e.u64_seq(seen);
            e.u64_seq(&[]);
            e.usize(4);
            e.seq(residents.len());
            for &(stamp, line) in residents {
                e.u64(stamp);
                e.u64(line);
            }
            for _ in 0..5 {
                e.u64(9);
            }
            e.into_bytes()
        };
        let bad = [
            frame(&[0x41], &[]),
            frame(&[], &[(3, 0x40), (2, 0x80)]),
            frame(&[], &[(1, 0x40), (2, 0x40)]),
        ];
        for bytes in bad {
            let mut c = MissClassifier::new(4, 64);
            let mut d = Dec::new(&bytes);
            assert!(matches!(
                c.restore(&mut d),
                Err(SnapshotError::Corrupt { .. })
            ));
        }
        let good = frame(&[0x40, 0x80], &[(1, 0x40), (2, 0x80)]);
        let mut c = MissClassifier::new(4, 64);
        c.restore(&mut Dec::new(&good)).expect("restore");
        assert_eq!(save_bytes(&c), good);
    }

    #[test]
    fn first_touch_is_compulsory() {
        let mut c = MissClassifier::new(4, 64);
        assert_eq!(c.on_miss(0x40), MissClass::Compulsory);
        assert_eq!(c.on_miss(0x80), MissClass::Compulsory);
        assert_eq!(c.total(), 2);
        assert_eq!(c.compulsory, 2);
    }

    #[test]
    fn capacity_when_working_set_exceeds_shadow() {
        let mut c = MissClassifier::new(2, 64);
        // touch 3 distinct lines round-robin: after the compulsory pass,
        // every revisit misses even fully-associatively
        for _ in 0..3 {
            for l in [0x0u64, 0x40, 0x80] {
                c.on_miss(l);
            }
        }
        assert_eq!(c.compulsory, 3);
        assert_eq!(c.capacity, 6);
        assert_eq!(c.conflict, 0);
    }

    #[test]
    fn conflict_when_shadow_would_have_hit() {
        // shadow big enough to hold both lines: a re-miss on a resident
        // line can only be a set-conflict in the real array
        let mut c = MissClassifier::new(8, 64);
        c.on_miss(0x0);
        c.on_miss(0x1000); // same set in a small direct-mapped L1, say
        assert_eq!(c.on_miss(0x0), MissClass::Conflict);
        assert_eq!(c.on_miss(0x1000), MissClass::Conflict);
        assert_eq!(c.conflict, 2);
    }

    #[test]
    fn coherence_mark_consumed_exactly_once() {
        let mut c = MissClassifier::new(8, 64);
        c.on_miss(0x40);
        c.on_coherence_invalidate(0x40);
        assert_eq!(c.on_miss(0x40), MissClass::Coherence);
        // mark consumed: the next miss is shadow-resident -> conflict
        assert_eq!(c.on_miss(0x40), MissClass::Conflict);
    }

    #[test]
    fn back_invalidate_declassifies_to_capacity() {
        let mut c = MissClassifier::new(8, 64);
        c.on_miss(0x40);
        c.on_back_invalidate(0x40);
        assert_eq!(c.on_miss(0x40), MissClass::Capacity);
    }

    #[test]
    fn flush_resets_shadow_but_not_seen() {
        let mut c = MissClassifier::new(8, 64);
        c.on_miss(0x40);
        c.on_flush();
        assert_eq!(c.on_miss(0x40), MissClass::Capacity, "seen before, not cold");
    }

    #[test]
    fn hit_refreshes_lru_in_shadow() {
        let mut c = MissClassifier::new(2, 64);
        c.on_miss(0x0);
        c.on_miss(0x40);
        c.on_hit(0x0); // 0x40 is now LRU
        c.on_miss(0x80); // evicts 0x40 from the shadow
        assert_eq!(c.on_miss(0x0), MissClass::Conflict, "still resident");
        // after the 0x0 conflict-miss touch, shadow = {0x80, 0x0}
        assert_eq!(c.on_miss(0x40), MissClass::Capacity, "was evicted");
    }

    #[test]
    fn snapshot_roundtrip_preserves_lru_and_counts() {
        let mut c = MissClassifier::new(2, 64);
        for l in [0x0u64, 0x40, 0x80, 0x0, 0x40] {
            c.on_miss(l);
        }
        c.on_coherence_invalidate(0x80);
        let mut e = Enc::new();
        c.save(&mut e);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        let mut r = MissClassifier::new(2, 64);
        r.restore(&mut d).expect("restore");
        // behavioural equivalence: same classifications afterwards
        for l in [0x80u64, 0x0, 0x40, 0x100] {
            assert_eq!(c.on_miss(l), r.on_miss(l), "line {l:#x}");
        }
        assert_eq!(c.total(), r.total());
    }
}
